# CTest driver (invoked via `cmake -P`): runs BINARY with ARGS (a ;-list)
# and passes only when it exits EXIT_CODE — by default 2, the usage-error
# code — and names the offending input on stderr.  A flag that is silently
# accepted would instead run the whole bench, exit 0 and fail here.
#
# Expected -D inputs: BINARY, ARGS, EXPECT (regex the error output must
# match); optional EXIT_CODE (default 2).

foreach(var BINARY ARGS EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_reject.cmake: missing -D${var}")
  endif()
endforeach()
if(NOT DEFINED EXIT_CODE)
  set(EXIT_CODE 2)
endif()

execute_process(
  COMMAND "${BINARY}" ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL EXIT_CODE)
  message(FATAL_ERROR "cli_reject: '${BINARY} ${ARGS}' exited ${rc}, expected ${EXIT_CODE}\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "cli_reject: error output does not match '${EXPECT}':\n${err}")
endif()
