# CTest driver (invoked via `cmake -P`): runs BINARY at `--scale small
# --json` in WORK_DIR, requires `JSON_CHECK CHECK_ARGS` to accept the
# BENCH_*.json it wrote (exit 0), then deletes the nested member MEMBER and
# requires the same check to reject the result (exit 1).  The members chosen
# share their key with a member elsewhere in the record, so a check that
# finds a key anywhere in the file instead of at its path passes the
# stripped record and fails here.
#
# Expected -D inputs: BINARY, JSON_CHECK, CHECK_ARGS (;-list), MEMBER (;-list
# of the member's path components), WORK_DIR.

foreach(var BINARY JSON_CHECK CHECK_ARGS MEMBER WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "json_reject.cmake: missing -D${var}")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
get_filename_component(bench "${BINARY}" NAME)
string(REGEX REPLACE "^bench_" "" stem "${bench}")
set(record "${WORK_DIR}/BENCH_${stem}.json")
file(REMOVE "${record}")
execute_process(
  COMMAND "${BINARY}" --scale small --seed 7 --json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT EXISTS "${record}")
  message(FATAL_ERROR "json_reject: ${bench} exited ${rc} without writing ${record}\n${out}")
endif()

execute_process(
  COMMAND "${JSON_CHECK}" ${CHECK_ARGS} "${record}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "json_reject: the untouched ${record} exited ${rc}, expected 0\n${out}")
endif()

file(READ "${record}" content)
string(JSON stripped REMOVE "${content}" ${MEMBER})
string(REPLACE ";" "." member_path "${MEMBER}")
set(stripped_record "${WORK_DIR}/stripped_${member_path}.json")
file(WRITE "${stripped_record}" "${stripped}")
execute_process(
  COMMAND "${JSON_CHECK}" ${CHECK_ARGS} "${stripped_record}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "json_reject: ${record} without ${member_path} exited ${rc}, expected 1\n${out}")
endif()
