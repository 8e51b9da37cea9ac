# CTest driver for the bench_smoke target (invoked via `cmake -P`).
#
# Runs every bench listed in BENCHES with `--scale small --json --trace
# --seed 7` inside WORK_DIR, then validates the BENCH_*.json it wrote with
# `JSON_CHECK --bench` (well-formed JSON plus the run header and every
# declared metric in its block) and the TRACE_*.jsonl with
# `JSON_CHECK --jsonl`.  Any bench failure, missing artifact, or malformed
# artifact fails the test.
#
# Expected -D inputs: BENCH_DIR, JSON_CHECK, BENCHES (;-list), WORK_DIR.

foreach(var BENCH_DIR JSON_CHECK BENCHES WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke.cmake: missing -D${var}")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

set(failures 0)
foreach(bench IN LISTS BENCHES)
  set(binary "${BENCH_DIR}/${bench}")
  if(NOT EXISTS "${binary}")
    message(SEND_ERROR "bench_smoke: missing binary ${binary}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()

  # Stale artifacts from a previous run must not mask a bench that stopped
  # writing its outputs.
  string(REGEX REPLACE "^bench_" "" stem "${bench}")
  set(json_artifact "${WORK_DIR}/BENCH_${stem}.json")
  set(trace_artifact "${WORK_DIR}/TRACE_${stem}.jsonl")
  file(REMOVE "${json_artifact}" "${trace_artifact}")

  message(STATUS "bench_smoke: ${bench} --scale small --json --trace")
  execute_process(
    COMMAND "${binary}" --scale small --json --trace --seed 7
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_out)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "bench_smoke: ${bench} exited ${rc}\n${run_out}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()

  # bench_slo_serving's record contract includes the serving-mode "slo"
  # block; enforce it there (and only there — other benches never emit one).
  set(bench_mode "--bench")
  if(bench STREQUAL "bench_slo_serving")
    list(APPEND bench_mode "--require-slo")
  endif()

  foreach(pair "${json_artifact};${bench_mode}" "${trace_artifact};--jsonl")
    list(GET pair 0 artifact)
    set(mode_args "")
    list(LENGTH pair pair_len)
    if(pair_len GREATER 1)
      list(SUBLIST pair 1 -1 mode_args)
    endif()
    if(NOT EXISTS "${artifact}")
      message(SEND_ERROR "bench_smoke: ${bench} did not write ${artifact}")
      math(EXPR failures "${failures} + 1")
      continue()
    endif()
    execute_process(
      COMMAND "${JSON_CHECK}" ${mode_args} "${artifact}"
      RESULT_VARIABLE check_rc
      OUTPUT_VARIABLE check_out
      ERROR_VARIABLE check_out)
    if(NOT check_rc EQUAL 0)
      message(SEND_ERROR "bench_smoke: invalid artifact ${artifact}\n${check_out}")
      math(EXPR failures "${failures} + 1")
    endif()
  endforeach()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "bench_smoke: ${failures} failure(s)")
endif()
message(STATUS "bench_smoke: all benches passed")
