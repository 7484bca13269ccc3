# Warm-start differential for aqo_serve (see tests/CMakeLists.txt).
#
# For each of two duplicate-heavy request streams made by aqo_loadgen —
# QO_N under the server's default optimizer, and QO_H with a per-request
# `optimizer=ii` header — runs aqo_serve twice against the SAME state
# directory:
#
#   run 1 (cold): empty directory — every unique instance is computed,
#     journaled, and snapshotted on shutdown;
#   run 2 (warm): recovers the cache from disk first.
#
# Fails unless, for each stream, (a) the two stdout response streams are
# byte-identical — recovered plans must reproduce computed plans
# bit-for-bit — (b) run 2's JSONL run-log proves the warm path actually
# ran: a persist_recovery record with entries_loaded > 0 and a
# plan_cache_stats record with hits > 0, and (c) run 1's optimizer_run
# records name the entry the stream asked for.
#
# Usage: cmake -DAQO_SERVE=<bin> -DAQO_LOADGEN=<bin> -DWORK_DIR=<dir>
#        -P run_warm_start_differential.cmake

if(NOT AQO_SERVE OR NOT AQO_LOADGEN OR NOT WORK_DIR)
  message(FATAL_ERROR "AQO_SERVE, AQO_LOADGEN and WORK_DIR are required")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_serve stream tag)
  execute_process(
    COMMAND "${AQO_SERVE}" --cache-dir=${WORK_DIR}/${stream}_state
            --json-out=${WORK_DIR}/${stream}_${tag}.jsonl
    INPUT_FILE "${WORK_DIR}/${stream}.bin"
    OUTPUT_FILE "${WORK_DIR}/${stream}_${tag}.out"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "aqo_serve (${stream} ${tag}) exited with ${rc}")
  endif()
endfunction()

# check_stream(<name> <family.entry run 1 must run> <extra aqo_loadgen flags>...)
function(check_stream stream expected_run)
  execute_process(
    COMMAND "${AQO_LOADGEN}" --requests=60 --bases=6 --n=7 --seed=21
            ${ARGN} --out=${WORK_DIR}/${stream}.bin
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "aqo_loadgen (${stream}) exited with ${rc}")
  endif()

  run_serve(${stream} cold)
  run_serve(${stream} warm)

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/${stream}_cold.out" "${WORK_DIR}/${stream}_warm.out"
    RESULT_VARIABLE stdout_diff)
  if(NOT stdout_diff EQUAL 0)
    message(FATAL_ERROR
      "aqo_serve responses differ between cold and warm starts "
      "(${WORK_DIR}/${stream}_cold.out vs ${stream}_warm.out) — recovered "
      "plans are not bit-identical to computed plans")
  endif()

  file(READ "${WORK_DIR}/${stream}_cold.jsonl" cold_log)
  string(FIND "${cold_log}" "\"optimizer\":\"${expected_run}\"" ran_at)
  if(ran_at EQUAL -1)
    message(FATAL_ERROR
      "${stream}: cold run-log has no optimizer_run of ${expected_run}")
  endif()

  # Run 2 must prove it was actually warm.
  file(STRINGS "${WORK_DIR}/${stream}_warm.jsonl" warm_lines)
  set(recovered_entries "")
  set(warm_hits "")
  foreach(line IN LISTS warm_lines)
    if(line MATCHES "\"type\":\"persist_recovery\".*\"entries_loaded\":([0-9]+)")
      set(recovered_entries "${CMAKE_MATCH_1}")
    endif()
    if(line MATCHES "\"type\":\"plan_cache_stats\".*\"hits\":([0-9]+)")
      set(warm_hits "${CMAKE_MATCH_1}")
    endif()
  endforeach()

  if(recovered_entries STREQUAL "")
    message(FATAL_ERROR "${stream}: warm run-log has no persist_recovery record")
  endif()
  if(recovered_entries EQUAL 0)
    message(FATAL_ERROR
      "${stream}: warm run recovered 0 entries — cold run persisted nothing")
  endif()
  if(warm_hits STREQUAL "" OR warm_hits EQUAL 0)
    message(FATAL_ERROR
      "${stream}: warm run reports no plan-cache hits (hits='${warm_hits}') "
      "— the recovered entries were never used")
  endif()

  message(STATUS "aqo_serve warm-start differential (${stream}): stdout "
    "identical; recovered ${recovered_entries} entries, ${warm_hits} warm hits")
endfunction()

check_stream(qon qon.dp)
check_stream(qoh_ii qoh.ii --family=qoh --optimizer=ii)
