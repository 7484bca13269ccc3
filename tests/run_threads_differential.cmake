# Thread-count differential for qon_gap (see tests/CMakeLists.txt).
#
# Runs `qon_gap --quick=1` with --threads=1 and --threads=8 and fails
# unless (a) the printed tables are byte-identical and (b) the JSONL
# run-log *bodies* are identical, record for record, in the same order.
# Normalization before the JSONL comparison: the provenance header is
# dropped (it stamps a timestamp), `wall_seconds` values are blanked, and
# the `histograms` object is emptied (both carry real timings, the only
# fields that legitimately vary between runs).
#
# Usage: cmake -DQON_GAP=<binary> -DWORK_DIR=<dir> -P run_threads_differential.cmake

if(NOT QON_GAP OR NOT WORK_DIR)
  message(FATAL_ERROR "QON_GAP and WORK_DIR are required")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_qon_gap threads)
  execute_process(
    COMMAND "${QON_GAP}" --quick=1 --seed=5 --threads=${threads}
            --json-out=${WORK_DIR}/t${threads}.jsonl
    OUTPUT_FILE "${WORK_DIR}/t${threads}.txt"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qon_gap --threads=${threads} exited with ${rc}")
  endif()
endfunction()

# Strips the run_header record and blanks wall_seconds, writing the
# normalized body to ${out}.
function(normalize_jsonl in out)
  file(STRINGS "${in}" lines)
  set(body "")
  foreach(line IN LISTS lines)
    if(line MATCHES "\"type\":\"run_header\"")
      continue()
    endif()
    string(REGEX REPLACE "\"wall_seconds\":[0-9.eE+-]+" "\"wall_seconds\":0"
           line "${line}")
    # Latency distributions are timings too. The greedy .* is safe: each
    # record has at most one "histograms" key, and it is the last one.
    string(REGEX REPLACE "\"histograms\":.*}$"
           "\"histograms\":{}}" line "${line}")
    string(APPEND body "${line}\n")
  endforeach()
  file(WRITE "${out}" "${body}")
endfunction()

run_qon_gap(1)
run_qon_gap(8)

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/t1.txt" "${WORK_DIR}/t8.txt"
  RESULT_VARIABLE table_diff)
if(NOT table_diff EQUAL 0)
  message(FATAL_ERROR
    "qon_gap tables differ between --threads=1 and --threads=8 "
    "(${WORK_DIR}/t1.txt vs t8.txt)")
endif()

normalize_jsonl("${WORK_DIR}/t1.jsonl" "${WORK_DIR}/t1.norm.jsonl")
normalize_jsonl("${WORK_DIR}/t8.jsonl" "${WORK_DIR}/t8.norm.jsonl")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/t1.norm.jsonl" "${WORK_DIR}/t8.norm.jsonl"
  RESULT_VARIABLE jsonl_diff)
if(NOT jsonl_diff EQUAL 0)
  message(FATAL_ERROR
    "qon_gap run-log bodies differ between --threads=1 and --threads=8 "
    "(${WORK_DIR}/t1.norm.jsonl vs t8.norm.jsonl)")
endif()

message(STATUS "qon_gap threads differential: tables and run-log bodies identical")
