# Byte-for-byte served responses (see tests/CMakeLists.txt).
#
# Sends the committed request stream serve_parse_golden/requests.bin
# through `aqo_serve --seed=3` and requires the response stream to equal
# serve_parse_golden/responses.bin exactly. The stream covers valid QO_N
# and QO_H bodies, comments, blank lines and CRLF, every edge of the
# number and line grammar, bodies with no or an unknown family, and one
# request just outside each registry entry's domain, so it pins the
# family lookup, body hand-off and domain admission in aqo_serve as well
# as the reader. make_requests.py in that directory says how both files
# were made.
#
# Usage: cmake -DAQO_SERVE=<bin> -DGOLDEN_DIR=<tests/serve_parse_golden>
#        -DWORK_DIR=<dir> -P run_serve_parse_golden.cmake

if(NOT AQO_SERVE OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "AQO_SERVE, GOLDEN_DIR and WORK_DIR are required")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${AQO_SERVE}" --seed=3
  INPUT_FILE "${GOLDEN_DIR}/requests.bin"
  OUTPUT_FILE "${WORK_DIR}/responses.bin"
  ERROR_FILE "${WORK_DIR}/serve.err"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "aqo_serve exited with ${rc}; see ${WORK_DIR}/serve.err")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${WORK_DIR}/responses.bin" "${GOLDEN_DIR}/responses.bin"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR
    "${WORK_DIR}/responses.bin differs from ${GOLDEN_DIR}/responses.bin")
endif()

message(STATUS "served responses are byte-identical to the golden file")
