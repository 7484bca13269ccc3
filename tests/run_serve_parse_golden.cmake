# Byte-for-byte served responses (see tests/CMakeLists.txt).
#
# Sends the committed request stream serve_parse_golden/requests.bin
# through `aqo_serve --seed=3`, then again with `--deadline-ms=1e15`, and
# requires both response streams to equal serve_parse_golden/responses.bin
# exactly. The stream covers valid QO_N and QO_H bodies, comments, blank
# lines and CRLF, every edge of the number and line grammar, bodies with
# no or an unknown family, n = 0 bodies, every registry entry at n = 1, 2
# and just past its ceiling, header deadlines, bad header tokens and log2
# values past the reader's bound, so it pins the header tokens, family
# lookup, body hand-off and domain admission in aqo_serve as well as the
# reader. make_requests.py in that
# directory says how both files were made.
#
# Usage: cmake -DAQO_SERVE=<bin> -DGOLDEN_DIR=<tests/serve_parse_golden>
#        -DWORK_DIR=<dir> -P run_serve_parse_golden.cmake

if(NOT AQO_SERVE OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "AQO_SERVE, GOLDEN_DIR and WORK_DIR are required")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# The stream's deadlines come from request headers, so a server-wide
# deadline past the clock's range must not change a byte.
foreach(extra "" "--deadline-ms=1e15")
  execute_process(
    COMMAND "${AQO_SERVE}" --seed=3 ${extra}
    INPUT_FILE "${GOLDEN_DIR}/requests.bin"
    OUTPUT_FILE "${WORK_DIR}/responses.bin"
    ERROR_FILE "${WORK_DIR}/serve.err"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "aqo_serve ${extra} exited with ${rc}; see ${WORK_DIR}/serve.err")
  endif()

  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
      "${WORK_DIR}/responses.bin" "${GOLDEN_DIR}/responses.bin"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "aqo_serve ${extra}: ${WORK_DIR}/responses.bin "
      "differs from ${GOLDEN_DIR}/responses.bin")
  endif()
endforeach()

message(STATUS "served responses are byte-identical to the golden file")
