# aqo_loadgen's drive mode against a server that exits at start-up (see
# tests/CMakeLists.txt).
#
# `aqo_serve --plan-cache-mb=0` refuses its cache size and exits before
# it reads a frame. The 400-request stream is larger than a pipe buffer,
# so loadgen is still writing when the server's stdin closes; the write
# must fail without killing loadgen, which then reports how many
# responses came back and exits 1.
#
# Usage: cmake -DAQO_LOADGEN=<bin> -DAQO_SERVE=<bin>
#        -P run_loadgen_server_exit.cmake

if(NOT AQO_LOADGEN OR NOT AQO_SERVE)
  message(FATAL_ERROR "AQO_LOADGEN and AQO_SERVE are required")
endif()

execute_process(
  COMMAND "${AQO_LOADGEN}" --requests=400 --bases=3 --n=9
    "--serve=${AQO_SERVE}" --serve-args=--plan-cache-mb=0
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
set(want "error: server stream ended after 0 of 400 responses")
if(NOT status STREQUAL "1" OR NOT err MATCHES "${want}")
  message(FATAL_ERROR
    "aqo_loadgen exited '${status}', want 1 and '${want}'; stderr:\n${err}")
endif()
