# Runs a bench with a malformed or out-of-range flag and checks that it
# fails as a usage error: exit status 2 and a stderr message naming the
# flag (not an uncaught exception and SIGABRT).
#
# cmake -DBENCH=<binary> -DFLAG=<name> -DVALUE=<bad value> -P check_bad_flag.cmake
execute_process(
  COMMAND ${BENCH} --${FLAG}=${VALUE}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR
    "${BENCH} --${FLAG}=${VALUE}: expected exit status 2, got '${status}'; "
    "stderr: ${stderr}")
endif()
string(FIND "${stderr}" "--${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "${BENCH} --${FLAG}=${VALUE}: stderr does not name --${FLAG}: ${stderr}")
endif()
