# Runs a bench with a malformed or out-of-range flag and checks that it
# fails as a usage error: exit status 2 and a stderr message naming the
# flag (not an uncaught exception and SIGABRT).
#
# cmake -DBENCH=<binary> -DFLAG=<name> -DVALUE=<bad value>
#       [-DARGS=<more arguments, space-separated>] [-DKEEP=<file name>]
#       -P check_bad_flag.cmake
#
# ARGS follow --FLAG=VALUE on the command line. KEEP names an output file
# the bench writes into its working directory: the run then happens in a
# directory of its own that already holds a KEEP file, whose bytes must be
# unchanged after the rejected run.
separate_arguments(args UNIX_COMMAND "${ARGS}")
set(command ${BENCH} --${FLAG}=${VALUE} ${args})
list(JOIN command " " shown)
set(workdir ${CMAKE_CURRENT_BINARY_DIR})
if(DEFINED KEEP)
  get_filename_component(bench_name ${BENCH} NAME)
  set(workdir ${CMAKE_CURRENT_BINARY_DIR}/bad-flag-${bench_name}-${FLAG})
  file(REMOVE_RECURSE ${workdir})
  set(earlier "an earlier run's ${KEEP}\n1,2,3\n")
  file(WRITE ${workdir}/${KEEP} "${earlier}")
endif()
execute_process(
  COMMAND ${command}
  WORKING_DIRECTORY ${workdir}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR
    "${shown}: expected exit status 2, got '${status}'; stderr: ${stderr}")
endif()
string(FIND "${stderr}" "--${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "${shown}: stderr does not name --${FLAG}: ${stderr}")
endif()
if(DEFINED KEEP)
  if(NOT EXISTS ${workdir}/${KEEP})
    message(FATAL_ERROR "${shown}: the rejected run deleted ${KEEP}")
  endif()
  file(READ ${workdir}/${KEEP} kept)
  if(NOT kept STREQUAL earlier)
    message(FATAL_ERROR
      "${shown}: the rejected run rewrote ${KEEP}; it now holds: ${kept}")
  endif()
  file(REMOVE_RECURSE ${workdir})
endif()
