# Serial == parallel guard for one demo, run as the `example.<name>.threads`
# ctest case:
#
#   cmake -DDEMO=<path to demo binary> -P examples/threads_identical.cmake
#
# Runs the demo at MGT_THREADS=0 and MGT_THREADS=8 and fails unless both
# runs exit 0 and print byte-identical stdout.
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED DEMO OR NOT EXISTS "${DEMO}")
  message(FATAL_ERROR "threads_identical: pass -DDEMO=<demo binary>")
endif()

foreach(threads 0 8)
  set(ENV{MGT_THREADS} ${threads})
  execute_process(COMMAND "${DEMO}"
                  OUTPUT_VARIABLE stdout_${threads}
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${DEMO} failed at MGT_THREADS=${threads}: ${status}")
  endif()
endforeach()

if(NOT stdout_0 STREQUAL stdout_8)
  message(FATAL_ERROR
          "${DEMO}: stdout differs between MGT_THREADS=0 and MGT_THREADS=8")
endif()
message(STATUS "threads_identical: ${DEMO} prints the same at 0 and 8 threads")
