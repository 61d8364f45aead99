# Knob-creep guard, run as the `repo.env_knobs` ctest case:
#
#   cmake -DSRC_DIR=<repo>/src -P tests/env_knobs.cmake
#
# MGT_THREADS is the library's only runtime environment knob, read by
# src/util/parallel.cpp through its strict parser. Any other file under src/
# that calls getenv fails this check, so a new knob has to arrive as a
# reviewed edit to the allow-list below rather than as a silent addition.
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED SRC_DIR OR NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "env_knobs: pass -DSRC_DIR=<repo>/src")
endif()

set(allowed "util/parallel.cpp")

file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}" "${SRC_DIR}/*")
set(offenders "")
foreach(rel IN LISTS sources)
  if(rel IN_LIST allowed)
    continue()
  endif()
  file(STRINGS "${SRC_DIR}/${rel}" hits REGEX "getenv")
  if(hits)
    list(APPEND offenders "src/${rel}")
  endif()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR
          "getenv outside src/util/parallel.cpp (MGT_THREADS is the only "
          "runtime knob):\n  ${listing}")
endif()
message(STATUS "env_knobs: only src/util/parallel.cpp reads the environment")
