# Fails when EXPERIMENTS.md or DESIGN.md names a bench_* program that
# bench/CMakeLists.txt does not build, so every documented command runs.
#
# Usage: cmake -DSOURCE_DIR=<repository root> -P check_doc_programs.cmake
cmake_minimum_required(VERSION 3.16)
file(READ "${SOURCE_DIR}/bench/CMakeLists.txt" build_file)
string(REGEX MATCHALL "myproxy_bench\\(bench_[a-z0-9_]+\\)" built
       "${build_file}")
string(REGEX REPLACE "myproxy_bench\\((bench_[a-z0-9_]+)\\)" "\\1" built
       "${built}")
if(NOT built)
  message(FATAL_ERROR "no myproxy_bench() programs in bench/CMakeLists.txt")
endif()

set(stale "")
foreach(doc EXPERIMENTS.md DESIGN.md)
  file(READ "${SOURCE_DIR}/${doc}" text)
  # The leading character keeps names such as perfbench_x from matching.
  string(REGEX MATCHALL "(^|[^A-Za-z0-9_])bench_[a-z0-9_]+" names "${text}")
  foreach(name IN LISTS names)
    string(REGEX REPLACE "^[^b]" "" name "${name}")
    if(NOT name IN_LIST built)
      list(APPEND stale "${doc}: ${name}")
    endif()
  endforeach()
endforeach()

if(stale)
  list(REMOVE_DUPLICATES stale)
  string(REPLACE ";" "\n  " stale "${stale}")
  message(FATAL_ERROR "documented programs that bench/ does not build:\n"
                      "  ${stale}")
endif()
message(STATUS "documented bench programs: ${built}")
