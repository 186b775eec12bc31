# jobs_identity.cmake — fails unless each driver prints the same bytes with
# `--fast` at --jobs 1 and at --jobs 4.
#
# Usage: cmake -P jobs_identity.cmake <bin-dir> <driver>...
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 4 ${last})
  set(driver "${CMAKE_ARGV3}/${CMAKE_ARGV${i}}")
  foreach(jobs 1 4)
    execute_process(COMMAND ${driver} --fast --jobs ${jobs}
                    OUTPUT_VARIABLE out_${jobs} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${driver} --fast --jobs ${jobs} failed: ${rc}")
    endif()
  endforeach()
  if(NOT out_1 STREQUAL out_4)
    message(FATAL_ERROR "${driver} --fast prints different output at --jobs 1 and --jobs 4")
  endif()
  message(STATUS "${CMAKE_ARGV${i}}: identical at --jobs 1 and 4")
endforeach()
