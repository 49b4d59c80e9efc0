# Run EXE and compare its stdout with the file GOLDEN byte for byte. The
# output is kept as <name>.actual.txt in the working directory.
#   cmake -DEXE=<program> -DGOLDEN=<file> -P compare_stdout.cmake
get_filename_component(name "${GOLDEN}" NAME_WE)
set(actual "${name}.actual.txt")
execute_process(COMMAND "${EXE}" OUTPUT_FILE "${actual}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${actual}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${name} differs from ${GOLDEN} (got ${actual})")
endif()
