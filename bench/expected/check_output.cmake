# Runs a bench driver and compares its stdout with a pinned file, byte for
# byte. ctest calls it once per pinned driver (bench/CMakeLists.txt):
#
#   cmake -DDRIVER=<binary> -DEXPECTED=<pinned .txt> -DACTUAL=<output path>
#         -P check_output.cmake
#
# On a mismatch the driver's output is left at ACTUAL for `diff`. To rewrite
# every pin after an intended change, see docs/REPRODUCING.md.
foreach(var DRIVER EXPECTED ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_output.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${DRIVER}" OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${EXPECTED}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "output differs from the pin; see: diff ${EXPECTED} ${ACTUAL}")
endif()
