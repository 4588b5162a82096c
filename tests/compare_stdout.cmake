# Run PROGRAM and compare its stdout byte for byte with the GOLDEN file.
#   cmake -DPROGRAM=<exe> [-DARGS="<arg> ..."] -DGOLDEN=<file>
#         -P compare_stdout.cmake
# ARGS is one space-separated string of program arguments. With
# AN2_REGEN_GOLDEN=1 in the environment the golden is rewritten instead,
# like the other goldens under tests/golden.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited with status ${rc}")
endif()
if(DEFINED ENV{AN2_REGEN_GOLDEN})
    file(WRITE "${GOLDEN}" "${actual}")
    message(STATUS "rewrote ${GOLDEN}")
    return()
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN}:\n"
                        "${actual}")
endif()
