# Run one pbs_exp invocation that must be refused as a usage error:
# exit code 2, and stderr opening with "pbs_exp: FLAG " (the error
# names the offending flag before the usage text follows).
#
# Inputs: EXE (binary), ARGS ('|'-separated arguments), FLAG.

string(REPLACE "|" ";" args "${ARGS}")
execute_process(
    COMMAND ${EXE} ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit code 2, got ${rc}\n${err}")
endif()
string(FIND "${err}" "pbs_exp: ${FLAG} " at)
if(NOT at EQUAL 0)
    message(FATAL_ERROR "error does not open with '${FLAG}':\n${err}")
endif()
