# Run one CLI invocation that must be refused as a usage error: exit
# code 2, and stderr opening with "PROG: FLAG" followed by a space or a
# colon (the error names the offending flag, or spec line, before the
# usage text follows).
#
# Inputs: EXE (binary), PROG (its name in diagnostics), ARGS
# ('|'-separated arguments), FLAG.

string(REPLACE "|" ";" args "${ARGS}")
execute_process(
    COMMAND ${EXE} ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit code 2, got ${rc}\n${err}")
endif()
set(prefix "${PROG}: ${FLAG}")
string(FIND "${err}" "${prefix} " at_space)
string(FIND "${err}" "${prefix}:" at_colon)
if(NOT at_space EQUAL 0 AND NOT at_colon EQUAL 0)
    message(FATAL_ERROR "error does not open with '${prefix}':\n${err}")
endif()
