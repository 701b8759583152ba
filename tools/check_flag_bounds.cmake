# Asserts that a tool refuses a numeric flag value too large for the
# field it fills: exit status 2 and a message naming the bound. Each
# value goes ahead of --help, so a tool that took the value prints its
# usage and exits without binding a port or starting a thread.
# Driven by the <tool>_flag_bounds ctests with -DBIN=<binary> and
# -DCASES=<flag>:<value>:<bound>,...

string(REPLACE "," ";" cases "${CASES}")
foreach(case IN LISTS cases)
    string(REPLACE ":" ";" parts "${case}")
    list(GET parts 0 flag)
    list(GET parts 1 value)
    list(GET parts 2 bound)
    execute_process(COMMAND ${BIN} ${flag} ${value} --help
                    RESULT_VARIABLE got
                    OUTPUT_VARIABLE out ERROR_VARIABLE err)
    set(want "${flag} wants a number up to ${bound}, got '${value}'")
    string(FIND "${err}" "${want}" at)
    if(NOT got EQUAL 2 OR at EQUAL -1)
        message(FATAL_ERROR
                "expected exit 2 and \"${want}\" from: "
                "${BIN} ${flag} ${value} --help\n"
                "got exit ${got}\nstderr: ${err}")
    endif()
endforeach()
