# Runs a command and fails unless it exits with EXPECT_EXIT after writing
# exactly one line to stderr — the contract for rejected input.
#
#   cmake -DEXPECT_EXIT=2 -P expect_exit.cmake -- <program> [args...]
#
# The `--` keeps cmake from parsing the program's own flags.
set(command "")
set(separator_seen FALSE)
set(i 0)
while(i LESS CMAKE_ARGC)
  if(separator_seen)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(separator_seen TRUE)
  endif()
  math(EXPR i "${i} + 1")
endwhile()

execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE message)
string(STRIP "${message}" message)
string(FIND "${message}" "\n" newline)
if(NOT code STREQUAL "${EXPECT_EXIT}" OR message STREQUAL "" OR
   NOT newline EQUAL -1)
  string(JOIN " " shown ${command})
  message(FATAL_ERROR "${shown}: expected exit ${EXPECT_EXIT} and a "
                      "one-line message, got exit '${code}':\n${message}")
endif()
