# Runs BIN with the single argument ARG and fails unless it exits with
# EXPECT_CODE and its stderr contains EXPECT_STDERR.
#   cmake -DBIN=... -DARG=... -DEXPECT_CODE=2 -DEXPECT_STDERR=... -P expect_exit.cmake
execute_process(COMMAND "${BIN}" "${ARG}"
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_CODE)
  message(FATAL_ERROR "${BIN} ${ARG}: exit ${code}, expected ${EXPECT_CODE}\n"
                      "stderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARG}: stderr lacks \"${EXPECT_STDERR}\"\n"
                      "stderr: ${err}")
endif()
