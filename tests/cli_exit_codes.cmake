# Runs gamma_cli on inputs it must reject and checks that it exits with
# the documented code rather than crashing:
#   2  the pattern compiler refused the task parameters (kInvalidArgument,
#      message on stderr);
#   1  the command line itself is malformed (usage error).
#
# Usage: cmake -DGAMMA_CLI=<path to gamma_cli> -P cli_exit_codes.cmake

function(expect_exit code stderr_regex)
  execute_process(COMMAND "${GAMMA_CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${code}")
    message(SEND_ERROR "gamma_cli ${ARGN}: exit '${rc}', want ${code}\n${err}")
  elseif(NOT err MATCHES "${stderr_regex}")
    message(SEND_ERROR
            "gamma_cli ${ARGN}: stderr does not match '${stderr_regex}':\n${err}")
  endif()
endfunction()

expect_exit(2 "INVALID_ARGUMENT: k-clique needs k >= 2" --task kcl --k 1)
expect_exit(2 "INVALID_ARGUMENT: motif census supports k in \\[2,5\\]"
            --task motif --k 7)
expect_exit(2 "INVALID_ARGUMENT: max_edges must be >= 1"
            --task fpm --fpm-edges 0)
expect_exit(1 "--k: missing or malformed value" --k abc)
expect_exit(1 "--k: missing or malformed value" --k)
