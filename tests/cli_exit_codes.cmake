# Runs gamma_cli on inputs it must reject and checks that it exits with
# the documented code rather than crashing:
#   2  the pattern compiler refused the task parameters (kInvalidArgument,
#      message on stderr);
#   1  the command line itself is malformed (usage error, usage on stdout).
# Then checks that --observe writes every document it names.
#
# Usage: cmake -DGAMMA_CLI=<path to gamma_cli> -P cli_exit_codes.cmake

function(expect_exit code stderr_regex)
  execute_process(COMMAND "${GAMMA_CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${code}")
    message(SEND_ERROR "gamma_cli ${ARGN}: exit '${rc}', want ${code}\n${err}")
  elseif(NOT err MATCHES "${stderr_regex}")
    message(SEND_ERROR
            "gamma_cli ${ARGN}: stderr does not match '${stderr_regex}':\n${err}")
  elseif(code EQUAL 1 AND NOT out MATCHES "usage: gamma_cli")
    message(SEND_ERROR "gamma_cli ${ARGN}: exit 1 without usage")
  endif()
endfunction()

expect_exit(2 "INVALID_ARGUMENT: k-clique needs k >= 2" --task kcl --k 1)
expect_exit(2 "INVALID_ARGUMENT: motif census supports k in \\[2,5\\]"
            --task motif --k 7)
expect_exit(2 "INVALID_ARGUMENT: max_edges must be >= 1"
            --task fpm --fpm-edges 0)
expect_exit(2 "INVALID_ARGUMENT: max_edges must be <= 7"
            --task fpm --fpm-edges 8)
expect_exit(1 "--k: missing or malformed value" --k abc)
expect_exit(1 "--k: missing or malformed value" --k)
expect_exit(1 "unknown option: --trace-out" --trace-out x.json)
expect_exit(1 "--observe: missing or malformed value" --observe)
expect_exit(1 "--observe: missing or malformed value" --observe bogus)
expect_exit(1 "--warps wants N >= 1" --warps 0)
expect_exit(1 "--warps wants N >= 1" --warps -3)
expect_exit(1 "--host-threads wants N >= 1" --host-threads 0)
# One past the cap: a binary that lost it would start 256 threads, no more.
expect_exit(1 "--host-threads wants N <= 256" --host-threads 257)
expect_exit(1 "--host-threads: missing or malformed value"
            --host-threads 4294967297)
# device_mb << 20 would wrap: 2^44 MiB to a 0-byte device.
expect_exit(1 "--device-mb wants N < 2\\^44" --device-mb 17592186044416)
expect_exit(1 "--device-mb wants N < 2\\^44"
            --device-mb 18446744073709551615)
expect_exit(1 "--metrics-interval wants a finite N >= 0" --metrics-interval -5)
expect_exit(1 "--metrics-interval wants a finite N >= 0"
            --metrics-interval nan)
expect_exit(1 "--metrics-interval wants a finite N >= 0"
            --metrics-interval inf)
expect_exit(0 "" --task kcl --k 3 --metrics-interval 0)

set(names plan profile trace critpath metrics adaptivity planprof check)
string(REPLACE ";" "," list "${names}")
set(dir "${CMAKE_CURRENT_BINARY_DIR}/cli_observe")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
expect_exit(0 "" --task kcl --k 3 --observe ${list} --out-dir "${dir}")
foreach(name IN LISTS names)
  set(doc "${dir}/${name}.json")
  set(schema "\"gamma\\.${name}\\.v1\"")
  if(EXISTS "${doc}")
    file(STRINGS "${doc}" hit REGEX "${schema}" LIMIT_COUNT 1)
  endif()
  if(NOT hit)
    message(SEND_ERROR "--observe ${name}: ${doc} lacks ${schema}")
  endif()
  unset(hit)
endforeach()
