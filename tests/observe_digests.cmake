# Runs gamma_cli --observe with seven documents over a fixed matrix of
# configurations and compares the SHA-256 of every document it writes
# with a checked-in manifest. A change meant to leave the observed output
# alone (a host-side speed-up, a refactor) must keep every digest; a
# deliberate schema or cost-model change regenerates the manifest and
# says so.
#
# Usage: cmake -DGAMMA_CLI=<path to gamma_cli> -DMANIFEST=<digest file>
#              [-DUPDATE=ON] -P observe_digests.cmake
# The documents land in ./observe_digests/<config>/ under the working
# directory. With UPDATE=ON the script rewrites MANIFEST from this
# gamma_cli's output instead of comparing.

cmake_minimum_required(VERSION 3.16)  # if(IN_LIST)

set(docs plan profile trace critpath metrics adaptivity planprof)
string(REPLACE ";" "," observe "${docs}")
set(root "${CMAKE_CURRENT_BINARY_DIR}/observe_digests")
file(REMOVE_RECURSE "${root}")
set(actual "")

# Runs one configuration and appends "<config> <doc> <sha256>" per
# document to `actual`.
function(observe config)
  set(dir "${root}/${config}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${GAMMA_CLI}" ${ARGN} --observe ${observe}
                          --out-dir "${dir}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(SEND_ERROR "gamma_cli ${ARGN}: exit '${rc}'\n${err}")
  endif()
  foreach(doc IN LISTS docs)
    set(digest missing)
    if(EXISTS "${dir}/${doc}.json")
      file(SHA256 "${dir}/${doc}.json" digest)
    endif()
    list(APPEND actual "${config} ${doc} ${digest}")
  endforeach()
  set(actual "${actual}" PARENT_SCOPE)
endfunction()

observe(cp-kcl4 --dataset CP --task kcl --k 4)
observe(cp-sm-q2 --dataset CP --task sm --query 2)
observe(cp-sm-q2-symmetric --dataset CP --task sm --query 2 --symmetric)
observe(cp-sm-q2-plan-auto --dataset CP --task sm --query 2 --plan-auto)
observe(cp-fpm --dataset CP --task fpm)
observe(cp-motif3 --dataset CP --task motif --k 3)
observe(cp-kcl4-streams2-threads2 --dataset CP --task kcl --k 4
        --streams 2 --host-threads 2)
observe(er-kcl3-trace16 --dataset ER --task kcl --k 3 --trace-capacity 16)

if(UPDATE)
  string(REPLACE ";" "\n" body "${actual}")
  file(WRITE "${MANIFEST}"
       "# SHA-256 of each gamma_cli --observe document, one line per\n"
       "# <config> <document> <digest>; tests/observe_digests.cmake names\n"
       "# the configurations. Regenerate with -DUPDATE=ON (see\n"
       "# docs/OBSERVABILITY.md) and record why in CHANGES.md.\n"
       "${body}\n")
  message(STATUS "wrote ${MANIFEST}")
  return()
endif()

file(STRINGS "${MANIFEST}" expected REGEX "^[^#]")
foreach(line IN LISTS actual)
  if(NOT line IN_LIST expected)
    message(SEND_ERROR "digest not in ${MANIFEST}: ${line}")
  endif()
endforeach()
foreach(line IN LISTS expected)
  if(NOT line IN_LIST actual)
    message(SEND_ERROR "manifest entry not reproduced: ${line}")
  endif()
endforeach()
