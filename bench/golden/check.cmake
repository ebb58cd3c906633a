# Golden-output check for one paper-table bench.
#
#   cmake -DBENCH=<path to bench exe> -DGOLDEN=<bench/golden dir>
#         -DWORK=<scratch dir> -P check.cmake
#
# Runs the bench in WORK (the benches write BENCH_<name>.jsonl into their
# working directory) and compares its stdout and its JSONL rows byte for
# byte with <GOLDEN>/<exe name>.stdout and <GOLDEN>/<exe name>.jsonl.
# After an intended change to a table, copy the two files from WORK over
# the golden ones and say why in the commit.

get_filename_component(name "${BENCH}" NAME)
string(REGEX REPLACE "^bench_" "" stem "${name}")

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(
  COMMAND "${BENCH}"
  WORKING_DIRECTORY "${WORK}"
  OUTPUT_FILE "${WORK}/${name}.stdout"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name} exited with ${rc}")
endif()
file(RENAME "${WORK}/BENCH_${stem}.jsonl" "${WORK}/${name}.jsonl")

set(failed "")
foreach(ext stdout jsonl)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${GOLDEN}/${name}.${ext}" "${WORK}/${name}.${ext}"
    RESULT_VARIABLE differs)
  if(differs)
    execute_process(COMMAND diff -u "${GOLDEN}/${name}.${ext}"
                                    "${WORK}/${name}.${ext}")
    list(APPEND failed "${name}.${ext}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "differs from bench/golden: ${failed}")
endif()
