# Rerun one shipped campaign with --quick and require its
# results.jsonl to match the committed golden file byte for byte.
#
#   cmake -DIATEXP=<iatexp> -DSPEC=<spec.exp> -DGOLDEN=<golden.jsonl>
#         -DOUT=<scratch dir> -P compare.cmake
#
# The records carry only simulator-derived numbers under per-trial
# seeds, so they are identical across runs, --jobs values and build
# types; any difference is a behaviour change. A deliberate one
# regenerates the golden file in the same change:
#
#   iatexp run experiments/<name>.exp --quick --out=DIR
#   cp DIR/results.jsonl tests/golden/<name>.jsonl

foreach(var IATEXP SPEC GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare.cmake: -D${var}= is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
execute_process(
    COMMAND "${IATEXP}" run "${SPEC}" --quick --jobs=2
            "--out=${OUT}" --no-progress
    RESULT_VARIABLE run_rc
    OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "iatexp run ${SPEC} failed (${run_rc})")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT}/results.jsonl" "${GOLDEN}"
    RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
        "${OUT}/results.jsonl differs from ${GOLDEN}; diff the two "
        "files to see which records changed")
endif()
