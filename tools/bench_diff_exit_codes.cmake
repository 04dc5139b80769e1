# CMake script behind the bench_diff.exit_codes ctest: runs
# nvo_bench_diff over the fixtures in tests/data/bench_diff and
# requires each documented exit code — 0 on equal files, 1 on a
# regression, 2 on a config mismatch or a malformed --threshold.
#
# Inputs: -DNVO_BENCH_DIFF=<nvo_bench_diff> -DDATA_DIR=<fixture dir>

foreach(var NVO_BENCH_DIFF DATA_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR
            "bench_diff_exit_codes.cmake: -D${var}=... is required")
    endif()
endforeach()

function(expect_exit want)
    execute_process(
        COMMAND "${NVO_BENCH_DIFF}" ${ARGN}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL want)
        message(FATAL_ERROR
            "nvo_bench_diff ${ARGN}: expected exit ${want}, got "
            "rc=${rc}\nstdout:\n${out}\nstderr:\n${err}")
    endif()
endfunction()

set(base "${DATA_DIR}/base.json")
expect_exit(0 "${base}" "${base}")
expect_exit(1 "${base}" "${DATA_DIR}/regressed.json")
expect_exit(2 "${base}" "${DATA_DIR}/ops_mismatch.json")
expect_exit(2 --threshold abc "${base}" "${base}")
expect_exit(2 --threshold -1 "${base}" "${base}")
