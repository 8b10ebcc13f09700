# Runs EXE once, keeps its stdout in LOG for the per-section smoke tests,
# echoes it, and fails if EXE exits non-zero (any failed claim exits 1).
#
#   cmake -DEXE=build/bench/bench_paper -DLOG=out.log -P bench_paper_smoke.cmake
file(REMOVE "${LOG}")
execute_process(COMMAND "${EXE}" OUTPUT_FILE "${LOG}" RESULT_VARIABLE rc)
execute_process(COMMAND "${CMAKE_COMMAND}" -E cat "${LOG}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
