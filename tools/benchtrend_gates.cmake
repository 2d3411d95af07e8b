# Runs benchtrend --format json over the committed BENCH_*.json files and
# fails unless it lists exactly EXPECTED_GATES gates, so a gate that a
# bench stops writing (or writes outside "gates") fails the suite.
# Invoked by ctest via
#   cmake -DTOOL=... -DEXPECTED_GATES=N "-DFILES=a.json;b.json" -P benchtrend_gates.cmake

execute_process(
  COMMAND ${TOOL} ${FILES} --format json
  OUTPUT_VARIABLE json
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "benchtrend exited with ${status}")
endif()
string(JSON gates LENGTH "${json}" gates)
if(NOT gates EQUAL EXPECTED_GATES)
  message(FATAL_ERROR "benchtrend lists ${gates} gates, want ${EXPECTED_GATES}")
endif()
