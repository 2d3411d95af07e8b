# Runs BENCH in quick mode and fails unless it exits 0 and the md5 of its
# stdout equals GOLDEN. The paper artifacts are byte-deterministic at
# their fixed seeds, so any change to what they print shows here. Invoked
# by ctest via
#   cmake -DBENCH=... -DGOLDEN=<md5> -P golden_stdout.cmake

get_filename_component(bench_name ${BENCH} NAME)
set(ENV{TEMPO_QUICK} 1)
unset(ENV{TEMPO_SMOKE})  # smoke mode would win over quick

execute_process(
  COMMAND ${BENCH}
  OUTPUT_VARIABLE stdout
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${bench_name} exited with status ${status}")
endif()
string(MD5 digest "${stdout}")
if(NOT digest STREQUAL GOLDEN)
  message(FATAL_ERROR "${bench_name} stdout md5 is ${digest}, golden ${GOLDEN}")
endif()
