# Writes a file of one million '[' and runs TOOL over it: the reader must
# refuse it as "not valid JSON" with exit status 1, not overflow its stack.
# Invoked by ctest via
#   cmake -DTOOL=... -DOUT_DIR=... -P deep_json.cmake

get_filename_component(tool_name ${TOOL} NAME_WE)
set(deep "${OUT_DIR}/${tool_name}_deep.json")
string(REPEAT "[" 1000000 brackets)
file(WRITE ${deep} "${brackets}")

execute_process(
  COMMAND ${TOOL} ${deep}
  OUTPUT_QUIET
  ERROR_VARIABLE stderr
  RESULT_VARIABLE status)
file(REMOVE ${deep})
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "${tool_name} exited with '${status}' on 1M nested arrays, want 1")
endif()
if(NOT stderr MATCHES "not valid JSON")
  message(FATAL_ERROR "${tool_name} did not report invalid JSON:\n${stderr}")
endif()
