# Runs TOOL over TRACE_FILE with --jobs 1 and --jobs 4 and fails unless
# the reports are byte-identical — the ordered-merge guarantee, checked
# end to end through the real tool. Invoked by ctest via
#   cmake -DTOOL=... -DTRACE_FILE=... -DOUT_DIR=... -DCASE=...
#         [-DTOOL_ARGS=arg1;arg2;...] -P compare_jobs.cmake
# TOOL_ARGS are extra tool arguments (a CMake ;-list); CASE names the
# trace format (v2, v3) in the report file names.

get_filename_component(tool_name ${TOOL} NAME_WE)

set(serial "${OUT_DIR}/${tool_name}_${CASE}_jobs1.txt")
set(parallel "${OUT_DIR}/${tool_name}_${CASE}_jobs4.txt")

execute_process(
  COMMAND ${TOOL} ${TRACE_FILE} --jobs 1 ${TOOL_ARGS}
  OUTPUT_FILE ${serial}
  RESULT_VARIABLE serial_status)
if(NOT serial_status EQUAL 0)
  message(FATAL_ERROR "${tool_name} --jobs 1 failed with status ${serial_status}")
endif()

execute_process(
  COMMAND ${TOOL} ${TRACE_FILE} --jobs 4 ${TOOL_ARGS}
  OUTPUT_FILE ${parallel}
  RESULT_VARIABLE parallel_status)
if(NOT parallel_status EQUAL 0)
  message(FATAL_ERROR "${tool_name} --jobs 4 failed with status ${parallel_status}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${serial} ${parallel}
  RESULT_VARIABLE diff_status)
if(NOT diff_status EQUAL 0)
  message(FATAL_ERROR
          "${tool_name} output differs between --jobs 1 and --jobs 4 for ${TRACE_FILE}")
endif()
