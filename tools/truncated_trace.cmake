# Copies TRACE_FILE minus its last 17 bytes (the trailer and part of the
# index footer), runs TOOL over the copy, and fails unless TOOL exits
# non-zero and names the damage "truncated file" on stderr. Invoked by
# ctest via
#   cmake -DTOOL=... -DTRACE_FILE=... -DOUT_DIR=... -P truncated_trace.cmake

set(CUT_BYTES 17)
get_filename_component(tool_name ${TOOL} NAME_WE)
set(cut "${OUT_DIR}/${tool_name}_truncated.trc")

file(SIZE ${TRACE_FILE} size)
math(EXPR keep "${size} - ${CUT_BYTES}")
execute_process(
  COMMAND head -c ${keep} ${TRACE_FILE}
  OUTPUT_FILE ${cut}
  RESULT_VARIABLE cut_status)
if(NOT cut_status EQUAL 0)
  message(FATAL_ERROR "cannot write the truncated copy ${cut}")
endif()

execute_process(
  COMMAND ${TOOL} ${cut}
  OUTPUT_QUIET
  ERROR_VARIABLE stderr
  RESULT_VARIABLE status)
file(REMOVE ${cut})
if(status EQUAL 0)
  message(FATAL_ERROR "${tool_name} accepted ${TRACE_FILE} cut by ${CUT_BYTES} bytes")
endif()
if(NOT stderr MATCHES "truncated file")
  message(FATAL_ERROR "${tool_name} did not report a truncated file:\n${stderr}")
endif()
