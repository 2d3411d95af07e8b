#include "src/trace/buffer.h"

#include <utility>

namespace tempo {

TraceBuffer::TraceBuffer(size_t capacity, const std::string& sink) : capacity_(capacity) {
  obs::Registry& registry = obs::Registry::Global();
  const obs::Labels labels = {{"sink", sink}};
  metric_logged_ = registry.GetCounter("trace_records_logged", labels,
                                       "Trace records accepted by the sink");
  metric_dropped_ = registry.GetCounter("trace_records_dropped", labels,
                                        "Trace records dropped by the sink on overflow");
  metric_charged_ = registry.GetCounter("trace_charged_cycles", labels,
                                        "CPU cycles charged for logging, by sink");
}

std::vector<TraceRecord> TraceBuffer::TakeRecords() {
  std::vector<TraceRecord> out = std::move(records_);
  records_.clear();
  dropped_ = 0;
  return out;
}

}  // namespace tempo
