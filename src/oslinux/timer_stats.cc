#include "src/oslinux/timer_stats.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace tempo {

void TimerStatsCollector::Enable(SimTime now) {
  begin_ = now;
  end_ = kNeverTime;
  last_time_ = now;
  total_ = 0;
  counts_.clear();
}

void TimerStatsCollector::Disable(SimTime now) {
  if (!enabled()) {
    return;
  }
  end_ = now;
  last_time_ = now;
}

void TimerStatsCollector::Fold(std::span<const TraceRecord> records) {
  for (const TraceRecord& record : records) {
    if (record.timestamp < begin_ || record.timestamp > end_) {
      continue;
    }
    last_time_ = std::max(last_time_, record.timestamp);
    if (record.op == TimerOp::kSet || record.op == TimerOp::kBlock) {
      ++total_;
      ++counts_[{record.callsite, record.pid}];
    }
  }
}

std::vector<TimerStatsCollector::Row> TimerStatsCollector::Rows() const {
  std::vector<Row> rows;
  rows.reserve(counts_.size());
  for (const auto& [key, count] : counts_) {
    rows.push_back(Row{count, key.second, key.first});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.count != b.count) {
      return a.count > b.count;
    }
    return a.callsite < b.callsite;
  });
  return rows;
}

std::string TimerStatsCollector::Report(const CallsiteRegistry& callsites) const {
  std::ostringstream out;
  out << "Timer Stats Version: v0.2 (tempo)\n";
  char header[64];
  std::snprintf(header, sizeof(header), "Sample period: %.3f s\n",
                ToSeconds(sample_period()));
  out << header;
  for (const Row& row : Rows()) {
    char line[192];
    std::snprintf(line, sizeof(line), "%10llu, %5d %s\n",
                  static_cast<unsigned long long>(row.count), row.pid,
                  callsites.Name(row.callsite).c_str());
    out << line;
  }
  out << total_ << " total events\n";
  return out.str();
}

}  // namespace tempo
