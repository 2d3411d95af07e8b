#include "src/analysis/query.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/obs/snapshot.h"
#include "src/sim/time.h"

namespace tempo {

namespace {

// Rows sorted for rendering: count descending, key ascending on ties —
// a total order, so parallel and serial runs render identically.
std::vector<std::pair<uint64_t, QueryGroup>> SortedRows(
    const std::map<uint64_t, QueryGroup>& groups, size_t top_k) {
  std::vector<std::pair<uint64_t, QueryGroup>> rows(groups.begin(), groups.end());
  std::sort(rows.begin(), rows.end(),
            [](const std::pair<uint64_t, QueryGroup>& a,
               const std::pair<uint64_t, QueryGroup>& b) {
              if (a.second.records != b.second.records) {
                return a.second.records > b.second.records;
              }
              return a.first < b.first;
            });
  if (top_k > 0 && rows.size() > top_k) {
    rows.resize(top_k);
  }
  return rows;
}

}  // namespace

uint64_t QueryPass::KeyFor(const TraceRecord& r) const {
  switch (options_.group_by) {
    case QueryGroupBy::kNone:
      return 0;
    case QueryGroupBy::kCallsite:
      return r.callsite;
    case QueryGroupBy::kPid:
      return static_cast<uint64_t>(static_cast<uint32_t>(r.pid));
    case QueryGroupBy::kOp:
      return static_cast<uint64_t>(r.op);
  }
  return 0;
}

std::string QueryPass::KeyName(uint64_t key) const {
  char buf[32];
  switch (options_.group_by) {
    case QueryGroupBy::kNone:
      return "total";
    case QueryGroupBy::kCallsite:
      if (callsites_ != nullptr) {
        return callsites_->Name(static_cast<CallsiteId>(key));
      }
      std::snprintf(buf, sizeof(buf), "callsite:%" PRIu64, key);
      return buf;
    case QueryGroupBy::kPid:
      std::snprintf(buf, sizeof(buf), "pid:%" PRIu64, key);
      return buf;
    case QueryGroupBy::kOp:
      return TimerOpName(static_cast<TimerOp>(key));
  }
  return "?";
}

std::unique_ptr<AnalysisPass> QueryPass::Fork() const {
  return std::make_unique<QueryPass>(options_, callsites_);
}

void QueryPass::Accumulate(std::span<const TraceRecord> records) {
  scanned_ += records.size();
  for (const TraceRecord& r : records) {
    if (!options_.predicate.Matches(r)) {
      continue;
    }
    ++matched_;
    QueryGroup& group = groups_[KeyFor(r)];
    if (group.records == 0) {
      group.first = r.timestamp;
      group.last = r.timestamp;
    } else {
      group.first = std::min(group.first, r.timestamp);
      group.last = std::max(group.last, r.timestamp);
    }
    ++group.records;
    if (r.op == TimerOp::kSet) {
      ++group.sets;
      group.timeout_sum += static_cast<uint64_t>(r.timeout);
    }
  }
}

void QueryPass::Merge(AnalysisPass&& other) {
  QueryPass& rhs = dynamic_cast<QueryPass&>(other);
  scanned_ += rhs.scanned_;
  matched_ += rhs.matched_;
  for (const auto& [key, theirs] : rhs.groups_) {
    QueryGroup& group = groups_[key];
    if (group.records == 0) {
      group = theirs;
      continue;
    }
    group.records += theirs.records;
    group.sets += theirs.sets;
    group.timeout_sum += theirs.timeout_sum;
    group.first = std::min(group.first, theirs.first);
    group.last = std::max(group.last, theirs.last);
  }
}

void QueryPass::Render(RenderSink& sink) {
  std::string text = "query:\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  matched %" PRIu64 " of %" PRIu64 " scanned records\n", matched_,
                scanned_);
  text += line;
  for (const auto& [key, group] : SortedRows(groups_, options_.top_k)) {
    std::snprintf(line, sizeof(line),
                  "  %-28s %10" PRIu64 " records %10" PRIu64 " sets  [%s, %s]\n",
                  KeyName(key).c_str(), group.records, group.sets,
                  FormatDuration(group.first).c_str(),
                  FormatDuration(group.last).c_str());
    text += line;
  }
  sink.Section("query", text);
}

std::string QueryPass::RenderJson() const {
  std::string out = "{\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  \"matched\": %" PRIu64 ",\n  \"scanned\": %" PRIu64
                ",\n  \"rows\": [",
                matched_, scanned_);
  out += line;
  bool first_row = true;
  for (const auto& [key, group] : SortedRows(groups_, options_.top_k)) {
    out += first_row ? "\n" : ",\n";
    first_row = false;
    // Call-site names come from the trace file: escape them, and keep them
    // out of the fixed-size `line`, which only has room for the numbers.
    out += "    {\"key\": \"" + obs::JsonEscape(KeyName(key)) + "\"";
    std::snprintf(line, sizeof(line),
                  ", \"records\": %" PRIu64 ", \"sets\": %" PRIu64
                  ", \"timeout_sum_ns\": %" PRIu64 ", \"first_ns\": %lld"
                  ", \"last_ns\": %lld}",
                  group.records, group.sets, group.timeout_sum,
                  static_cast<long long>(group.first), static_cast<long long>(group.last));
    out += line;
  }
  out += first_row ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace tempo
