// tempotrace — exports a recorded trace as Chrome trace-event JSON, the
// format the Perfetto UI (ui.perfetto.dev) and chrome://tracing open
// directly. One "X" duration span per pending-timer interval (set ->
// expire/cancel/re-arm), an "i" instant per cancellation, and two counter
// tracks: live-timer depth at every transition and windowed firing-slack
// p99. Reads either trace format (v2/v3).
//
// --check re-reads the written file through the strict JSON reader
// (src/obs/json.h) and verifies the trace-event schema (pid/tid/ts/ph on
// every event, dur on every complete event), so a ctest can gate "the
// export actually opens".

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/latency.h"
#include "src/analysis/lifetimes.h"
#include "src/obs/json.h"
#include "src/sim/time.h"
#include "src/trace/file.h"
#include "tools/common.h"

namespace tempo {
namespace {

// Microseconds with nanosecond precision — the trace-event clock unit.
std::string Us(SimTime ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

const char* EndName(EpisodeEnd end) {
  switch (end) {
    case EpisodeEnd::kExpired:
      return "expired";
    case EpisodeEnd::kCanceled:
      return "canceled";
    case EpisodeEnd::kReset:
      return "re-armed";
    case EpisodeEnd::kOpen:
      return "open";
  }
  return "?";
}

struct Event {
  SimTime ts = 0;    // sort key; the emitted ts is Us(ts)
  uint64_t seq = 0;  // insertion order breaks ts ties deterministically
  std::string body;  // complete JSON object
};

// Validates the written file against the trace-event schema: a top-level
// object with a non-empty traceEvents array whose every element carries
// numeric pid/tid/ts and a string ph, and whose complete ("X") events
// carry a numeric dur. Returns an empty string on success, else the first
// violation.
std::string ValidateTraceEventFile(const std::string& path) {
  using obs::JsonValue;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return "cannot open " + path;
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(f);

  JsonValue root;
  std::string error;
  if (!obs::ParseJson(bytes, &root, &error)) {
    return "malformed JSON: " + error;
  }
  if (root.kind != JsonValue::Kind::kObject) {
    return "top level is not an object";
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return "missing traceEvents array";
  }
  if (events->items.empty()) {
    return "traceEvents is empty";
  }
  for (size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& e = events->items[i];
    char where[64];
    std::snprintf(where, sizeof(where), "traceEvents[%zu]", i);
    if (e.kind != JsonValue::Kind::kObject) {
      return std::string(where) + " is not an object";
    }
    for (const char* field : {"pid", "tid", "ts"}) {
      const JsonValue* v = e.Find(field);
      if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
        return std::string(where) + " lacks numeric " + field;
      }
    }
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString || ph->text.size() != 1) {
      return std::string(where) + " lacks one-char ph";
    }
    if (ph->text == "X") {
      const JsonValue* dur = e.Find("dur");
      if (dur == nullptr || dur->kind != JsonValue::Kind::kNumber) {
        return std::string(where) + " is complete (X) but lacks numeric dur";
      }
    }
  }
  return "";
}

int Run(int argc, char** argv) {
  static const tools::FlagSpec kFlags[] = {
      {"window-ms", 1, "N", "slack-p99 counter window (default 1000)"},
      {"check", 0, "", "re-read the output and validate the event schema"},
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok() || args.positionals().empty() || args.positionals().size() > 2) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<trace-file> [out.json]", kFlags,
                      "Exports Chrome trace-event / Perfetto JSON.\n"
                      "Default output: <trace-file>.json\n");
    return 2;
  }
  const std::string& path = args.positionals()[0];
  const std::string out_path =
      args.positionals().size() > 1 ? args.positionals()[1] : path + ".json";
  const SimDuration window =
      FromMilliseconds(static_cast<double>(args.UintValue("window-ms", 1000)));
  if (window <= 0) {
    std::fprintf(stderr, "error: --window-ms must be positive\n");
    return 2;
  }

  TraceReadError read_error = TraceReadError::kIo;
  auto trace = ReadTraceFile(path, &read_error);
  if (!trace.has_value()) {
    tools::PrintTraceReadError(path, read_error);
    return 1;
  }

  const std::vector<Episode> episodes = BuildEpisodes(trace->records);

  std::vector<Event> events;
  events.reserve(episodes.size() * 3);
  uint64_t seq = 0;
  auto add = [&](SimTime ts, std::string body) {
    events.push_back(Event{ts, seq++, std::move(body)});
  };

  // Process/thread names so the Perfetto track labels read like the
  // workload, not like bare ids.
  std::map<Pid, bool> pids_seen;
  for (const Episode& e : episodes) {
    if (pids_seen.emplace(e.pid, true).second) {
      char body[128];
      std::snprintf(body, sizeof(body),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                    "\"ts\":0,\"args\":{\"name\":\"%s\"}}",
                    e.pid, e.pid == kKernelPid ? "kernel" : "process");
      add(0, body);
    }
  }

  std::map<SimTime, int64_t> depth_delta;
  std::map<int64_t, SlackHist> window_slack;  // window index -> fired slacks
  for (const Episode& e : episodes) {
    const std::string name = obs::JsonEscape(trace->callsites.Name(e.callsite));
    std::string body = "{\"name\":\"" + name + "\",\"cat\":\"timer\",\"ph\":\"X\"";
    char fixed[256];
    std::snprintf(fixed, sizeof(fixed),
                  ",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s", e.pid, e.tid,
                  Us(e.set_time).c_str(), Us(e.end_time - e.set_time).c_str());
    body += fixed;
    const SimTime requested = e.set_time + (e.timeout > 0 ? e.timeout : 0);
    char arg[256];
    std::snprintf(arg, sizeof(arg),
                  ",\"args\":{\"timer\":%" PRIu64 ",\"timeout_ms\":%.6f,\"end\":\"%s\"",
                  e.timer, ToMilliseconds(e.timeout), EndName(e.end));
    body += arg;
    if (e.end == EpisodeEnd::kExpired) {
      const uint64_t slack =
          e.end_time > requested ? static_cast<uint64_t>(e.end_time - requested) : 0;
      std::snprintf(arg, sizeof(arg), ",\"slack_ms\":%.6f",
                    ToMilliseconds(static_cast<SimDuration>(slack)));
      body += arg;
      window_slack[e.end_time / window].Record(slack);
    }
    body += "}}";
    add(e.set_time, std::move(body));

    if (e.end == EpisodeEnd::kCanceled) {
      char inst[256];
      std::snprintf(inst, sizeof(inst),
                    "{\"name\":\"cancel %s\",\"cat\":\"timer\",\"ph\":\"i\",\"s\":\"t\","
                    "\"pid\":%d,\"tid\":%d,\"ts\":%s}",
                    name.c_str(), e.pid, e.tid, Us(e.end_time).c_str());
      add(e.end_time, inst);
    }

    depth_delta[e.set_time] += 1;
    depth_delta[e.end_time] -= 1;
  }

  int64_t depth = 0;
  for (const auto& [ts, delta] : depth_delta) {
    depth += delta;
    char body[192];
    std::snprintf(body, sizeof(body),
                  "{\"name\":\"live_timers\",\"ph\":\"C\",\"pid\":0,\"tid\":0,"
                  "\"ts\":%s,\"args\":{\"pending\":%" PRId64 "}}",
                  Us(ts).c_str(), depth);
    add(ts, body);
  }

  if (!window_slack.empty()) {
    const int64_t first = window_slack.begin()->first;
    const int64_t last = window_slack.rbegin()->first;
    for (int64_t w = first; w <= last; ++w) {
      const auto it = window_slack.find(w);
      const double p99 = it == window_slack.end() ? 0.0 : it->second.Quantile(0.99);
      char body[192];
      std::snprintf(body, sizeof(body),
                    "{\"name\":\"slack_p99\",\"ph\":\"C\",\"pid\":0,\"tid\":0,"
                    "\"ts\":%s,\"args\":{\"ms\":%.6f}}",
                    Us(w * window).c_str(), ToMilliseconds(static_cast<SimDuration>(p99)));
      add(w * window, body);
    }
  }

  std::stable_sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    return x.ts != y.ts ? x.ts < y.ts : x.seq < y.seq;
  });

  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (size_t i = 0; i < events.size(); ++i) {
    std::fputs(events[i].body.c_str(), out);
    std::fputs(i + 1 == events.size() ? "\n" : ",\n", out);
  }
  std::fputs("]}\n", out);
  std::fclose(out);

  std::fprintf(stderr, "%s: %zu events (%zu spans) -> %s\n", path.c_str(), events.size(),
               episodes.size(), out_path.c_str());

  if (args.Has("check")) {
    const std::string violation = ValidateTraceEventFile(out_path);
    if (!violation.empty()) {
      std::fprintf(stderr, "error: schema check failed: %s\n", violation.c_str());
      return 1;
    }
    std::fprintf(stderr, "schema check ok\n");
  }
  return 0;
}

}  // namespace
}  // namespace tempo

int main(int argc, char** argv) { return tempo::Run(argc, argv); }
