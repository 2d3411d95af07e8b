// The one harness behind every bench that writes a BENCH_*.json result.
//
// A bench takes its size from the run mode, declares every check that
// decides its exit status as a named Gate, sets its own measurements, and
// returns Finish(). Finish writes the result file with the same top level
// in every file -- "bench", "mode", "host", "gates", then the bench's own
// fields -- prints one line per gate, and returns the exit status: 1 if
// and only if some gate failed.
//
// The run mode is read from the environment here and nowhere else:
//   TEMPO_SMOKE=1  smoke, the per-PR ctest size (wins over TEMPO_QUICK)
//   TEMPO_QUICK=1  quick, the CI size
//   neither        full, the size committed results are recorded at
//
// The host block names what the numbers were measured on: hardware
// threads, and the build type and compiler CMake configured (compile
// definitions of the tempo_bench_harness target).

#ifndef TEMPO_BENCH_HARNESS_H_
#define TEMPO_BENCH_HARNESS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/json.h"

namespace tempo {
namespace bench {

enum class Mode { kFull, kQuick, kSmoke };

// The mode the two variables select; "1" sets a variable, anything else
// (or unset) does not.
inline Mode ModeFrom(const char* smoke, const char* quick) {
  auto on = [](const char* v) { return v != nullptr && v[0] == '1'; };
  return on(smoke) ? Mode::kSmoke : on(quick) ? Mode::kQuick : Mode::kFull;
}

// This process's mode, read from the environment once.
inline Mode RunMode() {
  static const Mode mode = ModeFrom(std::getenv("TEMPO_SMOKE"), std::getenv("TEMPO_QUICK"));
  return mode;
}

inline const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kFull:
      return "full";
    case Mode::kQuick:
      return "quick";
    case Mode::kSmoke:
      return "smoke";
  }
  return "full";
}

// One check with three outcomes. A skipped gate did not run its check on
// this machine or at this size, and says why; it is neither a pass nor a
// failure. An identity proof is a gate with no threshold.
struct Gate {
  enum class Status { kPass, kFail, kSkipped };

  Status status = Status::kFail;
  std::string reason;  // why it was skipped
  std::optional<double> threshold;
  std::optional<double> value;

  static Gate Check(bool ok) {
    Gate gate;
    gate.status = ok ? Status::kPass : Status::kFail;
    return gate;
  }
  // `ok` is whether `value` met `threshold`; the comparison is the bench's.
  static Gate Compare(bool ok, double threshold, double value) {
    Gate gate = Check(ok);
    gate.threshold = threshold;
    gate.value = value;
    return gate;
  }
  static Gate Skipped(std::string why) { return Gate().Skip(std::move(why)); }

  // Marks the gate skipped, keeping its threshold and value.
  Gate& Skip(std::string why) {
    status = Status::kSkipped;
    reason = std::move(why);
    return *this;
  }

  // "pass", "fail" or "skipped: <reason>".
  std::string StatusText() const {
    return status == Status::kPass   ? "pass"
           : status == Status::kFail ? "fail"
                                     : "skipped: " + reason;
  }
};

class Harness {
 public:
  // `bench` is the binary's name, `path` the result file it writes.
  Harness(std::string bench, std::string path, Mode mode = RunMode())
      : bench_(std::move(bench)), path_(std::move(path)), mode_(mode) {}

  Mode mode() const { return mode_; }
  bool smoke() const { return mode_ == Mode::kSmoke; }
  bool full() const { return mode_ == Mode::kFull; }

  // A field of the bench's own, written after the common top level.
  obs::JsonValue& Set(std::string key, obs::JsonValue value) {
    return fields_.Set(std::move(key), std::move(value));
  }

  // Gate names become the path gates.<name>.status, so they hold no '.'.
  void AddGate(std::string name, Gate gate) {
    gates_.emplace_back(std::move(name), std::move(gate));
  }

  // Writes the result file, prints one line per gate, and returns 1 if
  // any gate failed, else 0.
  int Finish() const {
    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("bench", bench_);
    doc.Set("mode", ModeName(mode_));
    obs::JsonValue& host = doc.Set("host", obs::JsonValue::Object());
    host.Set("nproc", std::thread::hardware_concurrency());
    host.Set("build_type", TEMPO_BUILD_TYPE);
    host.Set("compiler", TEMPO_COMPILER);
    obs::JsonValue& gates = doc.Set("gates", obs::JsonValue::Object());
    bool failed = false;
    for (const auto& [name, gate] : gates_) {
      obs::JsonValue& json = gates.Set(name, obs::JsonValue::Object());
      json.Set("status", gate.StatusText());
      if (gate.threshold.has_value()) {
        json.Set("threshold", *gate.threshold);
      }
      if (gate.value.has_value()) {
        json.Set("value", *gate.value);
      }
      std::printf("gate %s: %s", name.c_str(), gate.StatusText().c_str());
      if (gate.threshold.has_value() && gate.value.has_value()) {
        std::printf(" (value %g, threshold %g)", *gate.value, *gate.threshold);
      }
      std::printf("\n");
      failed = failed || gate.status == Gate::Status::kFail;
    }
    for (const auto& [key, value] : fields_.members) {
      doc.Set(key, value);
    }
    const std::string text = obs::WriteJson(doc);
    std::FILE* out = std::fopen(path_.c_str(), "w");
    const bool written = out != nullptr &&
                         std::fwrite(text.data(), 1, text.size(), out) == text.size();
    if (out == nullptr || std::fclose(out) != 0 || !written) {
      std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
    } else {
      std::printf("wrote %s\n", path_.c_str());
    }
    return failed ? 1 : 0;
  }

 private:
  std::string bench_;
  std::string path_;
  Mode mode_;
  obs::JsonValue fields_ = obs::JsonValue::Object();
  std::vector<std::pair<std::string, Gate>> gates_;
};

}  // namespace bench
}  // namespace tempo

#endif  // TEMPO_BENCH_HARNESS_H_
