// benchtrend — aggregates the committed BENCH_*.json result files into one
// table, so a reviewer (or CI) can read every benchmark's headline numbers
// in one place and spot a regression across commits without re-running the
// benches. Scalar fields are flattened with dotted paths ("host.nproc",
// "runs[2].speedup"); every "gates.<name>.status" is a gate, and skipped
// gates are warned about. Fields carrying a paper reference value (their name
// contains "paper") are marked, since those are the numbers the repo is
// trying to reproduce.
//
// Exit status: 0 when every input parsed, 1 when any file is missing or
// not valid JSON (CI runs this over the committed BENCH files, so a
// corrupt or hand-mangled result file fails the build), 2 for usage
// errors.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.h"
#include "tools/common.h"

namespace tempo {
namespace {

struct FlatValue {
  std::string path;
  std::string value;  // rendered scalar
  bool is_string = false;
};

// Flattens `v` into scalar leaves with dotted paths, in document order.
// Empty containers contribute nothing.
void Flatten(const obs::JsonValue& v, const std::string& path, std::vector<FlatValue>* out) {
  switch (v.kind) {
    case obs::JsonValue::Kind::kObject:
      for (const auto& [key, member] : v.members) {
        Flatten(member, path.empty() ? key : path + "." + key, out);
      }
      return;
    case obs::JsonValue::Kind::kArray:
      for (size_t i = 0; i < v.items.size(); ++i) {
        Flatten(v.items[i], path + "[" + std::to_string(i) + "]", out);
      }
      return;
    case obs::JsonValue::Kind::kString:
      out->push_back({path, v.text, true});
      return;
    case obs::JsonValue::Kind::kNumber:
      out->push_back({path, v.text, false});
      return;
    case obs::JsonValue::Kind::kBool:
      out->push_back({path, v.boolean ? "true" : "false", false});
      return;
    case obs::JsonValue::Kind::kNull:
      out->push_back({path, "null", false});
      return;
  }
}

bool IsPaperRef(const std::string& path) {
  return path.find("paper") != std::string::npos;
}

// A gate status field: "gates.<name>.status", where every bench result
// file (bench/harness.h) keeps every gate.
bool IsGateStatus(const std::string& path) {
  constexpr std::string_view kPrefix = "gates.";
  constexpr std::string_view kSuffix = ".status";
  if (path.size() <= kPrefix.size() + kSuffix.size() || !path.starts_with(kPrefix) ||
      !path.ends_with(kSuffix)) {
    return false;
  }
  const std::string_view name(path.data() + kPrefix.size(),
                              path.size() - kPrefix.size() - kSuffix.size());
  return name.find_first_of(".[") == std::string_view::npos;
}

// Gates report "pass", "fail", or "skipped[: reason]" — a gate whose
// precondition did not hold on this machine (too few cores, say). Skipped
// is an explicit third state: not a pass, not a failure, loudly marked so
// nobody mistakes an unexercised gate for a green one.
enum class GateState { kPass, kFail, kSkipped };

GateState ClassifyGate(const std::string& status) {
  if (status == "pass") {
    return GateState::kPass;
  }
  if (status.compare(0, 7, "skipped") == 0) {
    return GateState::kSkipped;
  }
  return GateState::kFail;
}

const char* GateStateName(GateState state) {
  switch (state) {
    case GateState::kPass:
      return "pass";
    case GateState::kFail:
      return "fail";
    case GateState::kSkipped:
      return "skipped";
  }
  return "fail";
}

}  // namespace
}  // namespace tempo

int main(int argc, char** argv) {
  using namespace tempo;
  static const tools::FlagSpec kFlags[] = {
      {"format", 1, "text|json", "output format (default text)"},
  };
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok() || args.positionals().empty()) {
    if (!args.ok()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    tools::PrintUsage(stderr, argv[0], "<BENCH_*.json>...", kFlags);
    return 2;
  }
  tools::OutputFormat format = tools::OutputFormat::kText;
  if (!tools::ParseFormatName(args.Value("format", 0, "text"), &format)) {
    std::fprintf(stderr, "error: unknown format %s\n",
                 args.Value("format").c_str());
    return 2;
  }

  struct Bench {
    std::string file;
    std::vector<FlatValue> values;
  };
  std::vector<Bench> benches;
  int rc = 0;
  for (const std::string& path : args.positionals()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      rc = 1;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    obs::JsonValue root;
    std::string error;
    if (!obs::ParseJson(text, &root, &error)) {
      std::fprintf(stderr, "error: %s is not valid JSON: %s\n", path.c_str(), error.c_str());
      rc = 1;
      continue;
    }
    Bench bench;
    bench.file = path;
    Flatten(root, "", &bench.values);
    benches.push_back(std::move(bench));
  }

  // Every gate across the inputs, with skipped ones warned about on
  // stderr: skipping is legitimate (exit stays 0) but never silent.
  struct Gate {
    std::string file;
    std::string path;
    GateState state;
    std::string status;
  };
  std::vector<Gate> gates;
  for (const Bench& bench : benches) {
    for (const FlatValue& v : bench.values) {
      if (v.is_string && IsGateStatus(v.path)) {
        gates.push_back({bench.file, v.path, ClassifyGate(v.value), v.value});
      }
    }
  }
  for (const Gate& gate : gates) {
    if (gate.state == GateState::kSkipped) {
      std::fprintf(stderr, "warning: %s: gate %s SKIPPED (%s)\n",
                   gate.file.c_str(), gate.path.c_str(), gate.status.c_str());
    }
  }

  if (format == tools::OutputFormat::kJson) {
    std::string out = "{\"benches\":[";
    for (size_t i = 0; i < benches.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += "{\"file\":\"" + obs::JsonEscape(benches[i].file) + "\",\"values\":{";
      for (size_t j = 0; j < benches[i].values.size(); ++j) {
        const FlatValue& v = benches[i].values[j];
        if (j > 0) {
          out += ",";
        }
        out += "\"" + obs::JsonEscape(v.path) + "\":";
        out += v.is_string ? "\"" + obs::JsonEscape(v.value) + "\"" : v.value;
      }
      out += "}}";
    }
    out += "],\"gates\":[";
    for (size_t i = 0; i < gates.size(); ++i) {
      const Gate& gate = gates[i];
      if (i > 0) {
        out += ",";
      }
      out += "{\"file\":\"" + obs::JsonEscape(gate.file) + "\",\"path\":\"" +
             obs::JsonEscape(gate.path) + "\",\"state\":\"" + GateStateName(gate.state) +
             "\",\"status\":\"" + obs::JsonEscape(gate.status) + "\"}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
  } else {
    std::printf("benchtrend: %zu bench file%s\n", benches.size(),
                benches.size() == 1 ? "" : "s");
    for (const Bench& bench : benches) {
      std::printf("\n%s\n", bench.file.c_str());
      size_t width = 0;
      for (const FlatValue& v : bench.values) {
        width = std::max(width, v.path.size());
      }
      for (const FlatValue& v : bench.values) {
        const bool skipped = v.is_string && IsGateStatus(v.path) &&
                             ClassifyGate(v.value) == GateState::kSkipped;
        std::printf("  %-*s = %s%s%s\n", static_cast<int>(width), v.path.c_str(),
                    v.value.c_str(), IsPaperRef(v.path) ? "   [paper]" : "",
                    skipped ? "   [SKIPPED]" : "");
      }
    }
    size_t skipped = 0;
    for (const Gate& gate : gates) {
      skipped += gate.state == GateState::kSkipped ? 1 : 0;
    }
    if (!gates.empty()) {
      std::printf("\ngates: %zu total, %zu skipped\n", gates.size(), skipped);
    }
  }
  return rc;
}
