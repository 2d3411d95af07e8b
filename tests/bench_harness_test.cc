// The bench harness (bench/harness.h): mode precedence, the three gate
// states, the exit status, and the result file read back through the one
// JSON reader.

#include "bench/harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "src/obs/json.h"

namespace tempo {
namespace bench {
namespace {

std::string TempPath(const std::string& name) { return ::testing::TempDir() + name; }

obs::JsonValue ReadBack(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::JsonValue root;
  std::string error;
  EXPECT_TRUE(obs::ParseJson(buf.str(), &root, &error)) << error;
  return root;
}

TEST(BenchHarnessTest, SmokeBeatsQuick) {
  EXPECT_EQ(ModeFrom("1", "1"), Mode::kSmoke);
  EXPECT_EQ(ModeFrom("1", nullptr), Mode::kSmoke);
  EXPECT_EQ(ModeFrom(nullptr, "1"), Mode::kQuick);
  EXPECT_EQ(ModeFrom("0", "1"), Mode::kQuick);
  EXPECT_EQ(ModeFrom(nullptr, nullptr), Mode::kFull);
  EXPECT_EQ(ModeFrom("", "0"), Mode::kFull);
}

TEST(BenchHarnessTest, ExitIsOneIfAndOnlyIfSomeGateFails) {
  const std::string path = TempPath("harness_exit.json");
  Harness none("micro_none", path, Mode::kFull);
  EXPECT_EQ(none.Finish(), 0);

  Harness green("micro_green", path, Mode::kFull);
  green.AddGate("identity", Gate::Check(true));
  green.AddGate("scaling", Gate::Compare(false, 2.0, 1.5).Skip("only 1 hardware threads"));
  EXPECT_EQ(green.Finish(), 0);

  Harness red("micro_red", path, Mode::kFull);
  red.AddGate("identity", Gate::Check(true));
  red.AddGate("speedup", Gate::Compare(false, 3.0, 2.6));
  red.AddGate("other", Gate::Skipped("smoke run"));
  EXPECT_EQ(red.Finish(), 1);
  std::remove(path.c_str());
}

TEST(BenchHarnessTest, FileHasTheCommonTopLevelAndGatePaths) {
  const std::string path = TempPath("harness_file.json");
  Harness harness("micro_example", path, Mode::kQuick);
  harness.AddGate("identity", Gate::Check(true));
  harness.AddGate("speedup", Gate::Compare(true, 3.0, 3.5));
  harness.AddGate("scaling", Gate::Compare(false, 2.0, 1.0).Skip("only 1 hardware threads"));
  harness.Set("records", 1000);
  harness.Set("runs", obs::JsonValue::Array()).Push(obs::JsonValue::Object()).Set("jobs", 4);
  EXPECT_EQ(harness.Finish(), 0);

  const obs::JsonValue root = ReadBack(path);
  ASSERT_EQ(root.members.size(), 6u);
  EXPECT_EQ(root.members[0].first, "bench");
  EXPECT_EQ(root.members[0].second.text, "micro_example");
  EXPECT_EQ(root.members[1].first, "mode");
  EXPECT_EQ(root.members[1].second.text, "quick");
  EXPECT_EQ(root.members[2].first, "host");
  EXPECT_EQ(root.members[3].first, "gates");
  EXPECT_EQ(root.members[4].first, "records");
  EXPECT_EQ(root.members[5].first, "runs");
  const obs::JsonValue& host = root.members[2].second;
  EXPECT_EQ(host.Find("nproc")->kind, obs::JsonValue::Kind::kNumber);
  EXPECT_EQ(host.Find("build_type")->kind, obs::JsonValue::Kind::kString);
  EXPECT_FALSE(host.Find("compiler")->text.empty());

  const obs::JsonValue& gates = *root.Find("gates");
  ASSERT_EQ(gates.members.size(), 3u);
  EXPECT_EQ(gates.Find("identity")->Find("status")->text, "pass");
  EXPECT_EQ(gates.Find("identity")->Find("threshold"), nullptr);
  EXPECT_EQ(gates.Find("speedup")->Find("status")->text, "pass");
  EXPECT_EQ(gates.Find("speedup")->Find("threshold")->text, "3");
  EXPECT_EQ(gates.Find("speedup")->Find("value")->text, "3.5");
  // The skip reason survives into the file, numbers and all.
  EXPECT_EQ(gates.Find("scaling")->Find("status")->text, "skipped: only 1 hardware threads");
  EXPECT_EQ(gates.Find("scaling")->Find("value")->text, "1");
  std::remove(path.c_str());
}

TEST(BenchHarnessTest, NonFiniteNumbersAreWrittenAsNull) {
  const std::string path = TempPath("harness_nan.json");
  Harness harness("micro_nan", path, Mode::kFull);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  harness.AddGate("speedup", Gate::Compare(false, 3.0, nan));
  harness.Set("nan", nan);
  harness.Set("inf", inf);
  harness.Set("minus_inf", -inf);
  EXPECT_EQ(harness.Finish(), 1);

  const obs::JsonValue root = ReadBack(path);
  EXPECT_EQ(root.Find("nan")->kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(root.Find("inf")->kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(root.Find("minus_inf")->kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(root.Find("gates")->Find("speedup")->Find("value")->kind,
            obs::JsonValue::Kind::kNull);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace tempo
