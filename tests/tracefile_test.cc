// Tests for trace file serialisation and the provenance analysis.

#include <gtest/gtest.h>

#include <cstdio>

#include "src/analysis/provenance.h"
#include "src/analysis/summary.h"
#include "src/trace/file.h"

namespace tempo {
namespace {

std::vector<TraceRecord> MakeTrace(CallsiteRegistry* callsites) {
  const CallsiteId select = callsites->Intern("app/select");
  const CallsiteId tcp = callsites->Intern("net/tcp");
  const CallsiteId rtx = callsites->Intern("net/tcp_retransmit", tcp);
  std::vector<TraceRecord> records;
  for (int i = 0; i < 50; ++i) {
    TraceRecord set;
    set.timestamp = i * kSecond;
    set.timer = static_cast<TimerId>(1 + i % 3);
    set.timeout = 204 * kMillisecond;
    set.expiry = set.timestamp + set.timeout;
    set.callsite = i % 2 == 0 ? select : rtx;
    set.pid = static_cast<Pid>(i % 2);
    set.op = TimerOp::kSet;
    set.flags = i % 2 == 0 ? kFlagUser : uint16_t{0};
    records.push_back(set);
    TraceRecord end = set;
    end.timestamp += 100 * kMillisecond;
    end.op = i % 3 == 0 ? TimerOp::kCancel : TimerOp::kExpire;
    records.push_back(end);
  }
  return records;
}

TEST(TraceFileTest, SerializeDeserializeRoundTrip) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites);
  const auto bytes = SerializeTrace(records, callsites);
  const auto loaded = DeserializeTrace(bytes);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded->records[i].timestamp, records[i].timestamp);
    EXPECT_EQ(loaded->records[i].timer, records[i].timer);
    EXPECT_EQ(loaded->records[i].callsite, records[i].callsite);
    EXPECT_EQ(static_cast<int>(loaded->records[i].op),
              static_cast<int>(records[i].op));
  }
  // The call-site table round-trips with identical ids, names and parents.
  ASSERT_EQ(loaded->callsites.size(), callsites.size());
  for (CallsiteId id = 0; id < callsites.size(); ++id) {
    EXPECT_EQ(loaded->callsites.Name(id), callsites.Name(id));
    EXPECT_EQ(loaded->callsites.Parent(id), callsites.Parent(id));
  }
}

TEST(TraceFileTest, AnalysisResultsIdenticalAfterRoundTrip) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites);
  const auto loaded = DeserializeTrace(SerializeTrace(records, callsites));
  ASSERT_TRUE(loaded.has_value());
  const TraceSummary original = Summarize(records, "t");
  const TraceSummary reloaded = Summarize(loaded->records, "t");
  EXPECT_EQ(original.accesses, reloaded.accesses);
  EXPECT_EQ(original.set, reloaded.set);
  EXPECT_EQ(original.expired, reloaded.expired);
  EXPECT_EQ(original.canceled, reloaded.canceled);
  EXPECT_EQ(original.timers, reloaded.timers);
  EXPECT_EQ(original.user_space, reloaded.user_space);
}

TEST(TraceFileTest, BadMagicRejected) {
  CallsiteRegistry callsites;
  auto bytes = SerializeTrace(MakeTrace(&callsites), callsites);
  bytes[0] = 'X';
  EXPECT_FALSE(DeserializeTrace(bytes).has_value());
}

TEST(TraceFileTest, WrongVersionRejected) {
  CallsiteRegistry callsites;
  auto bytes = SerializeTrace(MakeTrace(&callsites), callsites);
  bytes[8] = 99;
  EXPECT_FALSE(DeserializeTrace(bytes).has_value());
}

TEST(TraceFileTest, TruncationRejected) {
  CallsiteRegistry callsites;
  auto bytes = SerializeTrace(MakeTrace(&callsites), callsites);
  bytes.resize(bytes.size() - 17);
  EXPECT_FALSE(DeserializeTrace(bytes).has_value());
}

TEST(TraceFileTest, EmptyTraceRoundTrips) {
  CallsiteRegistry callsites;
  const auto loaded = DeserializeTrace(SerializeTrace({}, callsites));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->records.empty());
}

TEST(TraceFileTest, FileRoundTrip) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites);
  const std::string path = ::testing::TempDir() + "/tempo_trace_test.trc";
  ASSERT_TRUE(WriteTraceFile(path, records, callsites));
  const auto loaded = ReadTraceFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->records.size(), records.size());
  std::remove(path.c_str());
}

TEST(TraceFileTest, WriteRefusesUnknownVersions) {
  CallsiteRegistry callsites;
  const auto records = MakeTrace(&callsites);
  const std::string path = ::testing::TempDir() + "/tempo_trace_bad_version.trc";
  for (const uint32_t version : {0u, 1u, 4u, 7u}) {
    std::remove(path.c_str());
    TraceWriteOptions options;
    options.version = version;
    EXPECT_FALSE(WriteTraceFile(path, records, callsites, options)) << version;
    std::FILE* file = std::fopen(path.c_str(), "rb");
    EXPECT_EQ(file, nullptr) << "version " << version << " left a file behind";
    if (file != nullptr) {
      std::fclose(file);
    }
    EXPECT_TRUE(SerializeTrace(records, callsites, options).empty()) << version;
  }
  std::remove(path.c_str());
}

TEST(TraceFileTest, MissingFileFails) {
  EXPECT_FALSE(ReadTraceFile("/nonexistent/dir/nope.trc").has_value());
}

// --- provenance ---

TEST(ProvenanceTest, AggregatesAlongParentChains) {
  CallsiteRegistry callsites;
  const CallsiteId ip = callsites.Intern("net/ip");
  const CallsiteId tcp = callsites.Intern("net/tcp", ip);
  const CallsiteId rtx = callsites.Intern("net/tcp_retransmit", tcp);
  const CallsiteId app = callsites.Intern("app/standalone");

  std::vector<TraceRecord> records;
  auto add = [&](CallsiteId site, int count) {
    for (int i = 0; i < count; ++i) {
      TraceRecord r;
      r.timestamp = i;
      r.timer = site * 100ull;
      r.callsite = site;
      r.op = TimerOp::kSet;
      records.push_back(r);
    }
  };
  add(rtx, 10);
  add(tcp, 5);
  add(app, 3);

  const auto forest = BuildProvenanceForest(records, callsites);
  ASSERT_EQ(forest.size(), 2u);
  // net/ip subsumes everything below it: 15 ops.
  EXPECT_EQ(forest[0].name, "net/ip");
  EXPECT_EQ(forest[0].direct_ops, 0u);
  EXPECT_EQ(forest[0].subtree_ops, 15u);
  ASSERT_EQ(forest[0].children.size(), 1u);
  EXPECT_EQ(forest[0].children[0].name, "net/tcp");
  EXPECT_EQ(forest[0].children[0].direct_ops, 5u);
  EXPECT_EQ(forest[0].children[0].subtree_ops, 15u);
  EXPECT_EQ(forest[1].name, "app/standalone");
  EXPECT_EQ(forest[1].subtree_ops, 3u);
}

TEST(ProvenanceTest, BlameWindowMeasuresHeldTime) {
  CallsiteRegistry callsites;
  const CallsiteId slow = callsites.Intern("nfs/backoff");
  const CallsiteId fast = callsites.Intern("tcp/rtx");
  std::vector<TraceRecord> records;
  // slow: pending from 0 to 60 s; fast: pending 10-10.2 s.
  TraceRecord set;
  set.timer = 1;
  set.callsite = slow;
  set.op = TimerOp::kSet;
  set.timeout = 64 * kSecond;
  set.expiry = 64 * kSecond;
  records.push_back(set);
  TraceRecord fset;
  fset.timestamp = 10 * kSecond;
  fset.timer = 2;
  fset.callsite = fast;
  fset.op = TimerOp::kSet;
  fset.timeout = 200 * kMillisecond;
  fset.expiry = fset.timestamp + fset.timeout;
  records.push_back(fset);
  TraceRecord fend = fset;
  fend.timestamp += 200 * kMillisecond;
  fend.op = TimerOp::kExpire;
  records.push_back(fend);
  TraceRecord send;
  send.timestamp = 60 * kSecond;
  send.timer = 1;
  send.op = TimerOp::kCancel;
  records.push_back(send);

  const auto blame = BlameWindow(records, callsites, 5 * kSecond, 30 * kSecond);
  ASSERT_EQ(blame.size(), 2u);
  EXPECT_EQ(blame[0].name, "nfs/backoff");  // sorted by held time
  EXPECT_EQ(blame[0].held, 25 * kSecond);   // clipped to the window
  EXPECT_EQ(blame[1].name, "tcp/rtx");
  EXPECT_EQ(blame[1].held, 200 * kMillisecond);
}

TEST(ProvenanceTest, BlameIncludesOpenEpisodes) {
  CallsiteRegistry callsites;
  const CallsiteId site = callsites.Intern("hung/op");
  TraceRecord set;
  set.timer = 1;
  set.callsite = site;
  set.op = TimerOp::kSet;
  set.timeout = kHour;
  set.expiry = kHour;
  const auto blame = BlameWindow({set}, callsites, 0, 10 * kSecond);
  ASSERT_EQ(blame.size(), 1u);
  EXPECT_EQ(blame[0].held, 10 * kSecond);  // still pending at window end
}

TEST(ProvenanceTest, RenderersIncludeNamesAndCounts) {
  CallsiteRegistry callsites;
  const CallsiteId site = callsites.Intern("subsystem/x");
  TraceRecord r;
  r.timer = 1;
  r.callsite = site;
  r.op = TimerOp::kSet;
  r.timeout = kSecond;
  r.expiry = kSecond;
  const auto forest = BuildProvenanceForest({r}, callsites);
  const std::string tree = RenderProvenance(forest);
  EXPECT_NE(tree.find("subsystem/x"), std::string::npos);
  const auto blame = BlameWindow({r}, callsites, 0, kSecond);
  const std::string report = RenderBlame(blame, 0, kSecond);
  EXPECT_NE(report.find("subsystem/x"), std::string::npos);
}

}  // namespace
}  // namespace tempo
