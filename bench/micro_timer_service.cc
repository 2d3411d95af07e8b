// Timer-service scaling microbenchmarks.
//
// Two questions, both feeding BENCH_timer_service.json:
//
//   1. NextExpiry cost. The OS models call NextExpiry() on every
//      hardware-reprogram decision; the seed implementation answered with a
//      full O(slots x nodes) scan. With 10k pending timers the cached
//      minimum must beat the retained reference scan by >= 10x on every
//      wheel (the next_expiry_speedup gate).
//
//   2. Multi-producer set/cancel throughput. 1/2/4/8 producer threads x all
//      four queue implementations, each multi-thread configuration run
//      against a single global lock (shards=1) and against one shard per
//      thread — the sharding win is the ratio between the two.
//
// Quick and smoke runs shrink the op counts for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/sim/random.h"
#include "src/timer/hashed_wheel.h"
#include "src/timer/hierarchical_wheel.h"
#include "src/timer/queue.h"
#include "src/timer/timer_service.h"
#include "tools/common.h"

namespace tempo {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// --- Part 1: NextExpiry cached vs reference scan -------------------------

struct NextExpiryResult {
  std::string queue;
  double scan_ns = 0;
  double cached_ns = 0;
  double speedup = 0;
};

// The cached path gets a much larger iteration budget than the scan: it is
// too fast to time over the scan's loop count.
template <typename Wheel>
NextExpiryResult MeasureNextExpiry(const std::string& name, Wheel* wheel, int population,
                                   int scan_iters, int cached_iters) {
  Rng rng(42);
  for (int i = 0; i < population; ++i) {
    wheel->Schedule(rng.UniformInt(kMillisecond, 100 * kSecond), [](TimerHandle) {});
  }
  NextExpiryResult result;
  result.queue = name;
  SimTime sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < scan_iters; ++i) {
    sink ^= wheel->NextExpiryScan();
  }
  result.scan_ns = SecondsSince(start) * 1e9 / scan_iters;
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < cached_iters; ++i) {
    sink ^= wheel->NextExpiry();
  }
  result.cached_ns = SecondsSince(start) * 1e9 / cached_iters;
  if (sink == 42) {  // defeat dead-code elimination without volatile
    std::fprintf(stderr, "#");
  }
  result.speedup = result.cached_ns > 0 ? result.scan_ns / result.cached_ns : 0;
  return result;
}

// --- Part 2: multi-producer throughput -----------------------------------

struct ThroughputResult {
  std::string queue;
  int threads = 0;
  size_t shards = 0;
  uint64_t ops = 0;
  double seconds = 0;
  double mops_per_sec = 0;
  uint64_t contended_locks = 0;
  double cache_hit_rate = 0;
};

// Each producer churns schedule/cancel pairs on its home shard — the
// webserver insurance-timer pattern (arm a timeout, cancel it shortly
// after) that dominates the paper's traces.
ThroughputResult MeasureThroughput(const std::string& queue, int threads, size_t shards,
                                   int ops_per_thread, int run_id) {
  TimerService::Options options;
  options.queue = queue;
  options.shards = shards;
  options.stats_label =
      queue + "-bench" + std::to_string(run_id);  // instruments are per-run
  TimerService service(options);
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&service, &go, t, ops_per_thread] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<TimerHandle> window(64, kInvalidTimerHandle);
      for (int i = 0; i < ops_per_thread; ++i) {
        const size_t slot = static_cast<size_t>(i) % window.size();
        if (window[slot] != kInvalidTimerHandle) {
          service.Cancel(window[slot]);
        }
        window[slot] =
            service.ScheduleOn(static_cast<size_t>(t),
                               rng.UniformInt(kMillisecond, 10 * kSecond), [](TimerHandle) {});
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) {
    worker.join();
  }
  ThroughputResult result;
  result.queue = queue;
  result.threads = threads;
  result.shards = service.shard_count();
  result.ops = service.set_count() + service.cancel_count();
  result.seconds = SecondsSince(start);
  result.mops_per_sec = static_cast<double>(result.ops) / result.seconds / 1e6;
  result.contended_locks = service.contended_locks();
  const double hits = static_cast<double>(service.deadline_cache_hits());
  const double misses = static_cast<double>(service.deadline_cache_misses());
  result.cache_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0;
  return result;
}

}  // namespace
}  // namespace tempo

int main(int argc, char** argv) {
  using namespace tempo;
  const tempo::tools::FlagSpec kFlags[] = {tools::QueueFlag()};
  const tools::ParsedArgs args = tools::ParseArgs(argc, argv, kFlags);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    tools::PrintUsage(stderr, argv[0], "", kFlags);
    return 2;
  }
  std::vector<std::string> queues = TimerQueueNames();
  if (args.Has("queue")) {
    const std::string selected = tools::ResolveQueueName(args, "");
    if (selected.empty()) {
      return 2;
    }
    queues = {selected};
  }
  bench::Harness harness("micro_timer_service", "BENCH_timer_service.json");
  const bool quick = !harness.full();
  const int population = 10000;
  const int scan_iters = quick ? 200 : 2000;
  const int cached_iters = quick ? 200000 : 2000000;
  const int ops_per_thread = quick ? 20000 : 100000;

  std::printf("==============================================================\n");
  std::printf("micro_timer_service — sharded TimerService scaling\n");
  std::printf("==============================================================\n\n");

  std::vector<NextExpiryResult> next_results;
  {
    HierarchicalWheelTimerQueue wheel(kMillisecond, "hier-bench-next");
    next_results.push_back(MeasureNextExpiry("hierarchical_wheel", &wheel, population,
                                             scan_iters, cached_iters));
  }
  {
    HashedWheelTimerQueue wheel(kMillisecond, 256, "hashed-bench-next");
    next_results.push_back(
        MeasureNextExpiry("hashed_wheel", &wheel, population, scan_iters, cached_iters));
  }

  std::printf("NextExpiry with %d pending timers (acceptance: >= 10x):\n", population);
  for (const auto& r : next_results) {
    std::printf("  %-20s scan %10.1f ns   cached %8.2f ns   speedup %8.1fx\n",
                r.queue.c_str(), r.scan_ns, r.cached_ns, r.speedup);
  }

  std::printf("\nset/cancel churn, %d ops/thread (schedule+cancel pairs):\n",
              ops_per_thread);
  std::printf("  %-20s %8s %7s %10s %12s %10s %9s\n", "queue", "threads", "shards",
              "Mops/s", "contended", "hit-rate", "seconds");
  std::vector<ThroughputResult> throughput;
  int run_id = 0;
  for (const std::string& queue : queues) {
    for (const int threads : {1, 2, 4, 8}) {
      std::vector<size_t> shard_configs = {1};
      if (threads > 1) {
        shard_configs.push_back(static_cast<size_t>(threads));
      }
      for (const size_t shards : shard_configs) {
        const auto r = MeasureThroughput(queue, threads, shards, ops_per_thread, run_id++);
        std::printf("  %-20s %8d %7zu %10.3f %12llu %10.3f %9.3f\n", r.queue.c_str(),
                    r.threads, r.shards, r.mops_per_sec,
                    static_cast<unsigned long long>(r.contended_locks), r.cache_hit_rate,
                    r.seconds);
        throughput.push_back(r);
      }
    }
  }

  double worst_speedup = next_results.front().speedup;
  for (const auto& r : next_results) {
    worst_speedup = std::min(worst_speedup, r.speedup);
  }
  harness.AddGate("next_expiry_speedup",
                  bench::Gate::Compare(worst_speedup >= 10.0, 10.0, worst_speedup));
  harness.Set("population", population);
  obs::JsonValue& next_rows = harness.Set("next_expiry", obs::JsonValue::Array());
  for (const auto& r : next_results) {
    obs::JsonValue& row = next_rows.Push(obs::JsonValue::Object());
    row.Set("queue", r.queue);
    row.Set("scan_ns", r.scan_ns);
    row.Set("cached_ns", r.cached_ns);
    row.Set("speedup", r.speedup);
  }
  obs::JsonValue& rows = harness.Set("throughput", obs::JsonValue::Array());
  for (const auto& r : throughput) {
    obs::JsonValue& row = rows.Push(obs::JsonValue::Object());
    row.Set("queue", r.queue);
    row.Set("threads", r.threads);
    row.Set("shards", r.shards);
    row.Set("mops_per_sec", r.mops_per_sec);
    row.Set("contended_locks", r.contended_locks);
    row.Set("deadline_cache_hit_rate", r.cache_hit_rate);
  }
  return harness.Finish();
}
