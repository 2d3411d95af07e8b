// micro_sim_parallel — windowed parallel simulator throughput.
//
// Runs a fixed 4-domain timer workload (per-domain event chains with RNG
// work per event plus cross-domain posts) through the windowed driver at
// 1, 2 and 4 worker threads and measures aggregate timer events per
// second. Two gates:
//
//   * identity (always enforced): every threaded run must produce exactly
//     the serial run's per-domain checksums, event counts and final
//     clocks — the determinism contract of the clock-domain design;
//   * scaling (>= 2x at 4 threads): enforced only on machines with at
//     least 4 hardware threads, skipped otherwise — never passed vacuously.
//
// Quick runs shrink the chains; smoke runs shrink them further for the
// per-PR ctest. Results go to BENCH_sim_parallel.json.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/sim/clock_domain.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tempo {
namespace {

constexpr size_t kCpus = 4;
constexpr size_t kChainsPerDomain = 4;
constexpr double kSpeedupThreshold = 2.0;
constexpr size_t kGateThreads = 4;
// Wide windows amortize the barrier: the workload's cross-domain latency
// is never below this, matching an IPI-scale 100us lookahead.
constexpr SimDuration kLookahead = 100 * kMicrosecond;

struct DomainState {
  uint64_t checksum = 0;
  uint64_t events = 0;
};

struct RunOutcome {
  size_t threads = 0;
  double millis = 0;
  double events_per_sec = 0;
  double speedup = 1.0;
  bool identical = true;
  uint64_t events = 0;
  uint64_t fingerprint = 0;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// Seeds every domain with kChainsPerDomain independent timer chains. Each
// event draws `spin` RNG values (the simulated per-timer work), folds them
// into the domain checksum, occasionally posts a cross-domain wakeup, and
// re-arms itself at an RNG-dependent offset — a cartoon of AdvanceAll-style
// per-CPU timer servicing.
using StepFn = std::function<void(int)>;
using Keepalive = std::vector<std::shared_ptr<void>>;

// Re-arms `*step` via a weak_ptr so the chain lambda never owns itself
// (a shared_ptr cycle would leak); the caller's keepalive owns the chain.
void Rearm(ClockDomain& dom, SimDuration delay,
           const std::weak_ptr<StepFn>& weak, int remaining) {
  dom.ScheduleAfter(delay, [weak, remaining] {
    if (const std::shared_ptr<StepFn> step = weak.lock()) {
      (*step)(remaining);
    }
  });
}

void BuildLoad(Simulator* sim, std::vector<DomainState>* states,
               Keepalive* keepalive, int hops, int spin) {
  states->assign(sim->cpu_count(), DomainState{});
  for (size_t d = 0; d < sim->cpu_count(); ++d) {
    for (size_t chain = 0; chain < kChainsPerDomain; ++chain) {
      auto step = std::make_shared<StepFn>();
      keepalive->push_back(step);
      const std::weak_ptr<StepFn> weak = step;
      *step = [sim, states, d, spin, weak](int remaining) {
        ClockDomain& dom = sim->domain(d);
        DomainState& state = (*states)[d];
        uint64_t acc = 0;
        for (int i = 0; i < spin; ++i) {
          acc = Mix(acc, dom.rng().NextU64());
        }
        state.checksum = Mix(Mix(state.checksum, acc), static_cast<uint64_t>(dom.Now()));
        ++state.events;
        if (remaining <= 0) {
          return;
        }
        if (acc % 16 == 0) {
          const size_t target = (d + 1 + acc % (kCpus - 1)) % kCpus;
          dom.Post(target, static_cast<SimDuration>(acc % (200 * kMicrosecond)),
                   [sim, states, target, acc] {
                     DomainState& t = (*states)[target];
                     t.checksum = Mix(Mix(t.checksum, acc),
                                      static_cast<uint64_t>(sim->domain(target).Now()));
                     ++t.events;
                   });
        }
        Rearm(dom, static_cast<SimDuration>(1 + acc % (50 * kMicrosecond)),
              weak, remaining - 1);
      };
      Rearm(sim->domain(d), static_cast<SimDuration>(1 + d * 7 + chain * 13),
            weak, hops);
    }
  }
}

RunOutcome RunOnce(size_t threads, int hops, int spin) {
  Simulator::Options options;
  options.seed = 20080419;
  options.cpus = kCpus;
  options.lookahead = kLookahead;
  options.stats_label = "";  // keep obs registry churn out of the timing
  Simulator sim(options);
  std::vector<DomainState> states;
  Keepalive keepalive;
  BuildLoad(&sim, &states, &keepalive, hops, spin);
  const auto t0 = std::chrono::steady_clock::now();
  sim.RunParallel(threads);
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome outcome;
  outcome.threads = threads;
  outcome.millis =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() / 1000.0;
  outcome.events = sim.events_executed();
  outcome.events_per_sec =
      outcome.millis > 0 ? static_cast<double>(outcome.events) / (outcome.millis / 1000.0)
                         : 0;
  uint64_t fp = 0;
  for (size_t d = 0; d < kCpus; ++d) {
    fp = Mix(fp, states[d].checksum);
    fp = Mix(fp, states[d].events);
    fp = Mix(fp, static_cast<uint64_t>(sim.domain(d).Now()));
  }
  outcome.fingerprint = Mix(fp, outcome.events);
  return outcome;
}

}  // namespace
}  // namespace tempo

int main() {
  using namespace tempo;
  bench::Harness harness("micro_sim_parallel", "BENCH_sim_parallel.json");
  const bool smoke = harness.smoke();
  const bool quick = harness.mode() == bench::Mode::kQuick;
  const int hops = smoke ? 100 : quick ? 1000 : 5000;
  const int spin = smoke ? 200 : 2000;
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("micro_sim_parallel: %zu domains, %zu chains/domain, %d hops, spin %d, %u cores%s\n",
              kCpus, kChainsPerDomain, hops, spin, cores,
              harness.full() ? "" : smoke ? " (smoke)" : " (quick)");

  std::vector<RunOutcome> runs;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    RunOutcome r = RunOnce(threads, hops, spin);
    if (!runs.empty()) {
      r.identical = r.fingerprint == runs.front().fingerprint &&
                    r.events == runs.front().events;
      r.speedup = runs.front().millis / r.millis;
    }
    std::printf("  threads=%zu  %10.1f ms  %12.0f events/s  speedup %.2fx  state %s\n",
                r.threads, r.millis, r.events_per_sec, r.speedup,
                r.identical ? "identical" : "DIFFERS");
    runs.push_back(r);
  }

  bool identity_ok = true;
  double gate_speedup = 0;
  for (const RunOutcome& r : runs) {
    identity_ok = identity_ok && r.identical;
    if (r.threads == kGateThreads) {
      gate_speedup = r.speedup;
    }
  }
  harness.AddGate("identity", bench::Gate::Check(identity_ok));
  bench::Gate scaling = bench::Gate::Compare(gate_speedup >= kSpeedupThreshold,
                                             kSpeedupThreshold, gate_speedup);
  if (cores < kGateThreads) {
    scaling.Skip("only " + std::to_string(cores) + " hardware threads");
  }
  harness.AddGate("scaling", scaling);

  harness.Set("domains", kCpus);
  harness.Set("chains_per_domain", kChainsPerDomain);
  harness.Set("hops", hops);
  harness.Set("spin", spin);
  harness.Set("lookahead_ns", kLookahead);
  harness.Set("events", runs.front().events);
  harness.Set("gate_threads", kGateThreads);
  obs::JsonValue& rows = harness.Set("runs", obs::JsonValue::Array());
  for (const RunOutcome& r : runs) {
    obs::JsonValue& row = rows.Push(obs::JsonValue::Object());
    row.Set("threads", r.threads);
    row.Set("millis", r.millis);
    row.Set("events_per_sec", r.events_per_sec);
    row.Set("speedup", r.speedup);
    row.Set("identical", r.identical);
  }
  return harness.Finish();
}
