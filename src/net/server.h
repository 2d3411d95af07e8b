// C10M: a million-connection server scenario.
//
// The paper's traces show where a busy OS's timers come from: every TCP
// connection holds a retransmit timer (armed as insurance and almost always
// canceled by the ACK), a delayed-ACK timer (the 0.04 s coalescing window),
// a keepalive timer (re-armed on every touch), and an idle/FIN timeout.
// This module scales that picture to the C10M regime: N simulated
// connections (a million and up) all holding those four timers against the
// sharded TimerService, driven by a stochastic but fully deterministic
// workload of segment sends, ACK arrivals, and quiet spells.
//
// Scaling rules the implementation lives by:
//
//   * Flat per-connection memory: one contiguous array of POD-ish Conn
//     records (compact Jacobson RTO state + four timer handles); no
//     per-connection allocation, ever.
//   * No per-timer heap allocation: the timer callback is a 16-byte
//     trivially copyable closure {server, conn index, timer kind} that fits
//     std::function's small-object buffer (static_asserted in server.cc).
//   * Lock discipline: TimerService runs callbacks under the owning
//     shard's lock, so callbacks never re-enter the service; they append a
//     fired event to the lane's ring and the lane loop processes the ring
//     after AdvanceShard returns.
//   * Lane partitioning: connections are split into `lanes` disjoint
//     ranges, lane i owning shard i of the TimerService, its own Rng and
//     its own counters. Lanes never touch each other's state, which makes
//     Run() (serial) and RunThreaded() (one pool thread per lane) produce
//     bit-identical reports — the determinism proof the tests lean on.
//
// Reschedule is the hot verb: every touch of a connection re-arms its
// keepalive and idle timers in place (handle-stable, no allocation), the
// pattern the TimerQueue v2 API exists for.

#ifndef TEMPO_SRC_NET_SERVER_H_
#define TEMPO_SRC_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/rto.h"
#include "src/sim/random.h"
#include "src/sim/time.h"
#include "src/timer/timer_service.h"

namespace tempo {

struct C10MOptions {
  // Live connections; each holds 2 standing timers (keepalive + idle) and
  // up to 2 churning ones (retransmit + delayed ACK).
  size_t connections = 1'000'000;
  // Lanes == TimerService shards; Run and RunThreaded agree for any value.
  size_t lanes = 4;
  // TimerQueue backend, by factory name (see TimerQueueNames()).
  std::string queue = "hierarchical_wheel";
  SimDuration granularity = kMillisecond;
  uint64_t seed = 1;
  // Simulated run; the lane loop advances in `tick` steps.
  SimDuration duration = kSecond;
  SimDuration tick = 10 * kMillisecond;
  // Timeout values, scaled-down stand-ins for the trace's 7200 s / 0.04 s /
  // 0.2 s constants so short runs still exercise every fire path.
  SimDuration keepalive_interval = kSecond;
  SimDuration idle_timeout = 5 * kSecond;
  SimDuration delayed_ack = 40 * kMillisecond;
  // Mean of the exponentially distributed RTT samples fed to Jacobson.
  SimDuration rtt_mean = 50 * kMillisecond;
  // Expected workload events per connection per tick.
  double event_rate = 0.02;
};

// Aggregated over all lanes in lane order; bit-identical for equal
// (options, seed) regardless of serial or threaded execution.
struct C10MReport {
  size_t connections = 0;
  size_t lanes = 0;
  uint64_t ticks = 0;
  uint64_t segments_sent = 0;
  uint64_t acks_received = 0;
  uint64_t segments_received = 0;
  uint64_t retransmits_fired = 0;
  uint64_t keepalive_probes = 0;
  uint64_t idle_closures = 0;
  uint64_t delayed_acks_fired = 0;
  uint64_t delayed_acks_coalesced = 0;
  // Fires whose timer had already been superseded by the time the lane
  // processed the event (same-tick reset races; benign, but counted).
  uint64_t stale_fires = 0;
  uint64_t timers_scheduled = 0;
  uint64_t timers_canceled = 0;     // workload cancels (ACK insurance etc.)
  uint64_t timers_rescheduled = 0;
  // Max, over ticks, of the summed per-lane armed-timer counts.
  uint64_t peak_live_timers = 0;
  // Teardown: handles collected from connections and batch-canceled.
  uint64_t teardown_collected = 0;
  uint64_t teardown_canceled = 0;
  // TimerService::Size() after teardown; 0 means no timer leaked.
  uint64_t final_live_timers = 0;
  // Order-independent digest of everything above; the determinism witness.
  uint64_t fingerprint = 0;

  bool operator==(const C10MReport&) const = default;
};

class C10MServer {
 public:
  explicit C10MServer(C10MOptions options);

  // Runs the scenario lane by lane on the calling thread.
  C10MReport Run();

  // Runs the scenario on a WorkerPool with one participant per lane.
  // Identical report to Run().
  C10MReport RunThreaded();

  // The underlying service, for inspection between construction and Run.
  TimerService& service() { return *service_; }

  // Timer-callback entry point (public for the closure type; not an API).
  // `local` is the queue-local handle the fired timer was known by.
  void OnTimerFired(uint32_t conn, uint8_t kind, TimerHandle local);

 private:
  // Timer kinds, indexing Conn::timers.
  enum Kind : uint8_t { kRetransmit = 0, kKeepalive, kIdle, kDelayedAck, kKinds };

  struct Conn {
    JacobsonEstimator rto;
    TimerHandle timers[kKinds] = {0, 0, 0, 0};
    uint16_t inflight = 0;
  };

  struct FiredEvent {
    TimerHandle local = 0;
    uint32_t conn = 0;
    uint8_t kind = 0;
  };

  // Per-lane state; cache-line aligned so threaded lanes never share.
  struct alignas(64) Lane {
    size_t index = 0;
    size_t lo = 0, hi = 0;  // owned connection range [lo, hi)
    Rng rng{0};
    std::vector<FiredEvent> fired;
    // Armed-timer accounting: exactly the number of nonzero Conn handles.
    size_t live = 0;
    size_t peak_live = 0;
    // Counters, merged into the report in lane order.
    uint64_t segments = 0, acks = 0, received = 0;
    uint64_t retransmits = 0, keepalives = 0, idles = 0;
    uint64_t dacks_fired = 0, dacks_coalesced = 0, stale = 0;
    uint64_t schedules = 0, cancels = 0, reschedules = 0;
  };

  size_t LaneOf(size_t conn) const { return conn / conns_per_lane_; }

  TimerHandle Arm(Lane& lane, uint32_t conn, Kind kind, SimTime expiry);
  void Disarm(Lane& lane, Conn& conn, Kind kind);
  void Rearm(Lane& lane, uint32_t conn_index, Kind kind, SimTime expiry);
  void SetupLane(Lane& lane);
  void DrainFired(Lane& lane, SimTime now);
  void WorkloadTick(Lane& lane, SimTime now);
  void RunLane(Lane& lane);
  // Run and RunThreaded: every lane on a `width`-wide WorkerPool.
  C10MReport RunLanes(size_t width);
  C10MReport Finish();

  C10MOptions options_;
  size_t conns_per_lane_ = 1;
  std::unique_ptr<TimerService> service_;
  std::vector<Conn> conns_;
  std::vector<Lane> lanes_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_NET_SERVER_H_
