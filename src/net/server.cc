#include "src/net/server.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>

#include "src/sim/worker_pool.h"

namespace tempo {

namespace {

// The per-timer context: which server, which connection, which timer kind.
// Kept to two machine words and trivially copyable so std::function stores
// it inline — a million armed timers must not mean a million heap blocks.
struct TimerClosure {
  C10MServer* server;
  uint32_t conn;
  uint8_t kind;
  void operator()(TimerHandle local) const {
    server->OnTimerFired(conn, kind, local);
  }
};

// libstdc++'s std::function small-object buffer holds trivially copyable
// callables of at most two pointers. If this ever fails, the C10M memory
// story is broken — fix the closure, don't delete the assert.
static_assert(std::is_trivially_copyable_v<TimerClosure>);
static_assert(sizeof(TimerClosure) <= 2 * sizeof(void*));
static_assert(alignof(TimerClosure) <= alignof(void*));

uint64_t Mix64(uint64_t x) {
  // SplitMix64 finaliser; good avalanche for fingerprint folding.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Fold(uint64_t acc, uint64_t value) { return Mix64(acc ^ value); }

}  // namespace

C10MServer::C10MServer(C10MOptions options) : options_(std::move(options)) {
  if (options_.connections == 0) {
    options_.connections = 1;
  }
  if (options_.lanes == 0) {
    options_.lanes = 1;
  }
  options_.lanes = std::min(options_.lanes, options_.connections);
  if (options_.tick <= 0) {
    options_.tick = kMillisecond;
  }
  conns_per_lane_ = (options_.connections + options_.lanes - 1) / options_.lanes;

  TimerService::Options service_options;
  service_options.shards = options_.lanes;
  service_options.queue = options_.queue;
  service_options.granularity = options_.granularity;
  service_options.stats_label = "c10m_" + options_.queue;
  service_ = std::make_unique<TimerService>(service_options);

  conns_.resize(options_.connections);
  lanes_.resize(options_.lanes);
  for (size_t i = 0; i < options_.lanes; ++i) {
    Lane& lane = lanes_[i];
    lane.index = i;
    lane.lo = i * conns_per_lane_;
    lane.hi = std::min(lane.lo + conns_per_lane_, options_.connections);
    // Decorrelate lane streams; equal seeds must still differ per lane.
    lane.rng = Rng(Mix64(options_.seed ^ Mix64(i + 1)));
  }
}

void C10MServer::OnTimerFired(uint32_t conn, uint8_t kind, TimerHandle local) {
  // Runs under the owning shard's lock, on the thread driving that lane's
  // AdvanceShard. Do the absolute minimum: record the event. The lane loop
  // (same thread) handles it after the lock is released.
  lanes_[LaneOf(conn)].fired.push_back(FiredEvent{local, conn, kind});
}

TimerHandle C10MServer::Arm(Lane& lane, uint32_t conn, Kind kind, SimTime expiry) {
  const TimerHandle handle = service_->ScheduleOn(
      lane.index, expiry, TimerClosure{this, conn, static_cast<uint8_t>(kind)});
  ++lane.schedules;
  ++lane.live;
  return handle;
}

void C10MServer::Disarm(Lane& lane, Conn& conn, Kind kind) {
  if (conn.timers[kind] == kInvalidTimerHandle) {
    return;
  }
  // Cancel can report false when the timer fired earlier this tick and its
  // event is still queued; the stored handle counted as armed either way.
  if (service_->Cancel(conn.timers[kind])) {
    ++lane.cancels;
  }
  conn.timers[kind] = kInvalidTimerHandle;
  --lane.live;
}

void C10MServer::Rearm(Lane& lane, uint32_t conn_index, Kind kind, SimTime expiry) {
  Conn& conn = conns_[conn_index];
  TimerHandle& slot = conn.timers[kind];
  if (slot == kInvalidTimerHandle) {
    slot = Arm(lane, conn_index, kind, expiry);
    return;
  }
  const TimerHandle moved = service_->Reschedule(slot, expiry);
  if (moved != kInvalidTimerHandle) {
    ++lane.reschedules;
    return;
  }
  // The timer fired this very tick and is pending in the ring; mint a
  // fresh one — the stale fire will be recognised by handle mismatch.
  slot = service_->ScheduleOn(lane.index, expiry,
                              TimerClosure{this, conn_index, static_cast<uint8_t>(kind)});
  ++lane.schedules;
}

void C10MServer::SetupLane(Lane& lane) {
  // Arm the two standing timers of every owned connection, jittered so a
  // million keepalives do not thunder in on one tick.
  for (size_t c = lane.lo; c < lane.hi; ++c) {
    Conn& conn = conns_[c];
    const SimTime ka = options_.tick +
        static_cast<SimTime>(lane.rng.NextDouble() *
                             static_cast<double>(options_.keepalive_interval));
    const SimTime idle = options_.idle_timeout +
        static_cast<SimTime>(lane.rng.NextDouble() *
                             static_cast<double>(options_.idle_timeout));
    conn.timers[kKeepalive] = Arm(lane, static_cast<uint32_t>(c), kKeepalive, ka);
    conn.timers[kIdle] = Arm(lane, static_cast<uint32_t>(c), kIdle, idle);
  }
}

void C10MServer::DrainFired(Lane& lane, SimTime now) {
  // The ring is appended in fire order (deterministic per backend); new
  // fires cannot arrive while we drain — only AdvanceShard fires timers.
  for (const FiredEvent& ev : lane.fired) {
    Conn& conn = conns_[ev.conn];
    TimerHandle& slot = conn.timers[ev.kind];
    if ((slot & TimerService::kLocalMask) != ev.local) {
      // Superseded before we got here (e.g. an idle reset re-armed the
      // kind this same tick). The firing timer is already dead; ignore.
      ++lane.stale;
      continue;
    }
    slot = kInvalidTimerHandle;
    --lane.live;
    switch (static_cast<Kind>(ev.kind)) {
      case kRetransmit:
        // Insurance ran out: back off and, if data is still unacked, re-arm.
        conn.rto.Backoff();
        ++lane.retransmits;
        if (conn.inflight > 0) {
          conn.timers[kRetransmit] =
              Arm(lane, ev.conn, kRetransmit, now + conn.rto.Rto());
        }
        break;
      case kKeepalive:
        ++lane.keepalives;
        conn.timers[kKeepalive] =
            Arm(lane, ev.conn, kKeepalive, now + options_.keepalive_interval);
        break;
      case kIdle: {
        // Idle close; the slot is immediately reused by a fresh accept
        // (constant connection count keeps the scenario in steady state).
        ++lane.idles;
        Disarm(lane, conn, kRetransmit);
        Disarm(lane, conn, kDelayedAck);
        Disarm(lane, conn, kKeepalive);
        conn.rto = JacobsonEstimator();
        conn.inflight = 0;
        conn.timers[kKeepalive] =
            Arm(lane, ev.conn, kKeepalive, now + options_.keepalive_interval);
        conn.timers[kIdle] = Arm(lane, ev.conn, kIdle, now + options_.idle_timeout);
        break;
      }
      case kDelayedAck:
        // Coalescing window closed with only one segment seen: ack it now.
        ++lane.dacks_fired;
        break;
      default:
        break;
    }
  }
  lane.fired.clear();
}

void C10MServer::WorkloadTick(Lane& lane, SimTime now) {
  const size_t lane_conns = lane.hi - lane.lo;
  if (lane_conns == 0) {
    return;
  }
  const size_t events = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(lane_conns) * options_.event_rate));
  for (size_t e = 0; e < events; ++e) {
    const uint32_t conn_index = static_cast<uint32_t>(
        lane.lo + static_cast<size_t>(lane.rng.UniformInt(
                      0, static_cast<int64_t>(lane_conns) - 1)));
    Conn& conn = conns_[conn_index];
    const double p = lane.rng.NextDouble();
    if (p < 0.45) {
      // Outbound data segment: arm retransmit insurance (or push it out).
      ++lane.segments;
      if (conn.inflight < UINT16_MAX) {
        ++conn.inflight;
      }
      Rearm(lane, conn_index, kRetransmit, now + conn.rto.Rto());
    } else if (p < 0.80) {
      // ACK arrival: the common case where insurance is canceled unfired.
      ++lane.acks;
      if (conn.inflight > 0) {
        const SimDuration rtt = 1 + static_cast<SimDuration>(lane.rng.Exponential(
                                        static_cast<double>(options_.rtt_mean)));
        conn.rto.Sample(rtt);
        --conn.inflight;
        if (conn.inflight == 0) {
          Disarm(lane, conn, kRetransmit);
        } else {
          Rearm(lane, conn_index, kRetransmit, now + conn.rto.Rto());
        }
      }
    } else {
      // Inbound data segment: delayed-ACK coalescing (ack every second
      // segment immediately; otherwise wait out the 40 ms window).
      ++lane.received;
      if (conn.timers[kDelayedAck] == kInvalidTimerHandle) {
        conn.timers[kDelayedAck] =
            Arm(lane, conn_index, kDelayedAck, now + options_.delayed_ack);
      } else {
        Disarm(lane, conn, kDelayedAck);
        ++lane.dacks_coalesced;
      }
    }
    // Every touch re-arms the standing timers — the Reschedule fast path.
    Rearm(lane, conn_index, kKeepalive, now + options_.keepalive_interval);
    Rearm(lane, conn_index, kIdle, now + options_.idle_timeout);
  }
}

void C10MServer::RunLane(Lane& lane) {
  SetupLane(lane);
  lane.peak_live = lane.live;
  for (SimTime now = options_.tick; now <= options_.duration; now += options_.tick) {
    service_->AdvanceShard(lane.index, now);
    DrainFired(lane, now);
    WorkloadTick(lane, now);
    lane.peak_live = std::max(lane.peak_live, lane.live);
  }
}

C10MReport C10MServer::Finish() {
  C10MReport report;
  report.connections = options_.connections;
  report.lanes = options_.lanes;
  report.ticks = options_.tick > 0
                     ? static_cast<uint64_t>(options_.duration / options_.tick)
                     : 0;
  for (const Lane& lane : lanes_) {
    report.segments_sent += lane.segments;
    report.acks_received += lane.acks;
    report.segments_received += lane.received;
    report.retransmits_fired += lane.retransmits;
    report.keepalive_probes += lane.keepalives;
    report.idle_closures += lane.idles;
    report.delayed_acks_fired += lane.dacks_fired;
    report.delayed_acks_coalesced += lane.dacks_coalesced;
    report.stale_fires += lane.stale;
    report.timers_scheduled += lane.schedules;
    report.timers_canceled += lane.cancels;
    report.timers_rescheduled += lane.reschedules;
    report.peak_live_timers += lane.peak_live;
  }
  // Teardown: every nonzero handle is live (fires are fully drained at the
  // end of each tick), so one grouped batch cancel must drain the service
  // to zero — the no-leak proof.
  std::vector<TimerHandle> handles;
  handles.reserve(lanes_.empty() ? 0 : lanes_[0].live * lanes_.size());
  for (const Conn& conn : conns_) {
    for (const TimerHandle handle : conn.timers) {
      if (handle != kInvalidTimerHandle) {
        handles.push_back(handle);
      }
    }
  }
  report.teardown_collected = handles.size();
  report.teardown_canceled = service_->CancelBatch(handles);
  for (Conn& conn : conns_) {
    for (TimerHandle& handle : conn.timers) {
      handle = kInvalidTimerHandle;
    }
  }
  for (Lane& lane : lanes_) {
    lane.live = 0;
  }
  report.final_live_timers = service_->Size();

  uint64_t fp = Mix64(options_.seed);
  fp = Fold(fp, report.connections);
  fp = Fold(fp, report.lanes);
  fp = Fold(fp, report.ticks);
  fp = Fold(fp, report.segments_sent);
  fp = Fold(fp, report.acks_received);
  fp = Fold(fp, report.segments_received);
  fp = Fold(fp, report.retransmits_fired);
  fp = Fold(fp, report.keepalive_probes);
  fp = Fold(fp, report.idle_closures);
  fp = Fold(fp, report.delayed_acks_fired);
  fp = Fold(fp, report.delayed_acks_coalesced);
  fp = Fold(fp, report.stale_fires);
  fp = Fold(fp, report.timers_scheduled);
  fp = Fold(fp, report.timers_canceled);
  fp = Fold(fp, report.timers_rescheduled);
  fp = Fold(fp, report.peak_live_timers);
  fp = Fold(fp, report.teardown_collected);
  fp = Fold(fp, report.teardown_canceled);
  fp = Fold(fp, report.final_live_timers);
  report.fingerprint = fp;
  return report;
}

C10MReport C10MServer::Run() { return RunLanes(1); }

C10MReport C10MServer::RunThreaded() { return RunLanes(lanes_.size()); }

C10MReport C10MServer::RunLanes(size_t width) {
  // Lanes are fully independent, so running them to completion one after
  // another is indistinguishable from interleaving them tick by tick.
  WorkerPool(width).Run(lanes_.size(), [this](size_t i) { RunLane(lanes_[i]); });
  return Finish();
}

}  // namespace tempo
