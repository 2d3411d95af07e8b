// Predicates over trace records, evaluable at two granularities.
//
// A Predicate describes which records a consumer cares about: a half-open
// time range, a pid set, and an operation mask. It answers exactly
// (Matches, per record) and conservatively (MayMatch, per chunk zone map):
// when MayMatch returns false for a v3 chunk's zone, no record in that
// chunk can match, so the analysis pipeline skips the chunk without
// decoding it — the predicate-pushdown half of the v3 format. Zone maps
// are conservative by construction (min/max timestamp, a 64-bit pid bloom,
// an op bitmask), so pushdown never changes results, only work.

#ifndef TEMPO_SRC_TRACE_PREDICATE_H_
#define TEMPO_SRC_TRACE_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "src/trace/codec.h"
#include "src/trace/record.h"

namespace tempo {

// Every op bit set: records of any op pass.
inline constexpr uint8_t kAllOpsMask =
    (1u << (static_cast<uint8_t>(TimerOp::kUnblock) + 1)) - 1;

struct Predicate {
  SimTime time_begin = INT64_MIN;  // inclusive
  SimTime time_end = kNeverTime;   // exclusive
  std::vector<Pid> pids;           // empty: any pid
  uint8_t op_mask = kAllOpsMask;

  bool MatchesAll() const {
    return time_begin == INT64_MIN && time_end == kNeverTime && pids.empty() &&
           op_mask == kAllOpsMask;
  }

  bool Matches(const TraceRecord& r) const {
    if (r.timestamp < time_begin || r.timestamp >= time_end) {
      return false;
    }
    if ((op_mask & (1u << static_cast<uint8_t>(r.op))) == 0) {
      return false;
    }
    if (!pids.empty()) {
      for (const Pid pid : pids) {
        if (pid == r.pid) {
          return true;
        }
      }
      return false;
    }
    return true;
  }

  // Could any record in a chunk with this zone match? Conservative: an
  // invalid zone (v2 chunk, no zone map) always may match.
  bool MayMatch(const ChunkZone& zone) const {
    if (!zone.valid) {
      return true;
    }
    if (zone.max_timestamp < time_begin || zone.min_timestamp >= time_end) {
      return false;
    }
    if ((op_mask & zone.op_mask) == 0) {
      return false;
    }
    if (!pids.empty()) {
      for (const Pid pid : pids) {
        if ((zone.pid_digest & PidDigestBit(pid)) != 0) {
          return true;
        }
      }
      return false;
    }
    return true;
  }
};

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_PREDICATE_H_
