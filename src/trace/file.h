// Trace files: persisting a trace (records + call-site table) to disk.
//
// The study's workflow was to log binary records into the kernel buffer,
// read them out after the run, and convert to text for analysis
// (Section 3.2). tempo's equivalent: TraceRun -> WriteTraceFile ->
// tools/trace2txt | tools/tracestat, or ReadTraceFile back into the
// analysis pipeline.
//
// Two on-disk layouts share one header and one footer shape (little
// endian; src/trace/wire.h writes and parses both):
//
//   header:
//     "TEMPOTRC" magic, u32 version (2 or 3)
//     u32 callsite count, then per call-site: u32 id, u32 parent,
//         u16 name length, name bytes
//     u64 record count, u32 chunk capacity (records per full chunk)
//
//   v2 (chunked):
//     chunks of codec.h fixed-width records, every chunk `capacity`
//         records except a shorter final one
//     index footer: u32 chunk count, then per chunk u64 file offset +
//         u32 record count; u64 footer offset; "TEMPOIDX" trailer magic.
//
//   v3 (columnar, compressed):
//     self-describing columnar chunks (codec.h EncodeV3Chunk): one stripe
//         per record field, per-stripe codec ids, optional block
//         compression — chunks are variable-sized on disk
//     index footer: u32 chunk count, then per chunk u64 file offset,
//         u32 stored bytes, u32 record count, and a zone map (u64 min/max
//         timestamp, u64 pid digest, u8 op mask); u64 footer offset;
//         "TEMPOIDX" trailer magic.
//
// TraceChunkReader (chunked.h) is the one parser of both: it validates the
// header and the index footer and hands out chunks to parallel workers
// without materializing the whole trace; the v3 zone maps additionally let
// predicate-carrying consumers skip chunks without decoding them.
// ReadTraceFile and DeserializeTrace are that reader plus a loop that
// decodes every chunk.

#ifndef TEMPO_SRC_TRACE_FILE_H_
#define TEMPO_SRC_TRACE_FILE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/codec.h"

namespace tempo {

inline constexpr uint32_t kTraceFileVersionChunked = 2;
inline constexpr uint32_t kTraceFileVersionColumnar = 3;

// Records per full chunk in a v2 file. 64Ki records x 48 bytes = 3 MiB of
// payload per chunk: large enough that per-chunk overheads vanish, small
// enough that a 4-worker pipeline balances even short traces.
inline constexpr uint32_t kDefaultChunkRecords = 64 * 1024;

// Why a trace failed to load. io: the file could not be opened or read;
// magic: not a tempo trace; version: a tempo trace from an unknown format
// revision; truncated: the payload ends before the declared content does;
// corrupt: the content is self-inconsistent (bad record op, out-of-order
// call-site table, index that contradicts the header); codec: a v3 chunk
// uses a stripe or block codec this build does not know (a newer writer's
// file — distinct from corruption so tools can say so).
enum class TraceReadError : uint8_t {
  kIo = 0,
  kMagic = 1,
  kVersion = 2,
  kTruncated = 3,
  kCorrupt = 4,
  kCodec = 5,
};

// Short mnemonic ("truncated file", ...) for error messages.
const char* TraceReadErrorName(TraceReadError error);

// A trace loaded from disk.
struct LoadedTrace {
  std::vector<TraceRecord> records;
  CallsiteRegistry callsites;
};

// Output-format knobs for WriteTraceFile / SerializeTrace.
struct TraceWriteOptions {
  uint32_t version = kTraceFileVersionChunked;
  uint32_t chunk_records = kDefaultChunkRecords;  // v2/v3
  // v3 only: block codec applied per chunk (falls back to uncompressed
  // automatically on chunks the codec cannot shrink). Off by default:
  // the columnar stripes alone are ~0.3x of v2 and decode faster than
  // the row format, while TempoLz buys another ~25% of disk at roughly
  // half the scan speed — worth it for cold archives, not for traces
  // that are still being queried.
  BlockCodecId block_codec = BlockCodecId::kNone;
};

// Writes records + call-site table to `path` (chunked v2 by default).
// Returns false, writing nothing, when `options.version` is neither 2 nor
// 3; false on I/O error.
bool WriteTraceFile(const std::string& path, const std::vector<TraceRecord>& records,
                    const CallsiteRegistry& callsites,
                    const TraceWriteOptions& options = {});

// Reads a v2 or v3 trace file; nullopt on failure, with the reason in
// `*error` when given. A v3 chunk whose decoded records contradict its
// index entry's zone map is corrupt.
std::optional<LoadedTrace> ReadTraceFile(const std::string& path,
                                         TraceReadError* error = nullptr);

// In-memory (de)serialisation, used by the file functions and directly
// testable without touching disk. SerializeTrace returns no bytes for a
// version other than 2 or 3.
std::vector<uint8_t> SerializeTrace(const std::vector<TraceRecord>& records,
                                    const CallsiteRegistry& callsites,
                                    const TraceWriteOptions& options = {});
std::optional<LoadedTrace> DeserializeTrace(const std::vector<uint8_t>& bytes,
                                            TraceReadError* error = nullptr);

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_FILE_H_
