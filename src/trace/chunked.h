// Streaming access to trace files, chunk by chunk.
//
// TraceChunkReader is the one parser of the trace-file layout (file.h):
// it validates the header (call-site table) and the index footer, and then
// hands out fixed-size batches of decoded records on demand — the whole
// trace is never materialized. v3 index entries additionally carry each
// chunk's zone map (ChunkRef::zone), which predicate-carrying consumers use
// to skip chunks without decoding them. ReadTraceFile and DeserializeTrace
// are this reader plus a loop over every chunk.
//
// Read path: the reader parses one contiguous byte view of the whole file.
// Open memory-maps the file read-only, so cursors decode straight out of
// the page cache with no read syscalls or staging copies; when mapping
// fails it reads the file into one private buffer instead. Parse views
// bytes the caller already holds.
//
// Concurrency model: the reader itself is immutable after Open and safe
// to share across threads. Each worker thread creates its own Cursor,
// which owns a private decode buffer over the shared bytes; Cursor::Read
// serves any chunk in any order, so N workers can stream disjoint chunk
// ranges in parallel (this is what analysis/pipeline.h does).

#ifndef TEMPO_SRC_TRACE_CHUNKED_H_
#define TEMPO_SRC_TRACE_CHUNKED_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/trace/callsite.h"
#include "src/trace/codec.h"
#include "src/trace/file.h"

namespace tempo {

class TraceChunkReader {
 public:
  // One chunk's location on disk. `stored_bytes` is the chunk's on-disk
  // footprint (fixed records * 48 for v2, the compressed size for v3);
  // `zone` is valid only for v3 chunks.
  struct ChunkRef {
    uint64_t offset = 0;  // absolute file offset of the chunk
    uint32_t records = 0;
    uint64_t stored_bytes = 0;
    ChunkZone zone;
  };

  // Parses the header and chunk index of `path`. On failure returns
  // nullopt with the reason in `*error` when given.
  static std::optional<TraceChunkReader> Open(const std::string& path,
                                              TraceReadError* error = nullptr);

  // As Open, over a whole trace file already in memory. The reader and its
  // cursors view `bytes` in place, so `bytes` must outlive them.
  static std::optional<TraceChunkReader> Parse(std::span<const uint8_t> bytes,
                                               TraceReadError* error = nullptr);

  uint32_t version() const { return version_; }
  uint64_t record_count() const { return record_count_; }
  size_t chunk_count() const { return chunks_.size(); }
  const ChunkRef& chunk(size_t index) const { return chunks_[index]; }
  const CallsiteRegistry& callsites() const { return callsites_; }
  // Total on-disk bytes of all record chunks (excludes header and index).
  uint64_t payload_bytes() const { return payload_bytes_; }
  // True when Open memory-mapped the file.
  bool mapped() const { return file_ != nullptr && file_->map != nullptr; }

  // A per-thread read position with a private decode buffer. Spans
  // returned by Read are valid until the next Read on the same cursor (or
  // its destruction).
  class Cursor {
   public:
    explicit Cursor(const TraceChunkReader* reader) : reader_(reader) {}

    // Decodes chunk `index`. Returns an empty span and sets error() on a
    // corrupt chunk or an index out of range; an empty trace has no
    // chunks, so an empty result always means failure.
    std::span<const TraceRecord> Read(size_t index) { return Read(index, kAllTraceFields); }

    // As Read(index), but decodes only the fields in `field_mask`
    // (projection pushdown). On v3 files the unselected stripes are
    // skipped, not decoded, and the corresponding record fields come
    // back default-initialised; v2 rows are fixed width, so the mask
    // is ignored and every field is populated — consumers must treat
    // extra populated fields as allowed, not guaranteed.
    std::span<const TraceRecord> Read(size_t index, uint16_t field_mask);

    bool ok() const { return !failed_; }
    TraceReadError error() const { return error_; }

   private:
    const TraceChunkReader* reader_;
    std::vector<TraceRecord> decoded_;
    V3DecodeScratch scratch_;
    // Field mask of the last successful v3 decode, or kAllTraceFields+1
    // (an impossible mask) when decoded_ is not reusable. When the next
    // Read wants the same chunk size and a superset of these fields, the
    // row buffer is recycled instead of re-initialised.
    uint16_t last_mask_ = kAllTraceFields + 1;
    bool failed_ = false;
    TraceReadError error_ = TraceReadError::kIo;
  };

  // Opens a new private cursor for one consumer thread.
  Cursor MakeCursor() const { return Cursor(this); }

 private:
  // The bytes Open loaded: a read-only memory map of the whole file, or
  // a private copy when mapping failed.
  struct FileBytes {
    FileBytes() = default;
    FileBytes(const FileBytes&) = delete;
    FileBytes& operator=(const FileBytes&) = delete;
    ~FileBytes();

    const uint8_t* map = nullptr;
    size_t map_size = 0;
    std::vector<uint8_t> copy;
  };

  TraceChunkReader() = default;

  uint32_t version_ = 0;
  uint64_t record_count_ = 0;
  uint64_t payload_bytes_ = 0;
  std::vector<ChunkRef> chunks_;
  CallsiteRegistry callsites_;
  std::span<const uint8_t> bytes_;          // the whole file, shared by all cursors
  std::shared_ptr<const FileBytes> file_;  // owns bytes_ after Open; null after Parse
};

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_CHUNKED_H_
