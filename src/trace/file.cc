#include "src/trace/file.h"

#include <algorithm>
#include <cstdio>
#include <span>

#include "src/trace/chunked.h"
#include "src/trace/wire.h"

namespace tempo {

namespace {

std::nullopt_t Fail(TraceReadError reason, TraceReadError* error) {
  if (error != nullptr) {
    *error = reason;
  }
  return std::nullopt;
}

// Appends `records` as chunks of `capacity` records — fixed-width rows
// (v2) or columnar stripes (v3) — followed by their index footer.
void SerializeChunks(const std::vector<TraceRecord>& records, uint32_t version,
                     uint32_t capacity, BlockCodecId block_codec,
                     std::vector<uint8_t>* out) {
  std::vector<wire::IndexEntry> index;
  index.reserve((records.size() + capacity - 1) / capacity);
  V3EncodeScratch scratch;
  size_t next = 0;
  while (next < records.size()) {
    const size_t take = std::min<size_t>(capacity, records.size() - next);
    const std::span<const TraceRecord> chunk(records.data() + next, take);
    wire::IndexEntry entry;
    entry.offset = out->size();
    entry.records = static_cast<uint32_t>(take);
    if (version == kTraceFileVersionColumnar) {
      EncodeV3Chunk(chunk, block_codec, out, &entry.zone, &scratch);
    } else {
      for (const TraceRecord& record : chunk) {
        EncodeRecord(record, out);
      }
    }
    entry.stored = static_cast<uint32_t>(out->size() - entry.offset);
    index.push_back(entry);
    next += take;
  }
  wire::PutIndexFooter(version, index, out->size(), out);
}

// The zone EncodeV3Chunk would have produced for `records`.
ChunkZone ZoneOf(std::span<const TraceRecord> records) {
  ChunkZone zone;
  zone.valid = true;
  zone.min_timestamp = records.empty() ? 0 : records.front().timestamp;
  zone.max_timestamp = zone.min_timestamp;
  for (const TraceRecord& r : records) {
    zone.min_timestamp = std::min(zone.min_timestamp, r.timestamp);
    zone.max_timestamp = std::max(zone.max_timestamp, r.timestamp);
    zone.pid_digest |= PidDigestBit(r.pid);
    zone.op_mask |= static_cast<uint8_t>(1u << static_cast<uint8_t>(r.op));
  }
  return zone;
}

// Decodes every chunk of `reader`, in order. The one footer field a cursor
// never needs is checked here: a v3 index entry's zone map must be the
// zone of the records its chunk decodes to.
std::optional<LoadedTrace> LoadAll(const TraceChunkReader& reader, TraceReadError* error) {
  LoadedTrace trace;
  trace.callsites = reader.callsites();
  TraceChunkReader::Cursor cursor = reader.MakeCursor();
  for (size_t c = 0; c < reader.chunk_count(); ++c) {
    const std::span<const TraceRecord> chunk = cursor.Read(c);
    if (!cursor.ok()) {
      return Fail(cursor.error(), error);
    }
    if (reader.chunk(c).zone.valid && ZoneOf(chunk) != reader.chunk(c).zone) {
      return Fail(TraceReadError::kCorrupt, error);
    }
    trace.records.insert(trace.records.end(), chunk.begin(), chunk.end());
  }
  return trace;
}

}  // namespace

const char* TraceReadErrorName(TraceReadError error) {
  switch (error) {
    case TraceReadError::kIo:
      return "cannot open or read file";
    case TraceReadError::kMagic:
      return "not a tempo trace (bad magic)";
    case TraceReadError::kVersion:
      return "unsupported trace format version";
    case TraceReadError::kTruncated:
      return "truncated file";
    case TraceReadError::kCorrupt:
      return "corrupt content";
    case TraceReadError::kCodec:
      return "unknown chunk codec (file from a newer writer?)";
  }
  return "?";
}

std::vector<uint8_t> SerializeTrace(const std::vector<TraceRecord>& records,
                                    const CallsiteRegistry& callsites,
                                    const TraceWriteOptions& options) {
  if (!wire::IsTraceVersion(options.version)) {
    return {};
  }
  const uint32_t capacity = options.chunk_records > 0 ? options.chunk_records : 1;
  std::vector<uint8_t> out;
  out.reserve(64 + records.size() * kEncodedRecordSize);
  wire::PutTraceHeader(options.version, callsites, records.size(), capacity, &out);
  SerializeChunks(records, options.version, capacity, options.block_codec, &out);
  return out;
}

std::optional<LoadedTrace> DeserializeTrace(const std::vector<uint8_t>& bytes,
                                            TraceReadError* error) {
  const auto reader = TraceChunkReader::Parse(bytes, error);
  if (!reader.has_value()) {
    return std::nullopt;
  }
  return LoadAll(*reader, error);
}

bool WriteTraceFile(const std::string& path, const std::vector<TraceRecord>& records,
                    const CallsiteRegistry& callsites,
                    const TraceWriteOptions& options) {
  // A version no reader accepts must not reach the disk.
  if (!wire::IsTraceVersion(options.version)) {
    return false;
  }
  const std::vector<uint8_t> bytes = SerializeTrace(records, callsites, options);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool ok = std::fclose(file) == 0 && written == bytes.size();
  return ok;
}

std::optional<LoadedTrace> ReadTraceFile(const std::string& path,
                                         TraceReadError* error) {
  const auto reader = TraceChunkReader::Open(path, error);
  if (!reader.has_value()) {
    return std::nullopt;
  }
  return LoadAll(*reader, error);
}

}  // namespace tempo
