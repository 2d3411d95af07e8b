#include "src/trace/chunked.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "src/trace/wire.h"

namespace tempo {

namespace {

// Smallest possible v3 chunk: 9-byte chunk header + 10 stripes of at
// least [u8 codec][u32 length] each.
constexpr uint64_t kV3MinChunkBytes = 9 + 10 * 5;

std::nullopt_t Fail(TraceReadError reason, TraceReadError* error) {
  if (error != nullptr) {
    *error = reason;
  }
  return std::nullopt;
}

TraceReadError ChunkParseError(ChunkParse parse) {
  switch (parse) {
    case ChunkParse::kOk:
      break;
    case ChunkParse::kTruncated:
      return TraceReadError::kTruncated;
    case ChunkParse::kCorrupt:
      return TraceReadError::kCorrupt;
    case ChunkParse::kCodec:
      return TraceReadError::kCodec;
  }
  return TraceReadError::kCorrupt;
}

// Names the damage behind a v3 footer that failed its checks. The footer
// sits after variable-sized chunks, so its place comes from walking the
// 9-byte chunk headers (u8 codec, u32 raw bytes, u32 stored bytes) from
// the payload start: a file shorter than its own chunks and footer claim
// is truncated, anything else is corrupt.
TraceReadError V3FooterDamage(std::span<const uint8_t> bytes, uint64_t payload_start,
                              uint64_t chunk_count) {
  uint64_t at = payload_start;
  for (uint64_t c = 0; c < chunk_count; ++c) {
    if (bytes.size() - at < 9) {
      return TraceReadError::kTruncated;
    }
    at += 9 + uint64_t{wire::Get32(bytes.data() + at + 5)};
    if (at > bytes.size()) {
      return TraceReadError::kTruncated;
    }
  }
  const uint64_t footer = 4 + chunk_count * wire::kV3IndexEntrySize + wire::kTrailerSize;
  return bytes.size() - at < footer ? TraceReadError::kTruncated : TraceReadError::kCorrupt;
}

}  // namespace

TraceChunkReader::FileBytes::~FileBytes() {
  if (map != nullptr) {
    ::munmap(const_cast<uint8_t*>(map), map_size);
  }
}

std::optional<TraceChunkReader> TraceChunkReader::Open(const std::string& path,
                                                       TraceReadError* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Fail(TraceReadError::kIo, error);
  }
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    return Fail(TraceReadError::kIo, error);
  }
  const size_t size = static_cast<size_t>(st.st_size);

  auto file = std::make_shared<FileBytes>();
  std::span<const uint8_t> bytes;
  void* base = size > 0 ? ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0) : MAP_FAILED;
  if (base != MAP_FAILED) {
    file->map = static_cast<const uint8_t*>(base);
    file->map_size = size;
    bytes = std::span<const uint8_t>(file->map, size);
  } else {
    // Not mappable (or empty): one private copy serves every cursor.
    file->copy.resize(size);
    size_t got = 0;
    while (got < size) {
      const ssize_t n = ::read(fd, file->copy.data() + got, size - got);
      if (n <= 0) {
        return Fail(TraceReadError::kIo, error);
      }
      got += static_cast<size_t>(n);
    }
    bytes = std::span<const uint8_t>(file->copy);
  }

  std::optional<TraceChunkReader> reader = Parse(bytes, error);
  if (reader.has_value()) {
    reader->file_ = std::move(file);
  }
  return reader;
}

std::optional<TraceChunkReader> TraceChunkReader::Parse(std::span<const uint8_t> bytes,
                                                        TraceReadError* error) {
  TraceChunkReader reader;
  reader.bytes_ = bytes;
  wire::Reader parse(bytes.data(), bytes.size());
  const uint8_t* magic = parse.Raw(wire::kMagicSize);
  if (magic == nullptr || std::memcmp(magic, wire::kTraceMagic, wire::kMagicSize) != 0) {
    return Fail(TraceReadError::kMagic, error);
  }
  uint32_t& version = reader.version_;
  if (!parse.Read32(&version)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (!wire::IsTraceVersion(version)) {
    return Fail(TraceReadError::kVersion, error);
  }
  switch (wire::ReadCallsiteTable(&parse, &reader.callsites_)) {
    case wire::TableParse::kOk:
      break;
    case wire::TableParse::kTruncated:
      return Fail(TraceReadError::kTruncated, error);
    case wire::TableParse::kCorrupt:
      return Fail(TraceReadError::kCorrupt, error);
  }
  uint64_t& record_count = reader.record_count_;
  uint32_t capacity = 0;
  if (!parse.Read64(&record_count) || !parse.Read32(&capacity)) {
    return Fail(TraceReadError::kTruncated, error);
  }
  if (capacity == 0) {
    return Fail(TraceReadError::kCorrupt, error);
  }
  const uint64_t payload_start = parse.offset();
  const uint64_t chunk_count = record_count / capacity + (record_count % capacity != 0);
  const bool columnar = version == kTraceFileVersionColumnar;
  // Bound the counts by the file size before any arithmetic with them.
  if (columnar ? chunk_count > bytes.size() / kV3MinChunkBytes + 1
               : record_count > bytes.size() / kEncodedRecordSize) {
    return Fail(TraceReadError::kTruncated, error);
  }
  const uint64_t footer_size =
      4 + chunk_count * wire::IndexEntrySize(version) + wire::kTrailerSize;

  // Where the index footer starts. A v2 payload is fixed width, so the
  // header alone fixes the file size; a v3 payload is variable-sized, so
  // the footer is whatever the file ends with.
  uint64_t index_offset = 0;
  if (columnar) {
    if (bytes.size() < payload_start + footer_size) {
      return Fail(TraceReadError::kTruncated, error);
    }
    index_offset = bytes.size() - footer_size;
  } else {
    index_offset = payload_start + record_count * kEncodedRecordSize;
    if (bytes.size() < index_offset + footer_size) {
      return Fail(TraceReadError::kTruncated, error);
    }
    if (bytes.size() != index_offset + footer_size) {
      return Fail(TraceReadError::kCorrupt, error);
    }
  }
  const auto footer_damaged = [&] {
    return Fail(columnar ? V3FooterDamage(bytes, payload_start, chunk_count)
                         : TraceReadError::kCorrupt,
                error);
  };

  // The footer must point at itself, count every chunk, and its entries
  // must tile [payload_start, index_offset) exactly, with every chunk but
  // the last holding `capacity` records.
  const uint8_t* trailer = bytes.data() + bytes.size() - wire::kTrailerSize;
  const uint8_t* index = bytes.data() + index_offset;
  if (std::memcmp(trailer + 8, wire::kTraceIndexMagic, wire::kMagicSize) != 0 ||
      wire::Get64(trailer) != index_offset || wire::Get32(index) != chunk_count) {
    return footer_damaged();
  }
  reader.chunks_.reserve(chunk_count);
  uint64_t next_offset = payload_start;
  for (uint64_t c = 0; c < chunk_count; ++c) {
    const wire::IndexEntry entry =
        wire::GetIndexEntry(version, index + 4 + c * wire::IndexEntrySize(version));
    const ChunkRef chunk{entry.offset, entry.records,
                         columnar ? entry.stored : uint64_t{entry.records} * kEncodedRecordSize,
                         entry.zone};
    const uint32_t expected_records =
        c + 1 < chunk_count || record_count % capacity == 0
            ? capacity
            : static_cast<uint32_t>(record_count % capacity);
    if (chunk.offset != next_offset || chunk.records != expected_records ||
        (columnar && chunk.stored_bytes < kV3MinChunkBytes) ||
        chunk.stored_bytes > index_offset - chunk.offset) {
      return footer_damaged();
    }
    next_offset += chunk.stored_bytes;
    reader.payload_bytes_ += chunk.stored_bytes;
    reader.chunks_.push_back(chunk);
  }
  if (next_offset != index_offset) {
    return footer_damaged();
  }
  return reader;
}

std::span<const TraceRecord> TraceChunkReader::Cursor::Read(size_t index,
                                                            uint16_t field_mask) {
  if (failed_ || index >= reader_->chunks_.size()) {
    failed_ = true;
    return {};
  }
  const ChunkRef& chunk = reader_->chunks_[index];
  // Parse validated that every chunk lies inside the bytes.
  const uint8_t* bytes = reader_->bytes_.data() + chunk.offset;
  if (reader_->version_ == kTraceFileVersionColumnar) {
    // Recycle the row buffer when the previous decode left every field
    // outside this mask at its default (same record count, and the
    // previous mask wrote no field this mask won't overwrite) — skips a
    // full re-initialisation pass per chunk.
    const bool recycle = decoded_.size() == chunk.records &&
                         (last_mask_ & ~field_mask) == 0;
    if (!recycle) {
      decoded_.clear();
    }
    const ChunkParse parse = DecodeV3Chunk(bytes, static_cast<size_t>(chunk.stored_bytes),
                                           chunk.records, &scratch_, &decoded_, field_mask,
                                           recycle);
    if (parse != ChunkParse::kOk) {
      failed_ = true;
      error_ = ChunkParseError(parse);
      last_mask_ = kAllTraceFields + 1;
      return {};
    }
    last_mask_ = field_mask;
    // Stacks are not persisted, so decoded records must surface the
    // in-memory "no stack" id. An unprojected stack field is already
    // default-initialised to it — skipping the pass over the records
    // matters when projection made decoding this chunk cheap.
    if ((field_mask & kFieldStack) != 0) {
      for (TraceRecord& record : decoded_) {
        record.stack = kEmptyStack;
      }
    }
    return std::span<const TraceRecord>(decoded_.data(), decoded_.size());
  }
  decoded_.clear();
  decoded_.reserve(chunk.records);
  for (uint32_t i = 0; i < chunk.records; ++i) {
    auto record = DecodeRecord(bytes + static_cast<size_t>(i) * kEncodedRecordSize);
    if (!record.has_value()) {
      failed_ = true;
      error_ = TraceReadError::kCorrupt;
      return {};
    }
    record->stack = kEmptyStack;
    decoded_.push_back(*record);
  }
  return std::span<const TraceRecord>(decoded_.data(), decoded_.size());
}

}  // namespace tempo
