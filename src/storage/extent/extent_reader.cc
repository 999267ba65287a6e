#include "storage/extent/extent_reader.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"
#include "gov/fault_injector.h"
#include "obs/metrics.h"
#include "storage/extent/codec.h"

namespace aqp {
namespace extent {

namespace {

void CountExtentRead(uint64_t bytes) {
  if (!obs::Enabled()) return;
  static obs::Counter* extents =
      obs::MetricsRegistry::Global().GetCounter("storage.extent.read");
  static obs::Counter* read_bytes =
      obs::MetricsRegistry::Global().GetCounter("storage.extent.bytes_read");
  extents->Increment();
  read_bytes->Increment(bytes);
}

void CountCorruption() {
  if (!obs::Enabled()) return;
  static obs::Counter* corrupt = obs::MetricsRegistry::Global().GetCounter(
      "storage.extent.corruption_detected");
  corrupt->Increment();
}

Status Corrupt(const std::string& path, const std::string& what) {
  CountCorruption();
  return Status::InvalidArgument("extent file " + path + ": " + what);
}

}  // namespace

ExtentReaderOptions ExtentReaderOptions::FromEnv() {
  ExtentReaderOptions o;
  if (const char* v = std::getenv("AQP_EXTENT_READ_BUFFER");
      v != nullptr && *v != '\0') {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end != v && parsed > 0) o.read_buffer_bytes = parsed;
  }
  return o;
}

ExtentReader::ExtentReader(std::string path, Options options, int fd,
                           uint64_t file_bytes)
    : path_(std::move(path)),
      options_(options),
      fd_(fd),
      file_bytes_(file_bytes) {}

ExtentReader::~ExtentReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status ExtentReader::PreadFully(void* out, size_t len, uint64_t offset) const {
  char* p = static_cast<char*>(out);
  while (len > 0) {
    const size_t want =
        std::min<size_t>(len, std::max<uint64_t>(options_.read_buffer_bytes,
                                                 64 * 1024));
    const ssize_t n = ::pread(fd_, p, want, static_cast<off_t>(offset));
    if (n < 0) {
      return Status::Internal("pread failed on extent file: " + path_);
    }
    if (n == 0) {
      return Status::OutOfRange("extent file truncated mid-read: " + path_);
    }
    p += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Result<std::shared_ptr<const ExtentReader>> ExtentReader::Open(
    std::string path, Options options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("extent file not found: " + path);
  }
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Status::Internal("cannot stat extent file: " + path);
  }
  std::shared_ptr<ExtentReader> reader(new ExtentReader(
      std::move(path), options, fd, static_cast<uint64_t>(end)));

  // §10: every structural check below runs before any data is served.
  if (reader->file_bytes_ < kFileHeaderBytes + kTrailerBytes) {
    return Corrupt(reader->path_, "too small for header + trailer (torn write?)");
  }
  // §2.1 header.
  char header_buf[kFileHeaderBytes];
  AQP_RETURN_IF_ERROR(
      reader->PreadFully(header_buf, sizeof(header_buf), 0));
  ByteReader header(std::string_view(header_buf, sizeof(header_buf)));
  AQP_ASSIGN_OR_RETURN(uint32_t magic, header.GetU32());
  AQP_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (magic != kFileMagic) {
    return Corrupt(reader->path_, "bad magic (not an extent file)");
  }
  if (version != kFormatVersion) {
    // §9: format versions are not forward-compatible; readers reject rather
    // than guess.
    return Status::FailedPrecondition(
        "extent file " + reader->path_ + ": unsupported format version " +
        std::to_string(version));
  }
  // §2.3 trailer.
  char trailer_buf[kTrailerBytes];
  AQP_RETURN_IF_ERROR(reader->PreadFully(
      trailer_buf, sizeof(trailer_buf), reader->file_bytes_ - kTrailerBytes));
  ByteReader trailer(std::string_view(trailer_buf, sizeof(trailer_buf)));
  AQP_ASSIGN_OR_RETURN(uint64_t footer_offset, trailer.GetU64());
  AQP_ASSIGN_OR_RETURN(uint64_t footer_size, trailer.GetU64());
  AQP_ASSIGN_OR_RETURN(uint32_t footer_crc, trailer.GetU32());
  AQP_ASSIGN_OR_RETURN(uint32_t trailer_magic, trailer.GetU32());
  if (trailer_magic != kTrailerMagic) {
    return Corrupt(reader->path_,
                   "bad trailer magic (torn write or truncation)");
  }
  if (footer_offset < kFileHeaderBytes ||
      footer_size > reader->file_bytes_ - kTrailerBytes ||
      footer_offset + footer_size != reader->file_bytes_ - kTrailerBytes) {
    return Corrupt(reader->path_, "footer bounds inconsistent with file size");
  }
  // §6 footer, CRC-checked as one unit (§7).
  std::string footer(footer_size, '\0');
  AQP_RETURN_IF_ERROR(
      reader->PreadFully(footer.data(), footer.size(), footer_offset));
  if (Crc32(footer.data(), footer.size()) != footer_crc) {
    return Corrupt(reader->path_, "footer CRC32 mismatch");
  }
  if (Status s = reader->ParseFooter(footer); !s.ok()) {
    CountCorruption();
    return s;
  }
  // Index bounds: no chunk may reach past the footer.
  uint64_t expected_row_start = 0;
  for (const ExtentMeta& e : reader->extents_) {
    if (e.file_offset < kFileHeaderBytes ||
        e.byte_size > footer_offset ||
        e.file_offset + e.byte_size > footer_offset) {
      return Corrupt(reader->path_, "extent index points outside data region");
    }
    if (e.row_start != expected_row_start || e.row_count == 0) {
      return Corrupt(reader->path_, "extent index row ranges inconsistent");
    }
    expected_row_start += e.row_count;
    if (e.chunks.size() != reader->schema_.num_fields()) {
      return Corrupt(reader->path_, "extent chunk count != schema width");
    }
    for (const ChunkMeta& c : e.chunks) {
      if (c.bytes < kChunkHeaderBytes || c.offset > e.byte_size ||
          c.offset + c.bytes > e.byte_size) {
        return Corrupt(reader->path_, "chunk bounds outside extent");
      }
    }
  }
  if (expected_row_start != reader->num_rows_) {
    return Corrupt(reader->path_, "extent rows do not sum to table rows");
  }
  return std::shared_ptr<const ExtentReader>(std::move(reader));
}

Status ExtentReader::ParseFooter(std::string_view footer) {
  ByteReader r(footer);
  AQP_ASSIGN_OR_RETURN(uint32_t num_fields, r.GetU32());
  if (num_fields == 0 || num_fields > 16384) {
    return Corrupt(path_, "implausible schema width in footer");
  }
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint32_t f = 0; f < num_fields; ++f) {
    AQP_ASSIGN_OR_RETURN(uint64_t name_len, GetVarint(&r));
    if (name_len > r.remaining()) {
      return Corrupt(path_, "field name overruns footer");
    }
    std::string name(name_len, '\0');
    AQP_RETURN_IF_ERROR(r.GetBytes(name.data(), name_len));
    AQP_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    if (type > static_cast<uint8_t>(DataType::kBool)) {
      return Corrupt(path_, "unknown column type in footer");
    }
    fields.push_back(Field{std::move(name), static_cast<DataType>(type)});
  }
  schema_ = Schema(std::move(fields));
  AQP_ASSIGN_OR_RETURN(num_rows_, r.GetU64());
  AQP_ASSIGN_OR_RETURN(extent_target_rows_, r.GetU32());
  AQP_ASSIGN_OR_RETURN(uint32_t num_extents, r.GetU32());
  // Each index entry is >= 37 bytes; a count larger than the footer itself
  // is a corruption, not a reservation request.
  if (num_extents > footer.size()) {
    return Corrupt(path_, "implausible extent count in footer");
  }
  extents_.clear();
  extents_.reserve(num_extents);
  for (uint32_t i = 0; i < num_extents; ++i) {
    ExtentMeta e;
    AQP_ASSIGN_OR_RETURN(e.file_offset, r.GetU64());
    AQP_ASSIGN_OR_RETURN(e.byte_size, r.GetU64());
    AQP_ASSIGN_OR_RETURN(e.row_start, r.GetU64());
    AQP_ASSIGN_OR_RETURN(e.row_count, r.GetU32());
    AQP_ASSIGN_OR_RETURN(e.raw_bytes, r.GetU64());
    e.chunks.reserve(num_fields);
    for (uint32_t c = 0; c < num_fields; ++c) {
      ChunkMeta cm;
      AQP_ASSIGN_OR_RETURN(cm.offset, r.GetU64());
      AQP_ASSIGN_OR_RETURN(cm.bytes, r.GetU64());
      AQP_ASSIGN_OR_RETURN(uint8_t codec, r.GetU8());
      if (codec > static_cast<uint8_t>(Codec::kBytes)) {
        return Corrupt(path_, "unknown codec id in footer");
      }
      cm.codec = static_cast<Codec>(codec);
      AQP_ASSIGN_OR_RETURN(cm.zone.null_count, r.GetU64());
      AQP_ASSIGN_OR_RETURN(uint8_t has_bounds, r.GetU8());
      cm.zone.has_bounds = has_bounds != 0;
      AQP_ASSIGN_OR_RETURN(cm.zone.min, GetValue(&r));
      AQP_ASSIGN_OR_RETURN(cm.zone.max, GetValue(&r));
      if (cm.zone.has_bounds &&
          (cm.zone.min.is_null() || cm.zone.max.is_null())) {
        return Corrupt(path_, "zone map claims bounds but stores NULL");
      }
      e.chunks.push_back(std::move(cm));
    }
    extents_.push_back(std::move(e));
  }
  if (!r.exhausted()) {
    return Corrupt(path_, "trailing bytes after footer index");
  }
  return Status::OK();
}

Result<Table> ExtentReader::ReadExtentColumns(
    size_t i, const std::vector<size_t>& cols) const {
  if (i >= extents_.size()) {
    return Status::OutOfRange("extent index out of range");
  }
  for (size_t c : cols) {
    if (c >= schema_.num_fields()) {
      return Status::OutOfRange("column index out of range");
    }
  }
  // Chaos site, once per extent: an injected read fault surfaces exactly
  // like a failed pread — the caller's ladder degrades, nothing is
  // partially decoded.
  if (Status fault = gov::FaultInjector::Global().MaybeFail("extent.read");
      !fault.ok()) {
    return fault;
  }
  // The projected chunks packed into one buffer: chunks adjacent in the
  // file are read by a single pread, unprojected chunks not at all.
  const ExtentMeta& e = extents_[i];
  std::vector<size_t> at(cols.size());  // Buffer offset of cols[k]'s chunk.
  uint64_t total = 0;
  for (size_t k = 0; k < cols.size(); ++k) {
    at[k] = total;
    total += e.chunks[cols[k]].bytes;
  }
  std::string buffer(total, '\0');
  for (size_t k = 0; k < cols.size();) {
    const uint64_t file_at = e.file_offset + e.chunks[cols[k]].offset;
    uint64_t run = e.chunks[cols[k]].bytes;
    size_t next = k + 1;
    while (next < cols.size() &&
           e.chunks[cols[next]].offset ==
               e.chunks[cols[k]].offset + run) {
      run += e.chunks[cols[next]].bytes;
      ++next;
    }
    AQP_RETURN_IF_ERROR(PreadFully(buffer.data() + at[k], run, file_at));
    k = next;
  }
  CountExtentRead(total);
  std::vector<Field> fields;
  std::vector<Column> columns;
  fields.reserve(cols.size());
  columns.reserve(cols.size());
  for (size_t k = 0; k < cols.size(); ++k) {
    const Field& field = schema_.field(cols[k]);
    Result<Column> col =
        DecodeChunk(std::string_view(buffer).substr(
                        at[k], e.chunks[cols[k]].bytes),
                    field.type, e.row_count);
    if (!col.ok()) {
      CountCorruption();
      return Status(col.status().code(),
                    "extent file " + path_ + " extent " + std::to_string(i) +
                        " column " + field.name + ": " +
                        col.status().message());
    }
    fields.push_back(field);
    columns.push_back(std::move(col).value());
  }
  return Table::Make(Schema(std::move(fields)), std::move(columns));
}

Result<Table> ExtentReader::ReadExtent(size_t i) const {
  std::vector<size_t> all(schema_.num_fields());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  return ReadExtentColumns(i, all);
}

Result<Column> ExtentReader::ReadColumnChunk(size_t i, size_t col) const {
  AQP_ASSIGN_OR_RETURN(Table t, ReadExtentColumns(i, {col}));
  return std::move(t.mutable_column(0));
}

Status ExtentReader::ValidateAll() const {
  for (size_t i = 0; i < extents_.size(); ++i) {
    AQP_ASSIGN_OR_RETURN(Table t, ReadExtent(i));
    (void)t;
  }
  return Status::OK();
}

}  // namespace extent
}  // namespace aqp
