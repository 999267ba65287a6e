#include "storage/extent/extent_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
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

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v) return fallback;
  return static_cast<uint64_t>(parsed);
}

void CountExtentWritten(uint64_t bytes) {
  if (!obs::Enabled()) return;
  static obs::Counter* extents =
      obs::MetricsRegistry::Global().GetCounter("storage.extent.written");
  static obs::Counter* written_bytes =
      obs::MetricsRegistry::Global().GetCounter("storage.extent.bytes_written");
  extents->Increment();
  written_bytes->Increment(bytes);
}

void CountWriteFailure() {
  if (!obs::Enabled()) return;
  static obs::Counter* failures =
      obs::MetricsRegistry::Global().GetCounter("storage.extent.write_failures");
  failures->Increment();
}

}  // namespace

ExtentWriterOptions ExtentWriterOptions::FromEnv() {
  ExtentWriterOptions o;
  o.extent_rows = static_cast<uint32_t>(
      EnvU64("AQP_EXTENT_ROWS", kDefaultExtentRows));
  if (o.extent_rows == 0 || o.extent_rows % 1024 != 0) {
    o.extent_rows = kDefaultExtentRows;
  }
  if (const char* codec = std::getenv("AQP_EXTENT_CODEC"); codec != nullptr) {
    o.codec = ParseCodecChoice(codec);
  }
  o.flush_queue_bytes =
      EnvU64("AQP_EXTENT_FLUSH_BUFFER", o.flush_queue_bytes);
  return o;
}

Result<std::unique_ptr<ExtentWriter>> ExtentWriter::Create(std::string path,
                                                           Schema schema,
                                                           Options options) {
  if (options.extent_rows == 0 || options.extent_rows % 1024 != 0) {
    return Status::InvalidArgument(
        "extent_rows must be a positive multiple of 1024");
  }
  if (schema.num_fields() == 0) {
    return Status::InvalidArgument("extent file schema must have columns");
  }
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create extent file: " + path);
  }
  std::unique_ptr<ExtentWriter> writer(
      new ExtentWriter(std::move(path), std::move(schema), options, fd));
  // §2.1 file header: magic, format version, flags, reserved.
  ByteWriter header;
  header.PutU32(kFileMagic);
  header.PutU32(kFormatVersion);
  header.PutU32(0);
  header.PutU32(0);
  AQP_RETURN_IF_ERROR(
      writer->WriteFully(header.buffer().data(), header.buffer().size()));
  if (options.background_flush) {
    writer->flusher_ = std::thread([w = writer.get()] { w->FlushLoop(); });
  }
  return writer;
}

ExtentWriter::ExtentWriter(std::string path, Schema schema, Options options,
                           int fd)
    : path_(std::move(path)),
      schema_(std::move(schema)),
      options_(options),
      fd_(fd),
      pending_(schema_) {}

ExtentWriter::~ExtentWriter() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    cv_flusher_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
  if (fd_ >= 0) ::close(fd_);
}

Status ExtentWriter::WriteFully(const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd_, p, len);
    if (n < 0) {
      return Status::Internal("extent file write failed: " + path_);
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ExtentWriter::FlushExtent(const Table& rows) {
  // Chaos site: a flush failure is sticky and suppresses the footer, so the
  // partial file is rejected at Open — never silently served (§10).
  if (Status fault = gov::FaultInjector::Global().MaybeFail("extent.write");
      !fault.ok()) {
    CountWriteFailure();
    return fault;
  }
  ExtentMeta meta;
  meta.file_offset = file_offset_;
  meta.row_start = num_rows_flushed_;
  meta.row_count = static_cast<uint32_t>(rows.num_rows());
  std::string buffer;
  for (size_t c = 0; c < rows.num_columns(); ++c) {
    EncodedChunk chunk =
        EncodeChunk(rows.column(c), 0, rows.num_rows(), options_.codec);
    ChunkMeta cm;
    cm.offset = buffer.size();
    cm.bytes = chunk.bytes.size();
    cm.codec = chunk.codec;
    cm.zone = ComputeZoneMap(rows.column(c), 0, rows.num_rows());
    meta.chunks.push_back(std::move(cm));
    meta.raw_bytes += chunk.raw_bytes;
    buffer += chunk.bytes;
  }
  meta.byte_size = buffer.size();
  AQP_RETURN_IF_ERROR(WriteFully(buffer.data(), buffer.size()));
  {
    // Only the flushing thread mutates these; the lock pairs with concurrent
    // bytes_written() readers.
    std::lock_guard<std::mutex> lock(mu_);
    file_offset_ += buffer.size();
    num_rows_flushed_ += rows.num_rows();
    extents_.push_back(std::move(meta));
  }
  CountExtentWritten(buffer.size());
  return Status::OK();
}

void ExtentWriter::FlushLoop() {
  for (;;) {
    Table next;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_flusher_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ && drained.
      next = std::move(queue_.front());
      queue_.pop_front();
    }
    Status s = status_.ok() ? FlushExtent(next) : status_;
    std::unique_lock<std::mutex> lock(mu_);
    queued_bytes_ -= next.ApproxBytes();
    if (!s.ok() && status_.ok()) status_ = s;
    cv_producer_.notify_all();
  }
}

Status ExtentWriter::EmitExtent(Table rows) {
  if (!options_.background_flush) {
    Status s = FlushExtent(rows);
    if (!s.ok() && status_.ok()) status_ = s;
    return status_;
  }
  const uint64_t bytes = rows.ApproxBytes();
  std::unique_lock<std::mutex> lock(mu_);
  cv_producer_.wait(lock, [this, bytes] {
    return !status_.ok() || queued_bytes_ == 0 ||
           queued_bytes_ + bytes <= options_.flush_queue_bytes;
  });
  if (!status_.ok()) return status_;
  queued_bytes_ += bytes;
  queue_.push_back(std::move(rows));
  cv_flusher_.notify_one();
  return Status::OK();
}

Status ExtentWriter::Append(const Table& rows) {
  if (finished_) {
    return Status::FailedPrecondition("Append after Finish on extent writer");
  }
  AQP_RETURN_IF_ERROR(pending_.Append(rows));
  rows_appended_ += rows.num_rows();
  while (pending_.num_rows() >= options_.extent_rows) {
    Table extent = pending_.Slice(0, options_.extent_rows);
    Table rest = pending_.Slice(
        options_.extent_rows, pending_.num_rows() - options_.extent_rows);
    pending_ = std::move(rest);
    AQP_RETURN_IF_ERROR(EmitExtent(std::move(extent)));
  }
  return Status::OK();
}

Status ExtentWriter::Finish() {
  if (finished_) return status_;
  finished_ = true;
  if (pending_.num_rows() > 0) {
    Table tail = std::move(pending_);
    pending_ = Table(schema_);
    AQP_RETURN_IF_ERROR(EmitExtent(std::move(tail)));
  }
  // Drain and park the flusher.
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    cv_flusher_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
  if (!status_.ok()) return status_;

  // §6 footer + §2.3 trailer.
  const std::string footer = SerializeFooter();
  const uint64_t footer_offset = file_offset_;
  AQP_RETURN_IF_ERROR(WriteFully(footer.data(), footer.size()));
  ByteWriter trailer;
  trailer.PutU64(footer_offset);
  trailer.PutU64(footer.size());
  trailer.PutU32(Crc32(footer.data(), footer.size()));
  trailer.PutU32(kTrailerMagic);
  AQP_RETURN_IF_ERROR(
      WriteFully(trailer.buffer().data(), trailer.buffer().size()));
  file_offset_ += footer.size() + kTrailerBytes;
  if (::fsync(fd_) != 0) {
    return Status::Internal("fsync failed on extent file: " + path_);
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    return Status::Internal("close failed on extent file: " + path_);
  }
  fd_ = -1;
  return Status::OK();
}

std::string ExtentWriter::SerializeFooter() const {
  ByteWriter w;
  // §6.1 schema + table stats.
  w.PutU32(static_cast<uint32_t>(schema_.num_fields()));
  for (size_t f = 0; f < schema_.num_fields(); ++f) {
    const Field& field = schema_.field(f);
    PutVarint(&w, field.name.size());
    w.PutBytes(field.name.data(), field.name.size());
    w.PutU8(static_cast<uint8_t>(field.type));
  }
  w.PutU64(num_rows_flushed_);
  w.PutU32(options_.extent_rows);
  // §6.2 extent index.
  w.PutU32(static_cast<uint32_t>(extents_.size()));
  for (const ExtentMeta& e : extents_) {
    w.PutU64(e.file_offset);
    w.PutU64(e.byte_size);
    w.PutU64(e.row_start);
    w.PutU32(e.row_count);
    w.PutU64(e.raw_bytes);
    for (const ChunkMeta& c : e.chunks) {
      w.PutU64(c.offset);
      w.PutU64(c.bytes);
      w.PutU8(static_cast<uint8_t>(c.codec));
      w.PutU64(c.zone.null_count);
      w.PutU8(c.zone.has_bounds ? 1 : 0);
      PutValue(&w, c.zone.min);
      PutValue(&w, c.zone.max);
    }
  }
  return w.Take();
}

uint64_t ExtentWriter::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_offset_;
}

Result<uint64_t> WriteTableToExtents(const std::string& path,
                                     const Table& table,
                                     ExtentWriter::Options options) {
  const std::string tmp = path + ".tmp";
  {
    AQP_ASSIGN_OR_RETURN(std::unique_ptr<ExtentWriter> writer,
                         ExtentWriter::Create(tmp, table.schema(), options));
    AQP_RETURN_IF_ERROR(writer->Append(table));
    AQP_RETURN_IF_ERROR(writer->Finish());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename extent file into place: " + path);
  }
  // Reopen just to report the final size (and as a cheap self-check that the
  // freshly written file parses).
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal("cannot reopen extent file: " + path);
  const off_t size = ::lseek(fd, 0, SEEK_END);
  ::close(fd);
  if (size < 0) return Status::Internal("cannot stat extent file: " + path);
  return static_cast<uint64_t>(size);
}

}  // namespace extent
}  // namespace aqp
