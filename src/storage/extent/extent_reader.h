#ifndef AQP_STORAGE_EXTENT_EXTENT_READER_H_
#define AQP_STORAGE_EXTENT_EXTENT_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/extent/format.h"
#include "storage/table.h"

namespace aqp {
namespace extent {

/// Read side of the extent format (docs/STORAGE.md §2): Open validates the
/// trailer, footer CRC and every index entry's bounds (§10 — a torn or
/// truncated file fails here, before any data is served); ReadExtentColumns
/// preads one extent's projected chunks into a buffer and decodes them into
/// a Table, which is exactly one morsel-aligned unit for the engine's scan
/// paths.
///
/// Immutable after Open and safe for concurrent reads from the
/// morsel pool: all reads go through positional pread on a shared fd; no
/// seek state, no mutable caches.
struct ExtentReaderOptions {
  /// Upper bound on a single pread; extents larger than this are read in
  /// several syscalls into one buffer.
  uint64_t read_buffer_bytes = 4ull << 20;

  /// Options with AQP_EXTENT_READ_BUFFER overlaid
  /// (docs/OPERATIONS.md, Storage knobs).
  static ExtentReaderOptions FromEnv();
};

class ExtentReader {
 public:
  using Options = ExtentReaderOptions;

  /// Opens and validates `path`. Every failure mode (§10) maps to a status:
  /// truncated/torn file, bad magic, unsupported version, footer CRC
  /// mismatch, or an index entry pointing outside the file.
  static Result<std::shared_ptr<const ExtentReader>> Open(
      std::string path, Options options = Options());

  ~ExtentReader();
  ExtentReader(const ExtentReader&) = delete;
  ExtentReader& operator=(const ExtentReader&) = delete;

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  uint32_t extent_target_rows() const { return extent_target_rows_; }
  size_t num_extents() const { return extents_.size(); }
  const ExtentMeta& extent(size_t i) const { return extents_[i]; }
  const std::vector<ExtentMeta>& extents() const { return extents_; }
  const std::string& path() const { return path_; }
  uint64_t file_bytes() const { return file_bytes_; }

  /// Reads and decodes columns `cols` (schema indices) of extent `i` into a
  /// Table whose fields are those columns, in `cols` order. Only the
  /// projected chunks are read (one pread per run of file-adjacent chunks)
  /// and decoded; the CRC of every decoded chunk is verified, so corruption
  /// is an error, never partial data. Chunks outside `cols` are neither read
  /// nor checked. The `extent.read` fault site is consulted once per call.
  Result<Table> ReadExtentColumns(size_t i,
                                  const std::vector<size_t>& cols) const;

  /// ReadExtentColumns over every column.
  Result<Table> ReadExtent(size_t i) const;

  /// ReadExtentColumns over the single column `col`.
  Result<Column> ReadColumnChunk(size_t i, size_t col) const;

  /// Full-file verification: decodes every chunk of every extent (CRC +
  /// structural checks) without keeping the data. What `aqpfile validate`
  /// runs.
  Status ValidateAll() const;

 private:
  ExtentReader(std::string path, Options options, int fd, uint64_t file_bytes);

  Status PreadFully(void* out, size_t len, uint64_t offset) const;
  Status ParseFooter(std::string_view footer);

  const std::string path_;
  const Options options_;
  int fd_ = -1;
  uint64_t file_bytes_ = 0;

  Schema schema_;
  uint64_t num_rows_ = 0;
  uint32_t extent_target_rows_ = kDefaultExtentRows;
  std::vector<ExtentMeta> extents_;
};

}  // namespace extent
}  // namespace aqp

#endif  // AQP_STORAGE_EXTENT_EXTENT_READER_H_
