#include "service/synopsis_store.h"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"
#include "core/drift_baseline.h"
#include "gov/fault_injector.h"
#include "storage/extent/codec.h"
#include "storage/extent/format.h"

namespace aqp {
namespace service {
namespace {

// docs/STORAGE.md §8.1 — sidecar header: magic "AQPS", format version,
// entry count, reserved. Bumping the record layout bumps this version; a
// reader seeing a version it does not know refuses the whole file (§9).
// Version 2: a baseline column is its ColumnStats (§8.4).
constexpr uint32_t kSidecarVersion = 2;

void PutString(ByteWriter& w, const std::string& s) {
  w.PutU32(static_cast<uint32_t>(s.size()));
  w.PutBytes(s.data(), s.size());
}

Result<std::string> GetString(ByteReader& r) {
  AQP_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  if (n > r.remaining()) {
    return Status::InvalidArgument("string length exceeds buffer");
  }
  std::string s(n, '\0');
  AQP_RETURN_IF_ERROR(r.GetBytes(s.data(), n));
  return s;
}

template <typename T, typename PutFn>
void PutVector(ByteWriter& w, const std::vector<T>& v, PutFn put) {
  w.PutU64(v.size());
  for (const T& x : v) put(w, x);
}

// docs/STORAGE.md §8.3 — one record's payload. The StoredSample's table
// rides as a §8.2 table blob (same chunk encoding as extent files).
std::string SerializeEntry(const PersistedSynopsis& p) {
  ByteWriter w;
  PutString(w, p.table);
  w.PutU64(p.catalog_version);
  PutString(w, p.spec.strata_column);
  w.PutU64(p.spec.budget);
  w.PutU64(p.spec.seed);
  w.PutDouble(p.built_unix_seconds);
  w.PutDouble(p.drift_score);

  const core::StoredSample& s = *p.sample;
  PutString(w, s.base_table);
  PutString(w, s.strata_column);
  w.PutU64(s.budget);
  w.PutU64(s.base_rows_at_build);
  extent::WriteTableBlob(s.sample.table, &w);
  PutVector(w, s.sample.weights,
            [](ByteWriter& w, double v) { w.PutDouble(v); });
  PutVector(w, s.sample.unit_ids,
            [](ByteWriter& w, uint32_t v) { w.PutU32(v); });
  PutVector(w, s.sample.unit_sizes,
            [](ByteWriter& w, double v) { w.PutDouble(v); });
  w.PutU64(s.sample.num_units_sampled);
  w.PutU64(s.sample.num_units_population);
  w.PutDouble(s.sample.nominal_rate);
  w.PutU64(s.sample.population_rows);

  w.PutU8(p.baseline != nullptr ? 1 : 0);
  if (p.baseline != nullptr) {
    const core::TableDriftBaseline& b = *p.baseline;
    PutString(w, b.table);
    w.PutU64(b.catalog_version);
    w.PutU64(b.rows);
    w.PutDouble(b.built_unix_seconds);
    w.PutU64(b.columns.size());
    for (const auto& [name, stats] : b.columns) {
      PutString(w, name);
      WriteColumnStats(stats, &w);
    }
  }
  return w.Take();
}

template <typename T, typename GetFn>
Result<std::vector<T>> GetVector(ByteReader& r, size_t elem_bytes,
                                 GetFn get) {
  AQP_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
  if (n * elem_bytes > r.remaining()) {
    return Status::InvalidArgument("vector length exceeds buffer");
  }
  std::vector<T> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    AQP_ASSIGN_OR_RETURN(T x, get(r));
    v.push_back(std::move(x));
  }
  return v;
}

Result<PersistedSynopsis> DeserializeEntry(std::string_view payload) {
  ByteReader r(payload);
  PersistedSynopsis p;
  AQP_ASSIGN_OR_RETURN(p.table, GetString(r));
  AQP_ASSIGN_OR_RETURN(p.catalog_version, r.GetU64());
  AQP_ASSIGN_OR_RETURN(p.spec.strata_column, GetString(r));
  AQP_ASSIGN_OR_RETURN(p.spec.budget, r.GetU64());
  AQP_ASSIGN_OR_RETURN(p.spec.seed, r.GetU64());
  AQP_ASSIGN_OR_RETURN(p.built_unix_seconds, r.GetDouble());
  AQP_ASSIGN_OR_RETURN(p.drift_score, r.GetDouble());

  core::StoredSample s;
  AQP_ASSIGN_OR_RETURN(s.base_table, GetString(r));
  AQP_ASSIGN_OR_RETURN(s.strata_column, GetString(r));
  AQP_ASSIGN_OR_RETURN(s.budget, r.GetU64());
  AQP_ASSIGN_OR_RETURN(s.base_rows_at_build, r.GetU64());
  AQP_ASSIGN_OR_RETURN(s.sample.table, extent::ReadTableBlob(&r));
  AQP_ASSIGN_OR_RETURN(
      s.sample.weights,
      (GetVector<double>(r, sizeof(double),
                         [](ByteReader& r) { return r.GetDouble(); })));
  AQP_ASSIGN_OR_RETURN(
      s.sample.unit_ids,
      (GetVector<uint32_t>(r, sizeof(uint32_t),
                           [](ByteReader& r) { return r.GetU32(); })));
  AQP_ASSIGN_OR_RETURN(
      s.sample.unit_sizes,
      (GetVector<double>(r, sizeof(double),
                         [](ByteReader& r) { return r.GetDouble(); })));
  AQP_ASSIGN_OR_RETURN(s.sample.num_units_sampled, r.GetU64());
  AQP_ASSIGN_OR_RETURN(s.sample.num_units_population, r.GetU64());
  AQP_ASSIGN_OR_RETURN(s.sample.nominal_rate, r.GetDouble());
  AQP_ASSIGN_OR_RETURN(s.sample.population_rows, r.GetU64());
  p.sample = std::make_shared<const core::StoredSample>(std::move(s));

  AQP_ASSIGN_OR_RETURN(uint8_t has_baseline, r.GetU8());
  if (has_baseline != 0) {
    core::TableDriftBaseline b;
    AQP_ASSIGN_OR_RETURN(b.table, GetString(r));
    AQP_ASSIGN_OR_RETURN(b.catalog_version, r.GetU64());
    AQP_ASSIGN_OR_RETURN(b.rows, r.GetU64());
    AQP_ASSIGN_OR_RETURN(b.built_unix_seconds, r.GetDouble());
    AQP_ASSIGN_OR_RETURN(uint64_t num_columns, r.GetU64());
    if (num_columns > r.remaining()) {
      return Status::InvalidArgument("baseline column count exceeds buffer");
    }
    b.columns.reserve(num_columns);
    for (uint64_t i = 0; i < num_columns; ++i) {
      AQP_ASSIGN_OR_RETURN(std::string name, GetString(r));
      AQP_ASSIGN_OR_RETURN(ColumnStats stats, ReadColumnStats(&r));
      b.columns.emplace_back(std::move(name), std::move(stats));
    }
    p.baseline =
        std::make_shared<const core::TableDriftBaseline>(std::move(b));
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes after synopsis entry");
  }
  return p;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "rb"),
                                          std::fclose);
  if (f == nullptr) {
    return Status::NotFound("cannot open synopsis sidecar: " + path);
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    out.append(buf, n);
  }
  if (std::ferror(f.get())) {
    return Status::Internal("read error on synopsis sidecar: " + path);
  }
  return out;
}

}  // namespace

Result<uint64_t> SaveSynopses(
    const std::string& path, const std::vector<PersistedSynopsis>& entries) {
  ByteWriter w;
  w.PutU32(extent::kSynopsisMagic);
  w.PutU32(kSidecarVersion);
  w.PutU32(static_cast<uint32_t>(entries.size()));
  w.PutU32(0);  // Reserved (docs/STORAGE.md §8.1).
  for (const PersistedSynopsis& p : entries) {
    if (p.sample == nullptr) {
      return Status::InvalidArgument("cannot persist a synopsis without its "
                                     "sample: " + p.table);
    }
    const std::string payload = SerializeEntry(p);
    w.PutU64(payload.size());
    w.PutU32(Crc32(payload.data(), payload.size()));
    w.PutBytes(payload.data(), payload.size());
  }
  const std::string bytes = w.Take();

  const std::string tmp = path + ".tmp";
  {
    std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(tmp.c_str(), "wb"),
                                            std::fclose);
    if (f == nullptr) {
      return Status::Internal("cannot create synopsis sidecar: " + tmp);
    }
    Status fault = gov::FaultInjector::Global().MaybeFail("synopsis.save");
    if (fault.ok() &&
        std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
      fault = Status::Internal("short write on synopsis sidecar: " + tmp);
    }
    if (fault.ok() && std::fflush(f.get()) != 0) {
      fault = Status::Internal("flush failed on synopsis sidecar: " + tmp);
    }
    if (fault.ok()) ::fsync(fileno(f.get()));
    if (!fault.ok()) {
      f.reset();
      std::remove(tmp.c_str());
      return fault;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename synopsis sidecar into place: " +
                            path);
  }
  return static_cast<uint64_t>(bytes.size());
}

Result<std::vector<PersistedSynopsis>> LoadSynopses(
    const std::string& path, SynopsisLoadStats* stats) {
  AQP_RETURN_IF_ERROR(
      gov::FaultInjector::Global().MaybeFail("synopsis.load"));
  AQP_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(path));
  ByteReader r(bytes);
  AQP_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != extent::kSynopsisMagic) {
    return Status::InvalidArgument("not a synopsis sidecar: " + path);
  }
  AQP_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kSidecarVersion) {
    // §9: version skew is a refusal, never a best-effort parse.
    return Status::FailedPrecondition(
        "synopsis sidecar version " + std::to_string(version) +
        " unsupported (expected " + std::to_string(kSidecarVersion) + ")");
  }
  AQP_ASSIGN_OR_RETURN(uint32_t num_entries, r.GetU32());
  AQP_ASSIGN_OR_RETURN(uint32_t reserved, r.GetU32());
  (void)reserved;

  SynopsisLoadStats local;
  local.entries_in_file = num_entries;
  std::vector<PersistedSynopsis> out;
  out.reserve(num_entries);
  for (uint32_t i = 0; i < num_entries; ++i) {
    // Record framing errors (length past EOF) end the scan: nothing after a
    // torn record boundary is trustworthy. Payload errors (bad CRC, decode
    // failure) skip just this record: the frame located the next one.
    AQP_ASSIGN_OR_RETURN(uint64_t payload_bytes, r.GetU64());
    AQP_ASSIGN_OR_RETURN(uint32_t crc, r.GetU32());
    if (payload_bytes > r.remaining()) {
      return Status::InvalidArgument("synopsis sidecar truncated: " + path);
    }
    std::string payload(payload_bytes, '\0');
    AQP_RETURN_IF_ERROR(r.GetBytes(payload.data(), payload_bytes));
    if (Crc32(payload.data(), payload.size()) != crc) {
      ++local.skipped_corrupt;
      continue;
    }
    Result<PersistedSynopsis> entry = DeserializeEntry(payload);
    if (!entry.ok()) {
      ++local.skipped_corrupt;
      continue;
    }
    out.push_back(std::move(entry).value());
    ++local.loaded;
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace service
}  // namespace aqp
