#ifndef AQP_BENCH_BENCH_UTIL_H_
#define AQP_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/json.h"

// Build provenance, stamped into every BENCH_*.json so a result can be tied
// to the exact source and configuration that produced it. The definitions
// come from CMake (bench/CMakeLists.txt); the fallbacks keep the header
// usable from targets built without them (examples, ad-hoc tools).
#ifndef AQP_GIT_SHA
#define AQP_GIT_SHA "unknown"
#endif
#ifndef AQP_BUILD_TYPE
#define AQP_BUILD_TYPE "unknown"
#endif

namespace aqp {
namespace bench {

/// The positive integer in environment variable `name`, else `fallback`:
/// how a bench's size knob (AQP_E17_ROWS, ...) resolves.
inline size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr && *env != '\0') {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

/// Wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Millis() const { return Seconds() * 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimal fixed-width table printer for experiment output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    AQP_CHECK(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
      for (const auto& row : rows_) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    size_t total = 0;
    for (size_t w : widths) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Machine-readable twin of the human tables: collects one or more named
/// TablePrinters and writes `BENCH_<id>.json` next to wherever the bench
/// ran, feeding the perf-trajectory loop. Schema (see README.md):
///   {"bench": id, "schema_version": 1,
///    "provenance": {..., "sizes": {"rows": n, ...}},
///    "tables": [{"name", "headers": [...],
///                "rows": [{header: cell, ...}, ...]}, ...]}
/// Cells are the exact formatted strings printed in the human table.
/// "sizes" holds the sizes the run resolved (SetSize), which
/// tools/bench_compare.py checks against the baseline's before it compares
/// a single cell.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_id) : bench_id_(std::move(bench_id)) {}

  /// Copies the table, so scoped printers may be added and die before
  /// Write().
  void AddTable(const std::string& name, const TablePrinter& table) {
    tables_.emplace_back(name, table);
  }

  /// Stamps an effective run size (e.g. "rows") into the provenance.
  void SetSize(const std::string& name, uint64_t value) {
    sizes_.emplace_back(name, value);
  }

  /// Writes BENCH_<id>.json in the working directory; returns the filename
  /// (empty on I/O failure, with a warning on stderr).
  std::string Write() const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("bench").Value(bench_id_);
    w.Key("schema_version").Value(uint64_t{1});
    w.Key("provenance").BeginObject();
    w.Key("git_sha").Value(AQP_GIT_SHA);
    w.Key("build_type").Value(AQP_BUILD_TYPE);
    const char* threads = std::getenv("AQP_NUM_THREADS");
    w.Key("aqp_num_threads").Value(threads != nullptr ? threads : "");
    char stamp[32] = "";
    std::time_t now = std::time(nullptr);
    std::tm tm_utc;
    if (gmtime_r(&now, &tm_utc) != nullptr) {
      std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    }
    w.Key("timestamp_utc").Value(stamp);
    w.Key("sizes").BeginObject();
    for (const auto& [name, value] : sizes_) w.Key(name).Value(value);
    w.EndObject();
    w.EndObject();
    w.Key("tables").BeginArray();
    for (const auto& [name, table] : tables_) {
      w.BeginObject();
      w.Key("name").Value(name);
      w.Key("headers").BeginArray();
      for (const std::string& h : table.headers()) w.Value(h);
      w.EndArray();
      w.Key("rows").BeginArray();
      for (const auto& row : table.rows()) {
        w.BeginObject();
        for (size_t c = 0; c < row.size(); ++c) {
          w.Key(table.headers()[c]).Value(row[c]);
        }
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::string path = "BENCH_" + bench_id_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return "";
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\n[bench] wrote %s\n", path.c_str());
    return path;
  }

 private:
  std::string bench_id_;
  std::vector<std::pair<std::string, TablePrinter>> tables_;
  std::vector<std::pair<std::string, uint64_t>> sizes_;
};

/// One-table shorthand: the common bench shape is a single table. `rows`,
/// when nonzero, is stamped as the run's "rows" size.
inline void WriteBenchJson(const std::string& bench_id,
                           const TablePrinter& table, uint64_t rows = 0) {
  BenchJson json(bench_id);
  json.AddTable("main", table);
  if (rows > 0) json.SetSize("rows", rows);
  json.Write();
}

inline std::string Fmt(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string FmtPct(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, v * 100.0);
  return buf;
}

inline std::string FmtSci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

inline void Banner(const std::string& title, const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), claim.c_str());
}

}  // namespace bench
}  // namespace aqp

#endif  // AQP_BENCH_BENCH_UTIL_H_
