// E19 — persistent extents & restart-surviving synopses: do the two halves
// of the storage layer (docs/STORAGE.md) actually pay for themselves?
//
// Claim (survey §pre-computed samples, §interfaces): offline AQP's
// economics rest on artifacts that outlive a process — compressed base data
// that can be scanned selectively without materializing the whole table,
// and synopses whose build cost is paid once, not once per restart.
//
// Asserted here:
//   (a) Pruned scans beyond the memory budget. Over an extent file whose
//       decoded footprint exceeds the query memory budget several times
//       over, a bare full scan is REFUSED (ResourceExhausted, budget
//       enforced, charges drained) while the fused filter scan on a
//       selective clustered predicate answers correctly under the same
//       budget with >= 50% of extents zone-map-pruned — never read, never
//       decoded.
//   (b) Restart warm-cache. A QueryService with a data_dir persists its
//       synopsis cache at shutdown; a second service over the same
//       data_dir answers the same workload with ZERO synopsis rebuilds
//       (every answer a cache hit from adopted entries), and its
//       time-to-first-answer drops accordingly.
//
// Env: AQP_E19_ROWS overrides the extent-file row count (CI smoke uses a
// small table); the restart phase scales with it. AQP_E19_KEEP=1 leaves the
// extent file and synopsis sidecar on disk so CI can round-trip them
// through `aqpfile validate` / `aqpfile synopses` after the run.

#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "service/query_service.h"
#include "storage/extent/extent_reader.h"
#include "storage/extent/extent_writer.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

bool KeepArtifacts() {
  const char* env = std::getenv("AQP_E19_KEEP");
  return env != nullptr && *env == '1';
}

size_t TableRows() {
  return bench::EnvSize("AQP_E19_ROWS", 262144);
}

std::string TmpPath(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  return std::string(base != nullptr && *base != '\0' ? base : "/tmp") + "/" +
         name;
}

/// Base table for the pruning phase: `id` ascending (clustered, so zone
/// maps carry real information), `grp` cycling strings, `v` doubles. The
/// shape mirrors tests/engine/extent_scan_test.cc at bench scale.
Table MakePrunable(size_t rows) {
  Schema schema({{"id", DataType::kInt64},
                 {"grp", DataType::kString},
                 {"v", DataType::kDouble}});
  Column id(DataType::kInt64);
  Column grp(DataType::kString);
  Column v(DataType::kDouble);
  const char* groups[] = {"alpha", "bravo", "charlie", "delta"};
  for (size_t i = 0; i < rows; ++i) {
    id.AppendInt64(static_cast<int64_t>(i));
    grp.AppendString(groups[i % 4]);
    v.AppendDouble(static_cast<double>(i % 977) * 0.25);
  }
  return Table::Make(std::move(schema),
                     {std::move(id), std::move(grp), std::move(v)})
      .value();
}

double MedianMs(std::vector<double> ms) {
  AQP_CHECK(!ms.empty());
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

uint64_t FileBytes(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

void Run() {
  const size_t rows = TableRows();
  bench::Banner(
      "E19: persistent extents & restart-surviving synopses",
      "A selective scan over compressed extents must answer under a memory "
      "budget that refuses full materialization, pruning >= 50% of extents "
      "via zone maps; a restarted service over the same data_dir must serve "
      "the same workload with zero synopsis rebuilds.");
  std::printf("extent-file rows: %zu, hardware threads: %zu\n\n", rows,
              HardwareThreads());

  // ---- Phase (a): pruned scans beyond the memory budget ------------------
  const std::string extent_path = TmpPath("aqp_e19.aqpx");
  {
    Table base = MakePrunable(rows);
    extent::ExtentWriter::Options wo;
    wo.extent_rows = 4096;
    auto written = extent::WriteTableToExtents(extent_path, base, wo);
    AQP_CHECK(written.ok()) << written.status().ToString();

    auto reader_or = extent::ExtentReader::Open(extent_path);
    AQP_CHECK(reader_or.ok()) << reader_or.status().ToString();
    std::shared_ptr<const extent::ExtentReader> reader = reader_or.value();

    uint64_t raw_bytes = 0;
    for (const auto& ext : reader->extents()) raw_bytes += ext.raw_bytes;
    const uint64_t stored_bytes = reader->file_bytes();

    Catalog cat;
    AQP_CHECK(cat.Register("mem", std::make_shared<Table>(std::move(base)))
                  .ok());
    cat.RegisterExtentBacked("ext", reader);

    // Budget: an eighth of the decoded footprint — several times too small
    // for full materialization, comfortable for one transient per-extent
    // decode plus the selective output.
    const uint64_t budget = raw_bytes / 8;
    // Selective clustered predicate: the top ~3% of the id range, so ~97%
    // of extents are prunable by their zone maps and the output itself fits
    // well inside the budget.
    const int64_t cutoff = static_cast<int64_t>(rows - rows / 32);
    auto filter_plan = [&](const std::string& table) {
      return PlanNode::Filter(PlanNode::Scan(table),
                              Ge(Col("id"), Lit(cutoff)));
    };

    // A bare full scan must be refused under the budget, with all charges
    // drained — the budget is enforced, not advisory.
    {
      MemoryTracker memory(budget);
      ExecOptions options;
      options.memory = &memory;
      Result<Table> r =
          Execute(PlanNode::Scan("ext"), cat, nullptr, nullptr, options);
      AQP_CHECK(!r.ok() && r.status().code() == StatusCode::kResourceExhausted)
          << "full materialization of " << raw_bytes << " decoded bytes must "
          << "exceed a " << budget << "-byte budget";
      AQP_CHECK(memory.used() == 0) << "charges must drain on refusal";
    }

    // Reference answer from the in-memory twin (no budget).
    Result<Table> reference = Execute(filter_plan("mem"), cat);
    AQP_CHECK(reference.ok()) << reference.status().ToString();

    const int kReps = 5;
    std::vector<double> pruned_ms, mem_ms;
    ExecStats stats;
    for (int rep = 0; rep < kReps; ++rep) {
      MemoryTracker memory(budget);
      ExecOptions options;
      options.memory = &memory;
      bench::WallTimer t;
      ExecStats rep_stats;
      Result<Table> r =
          Execute(filter_plan("ext"), cat, &rep_stats, nullptr, options);
      pruned_ms.push_back(t.Millis());
      AQP_CHECK(r.ok()) << r.status().ToString();
      AQP_CHECK(r.value().num_rows() == reference.value().num_rows());
      AQP_CHECK(memory.used() == 0);
      stats = rep_stats;

      bench::WallTimer tm;
      Result<Table> m = Execute(filter_plan("mem"), cat);
      mem_ms.push_back(tm.Millis());
      AQP_CHECK(m.ok());
    }

    const double prune_frac =
        stats.extents_total > 0
            ? static_cast<double>(stats.extents_pruned) / stats.extents_total
            : 0.0;
    bench::TablePrinter prune_out(
        {"path", "median ms", "extents read", "extents pruned", "pruned %",
         "budget bytes", "decoded bytes"});
    prune_out.AddRow(
        {"extent fused filter (under budget)", bench::Fmt(MedianMs(pruned_ms), 3),
         std::to_string(stats.extents_total - stats.extents_pruned),
         std::to_string(stats.extents_pruned), bench::FmtPct(prune_frac),
         std::to_string(budget), std::to_string(raw_bytes)});
    prune_out.AddRow({"in-memory filter (no budget)",
                      bench::Fmt(MedianMs(mem_ms), 3), "-", "-", "-", "-",
                      std::to_string(raw_bytes)});
    prune_out.Print();
    std::printf("file: %llu stored / %llu decoded bytes (%.2fx compression), "
                "%zu extents\n\n",
                static_cast<unsigned long long>(stored_bytes),
                static_cast<unsigned long long>(raw_bytes),
                stored_bytes > 0
                    ? static_cast<double>(raw_bytes) / stored_bytes
                    : 0.0,
                reader->num_extents());

    AQP_CHECK(prune_frac >= 0.5)
        << "zone maps pruned only " << stats.extents_pruned << "/"
        << stats.extents_total
        << " extents on a clustered top-12.5% predicate";

    // ---- Phase (b): restart warm-cache ----------------------------------
    const size_t service_rows = std::max<size_t>(rows / 4, 20000);
    Result<Catalog> svc_cat_or =
        workload::GenerateLineitemLike(service_rows, 5);
    AQP_CHECK(svc_cat_or.ok());
    Catalog svc_cat = std::move(svc_cat_or).value();

    const std::string data_dir = TmpPath("aqp_e19_data");
    std::remove((data_dir + "/synopses.aqps").c_str());
    ::mkdir(data_dir.c_str(), 0755);

    service::ServiceOptions options;
    options.synopsis_rows = 5000;
    options.synopsis_min_table_rows = 10000;
    options.use_result_cache = false;  // Isolate the synopsis path.
    options.data_dir = data_dir;
    const service::Submission query{
        "SELECT SUM(extendedprice) AS s FROM lineitem WITH ERROR 5% "
        "CONFIDENCE 95%"};

    double cold_ms = 0.0, warm_ms = 0.0;
    uint64_t cold_builds = 0, warm_builds = 0, warm_adopted = 0,
             warm_hits = 0;
    {
      bench::WallTimer t;
      service::QueryService svc(&svc_cat, options);
      auto session = svc.OpenSession();
      auto r = svc.Execute(session, query);
      cold_ms = t.Millis();
      AQP_CHECK(r.ok()) << r.status().ToString();
      cold_builds = svc.synopsis_cache_stats().builds;
      AQP_CHECK(cold_builds >= 1);
    }  // Destructor persists the sidecar.
    const uint64_t sidecar_bytes = FileBytes(data_dir + "/synopses.aqps");
    {
      bench::WallTimer t;
      service::QueryService svc(&svc_cat, options);
      const service::SynopsisPersistenceStats p = svc.persistence_stats();
      AQP_CHECK(!p.load_failed);
      warm_adopted = p.adopted;
      auto session = svc.OpenSession();
      auto r = svc.Execute(session, query);
      warm_ms = t.Millis();
      AQP_CHECK(r.ok()) << r.status().ToString();
      warm_builds = svc.synopsis_cache_stats().builds;
      warm_hits = svc.synopsis_cache_stats().hits;
    }

    bench::TablePrinter restart_out(
        {"boot", "ctor + first answer ms", "synopsis builds",
         "entries adopted", "cache hits", "sidecar bytes"});
    restart_out.AddRow({"cold (empty data_dir)", bench::Fmt(cold_ms, 2),
                        std::to_string(cold_builds), "0", "0", "-"});
    restart_out.AddRow({"warm (persisted synopses)", bench::Fmt(warm_ms, 2),
                        std::to_string(warm_builds),
                        std::to_string(warm_adopted),
                        std::to_string(warm_hits),
                        std::to_string(sidecar_bytes)});
    restart_out.Print();

    AQP_CHECK(warm_adopted >= 1) << "restart adopted no persisted synopses";
    AQP_CHECK(warm_builds == 0)
        << "a warm restart rebuilt " << warm_builds
        << " synopses — persistence did not pay";
    AQP_CHECK(warm_hits >= 1);

    bench::BenchJson out("e19_persistence");
    out.SetSize("rows", rows);
    out.AddTable("pruning", prune_out);
    out.AddTable("restart", restart_out);
    out.Write();

    std::printf(
        "\nShape check: %.0f%% extents pruned under a %llu-byte budget "
        "(decoded footprint %llu); warm restart %.2fms vs cold %.2fms with "
        "%llu rebuilds.\n",
        prune_frac * 100.0, static_cast<unsigned long long>(budget),
        static_cast<unsigned long long>(raw_bytes), warm_ms, cold_ms,
        static_cast<unsigned long long>(warm_builds));

    if (!KeepArtifacts()) {
      std::remove((data_dir + "/synopses.aqps").c_str());
    }
  }
  if (!KeepArtifacts()) std::remove(extent_path.c_str());
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
