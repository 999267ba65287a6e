#include "obs/query_log.h"

#include <cstdlib>
#include <string>

#include "obs/json.h"
#include "obs/trace.h"

namespace aqp {
namespace obs {

std::string QueryLogEvent::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("kind").Value(kind);
  w.Key("unix_seconds").Value(unix_seconds);
  w.Key("sql_fingerprint").Value(sql_fingerprint);
  w.Key("sql").Value(sql);
  w.Key("session_id").Value(session_id);
  w.Key("status").Value(status);
  w.Key("cache_source").Value(cache_source);
  w.Key("degradation_rung").Value(static_cast<int64_t>(degradation_rung));
  w.Key("degraded_reason").Value(degraded_reason);
  w.Key("estimated_error").Value(estimated_error);
  w.Key("pre_inflation_error").Value(pre_inflation_error);
  w.Key("admission_wait_ms").Value(admission_wait_ms);
  w.Key("queue_depth").Value(queue_depth);
  w.Key("memory_peak_bytes").Value(memory_peak_bytes);
  w.Key("wall_ms").Value(wall_ms);
  w.Key("pilot_ms").Value(pilot_ms);
  w.Key("plan_ms").Value(plan_ms);
  w.Key("final_ms").Value(final_ms);
  w.Key("slow").Value(slow);
  if (synopsis_drift_score > 0.0 || synopsis_age_seconds > 0.0) {
    w.Key("synopsis_drift_score").Value(synopsis_drift_score);
    w.Key("synopsis_age_seconds").Value(synopsis_age_seconds);
  }
  if (retry_count > 0 || retry_wait_ms > 0.0) {
    w.Key("retry_count").Value(retry_count);
    w.Key("retry_wait_ms").Value(retry_wait_ms);
  }
  if (retry_after_ms > 0) w.Key("retry_after_ms").Value(retry_after_ms);
  if (kind == "breaker" || !breaker_table.empty() || !breaker_state.empty()) {
    w.Key("breaker_table").Value(breaker_table);
    w.Key("breaker_rung").Value(static_cast<int64_t>(breaker_rung));
    w.Key("breaker_state").Value(breaker_state);
  }
  if (kind == "audit") {
    w.Key("audited_table").Value(audited_table);
    w.Key("audit_cells").Value(audit_cells);
    w.Key("audit_covered").Value(audit_covered);
    w.Key("observed_error").Value(observed_error);
  }
  if (kind == "drift") {
    w.Key("drift_table").Value(drift_table);
    w.Key("drift_score").Value(drift_score);
    w.Key("drift_ks").Value(drift_ks);
    w.Key("drift_domain_churn").Value(drift_domain_churn);
    w.Key("drift_hh_turnover").Value(drift_hh_turnover);
    w.Key("drift_moment_shift").Value(drift_moment_shift);
    w.Key("drift_worst_column").Value(drift_worst_column);
    w.Key("drift_action").Value(drift_action);
    w.Key("staleness_seconds").Value(staleness_seconds);
  }
  w.EndObject();
  return w.str();
}

QueryLogOptions QueryLogOptions::FromEnv(QueryLogOptions base) {
  if (const char* path = std::getenv("AQP_QUERY_LOG")) {
    base.sink_path = path;
  }
  if (const char* slow = std::getenv("AQP_QUERY_LOG_SLOW_MS")) {
    char* end = nullptr;
    double v = std::strtod(slow, &end);
    if (end != slow) base.slow_query_ms = v;
  }
  if (const char* cap = std::getenv("AQP_QUERY_LOG_MAX_BYTES")) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(cap, &end, 10);
    if (end != cap) base.max_file_bytes = v;
  }
  return base;
}

QueryLog::QueryLog(QueryLogOptions options) : options_(std::move(options)) {
  ring_.resize(options_.capacity > 0 ? options_.capacity : 1);
  if (!options_.sink_path.empty()) {
    file_ = std::fopen(options_.sink_path.c_str(), "ab");
    if (file_ != nullptr) {
      // Unbuffered: each drained chunk goes down in ONE write(2), and with
      // O_APPEND the kernel serializes whole writes — two QueryLogs pointed
      // at the same path (e.g. via AQP_QUERY_LOG) interleave per event, not
      // mid-line, so every line stays valid JSON.
      std::setvbuf(file_, nullptr, _IONBF, 0);
      long pos = std::ftell(file_);
      file_bytes_ = pos > 0 ? static_cast<uint64_t>(pos) : 0;
      flusher_ = std::thread([this] { FlusherLoop(); });
    }
  }
}

QueryLog::~QueryLog() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    flusher_cv_.notify_all();
    flusher_.join();
  }
  if (file_ != nullptr) std::fclose(file_);
}

void QueryLog::Append(QueryLogEvent event) {
  if (event.unix_seconds == 0.0) event.unix_seconds = NowUnixSeconds();
  if (options_.sql_prefix_chars > 0 &&
      event.sql.size() > options_.sql_prefix_chars) {
    event.sql.resize(options_.sql_prefix_chars);
  }
  event.slow = options_.slow_query_ms > 0.0 &&
               event.wall_ms >= options_.slow_query_ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (event.slow) ++slow_;
    ring_[seq_ % ring_.size()] = event;
    ++seq_;
    if (file_ != nullptr) {
      // Bound the flusher backlog: drop the oldest pending events rather
      // than letting a slow disk grow the queue (or block this thread).
      size_t limit = ring_.size() * 4;
      while (pending_.size() >= limit) {
        pending_.pop_front();
        ++sink_dropped_;
      }
      pending_.push_back(std::move(event));
    }
  }
  // Deliberately no notify: the flusher polls on a short timeout, so Append
  // never wakes another thread from the query path (a forced context switch
  // would cost more than the append itself on small machines).
}

std::vector<QueryLogEvent> QueryLog::Snapshot(size_t last_n) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t held = seq_ < ring_.size() ? static_cast<size_t>(seq_) : ring_.size();
  size_t n = (last_n == 0 || last_n > held) ? held : last_n;
  std::vector<QueryLogEvent> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t idx = seq_ - n + i;
    out.push_back(ring_[idx % ring_.size()]);
  }
  return out;
}

void QueryLog::Flush() {
  if (file_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  flushed_cv_.wait(lock, [this] { return pending_.empty() && flusher_idle_; });
  lock.unlock();
  std::lock_guard<std::mutex> file_lock(file_mu_);
  std::fflush(file_);
}

QueryLogStats QueryLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryLogStats s;
  s.appended = seq_;
  s.slow = slow_;
  s.sink_written = sink_written_;
  s.sink_dropped = sink_dropped_;
  s.rotations = rotations_;
  return s;
}

void QueryLog::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Poll on a short timeout instead of a per-Append notification: batching
    // a couple of milliseconds of events costs nothing for a log, and it
    // keeps Append() free of any cross-thread wakeup. Shutdown still
    // notifies so destruction is prompt.
    flusher_cv_.wait_for(lock, std::chrono::milliseconds(2),
                         [this] { return stop_; });
    if (pending_.empty()) {
      if (stop_) break;
      flushed_cv_.notify_all();  // Flush() waiters see empty + idle.
      continue;
    }
    std::vector<QueryLogEvent> batch(pending_.begin(), pending_.end());
    pending_.clear();
    flusher_idle_ = false;
    lock.unlock();
    WriteEvents(batch);  // Serialization + I/O happen outside mu_.
    lock.lock();
    sink_written_ += batch.size();
    flusher_idle_ = true;
    flushed_cv_.notify_all();
  }
}

void QueryLog::WriteEvents(const std::vector<QueryLogEvent>& batch) {
  std::lock_guard<std::mutex> lock(file_mu_);
  if (file_ == nullptr) return;
  // The cap is enforced per event, not per batch: one large drained batch
  // must still rotate mid-batch, never produce an oversized file.
  std::string buf;
  for (const QueryLogEvent& e : batch) {
    std::string line = e.ToJson();
    line += '\n';
    if (options_.max_file_bytes > 0 && file_bytes_ + buf.size() > 0 &&
        file_bytes_ + buf.size() + line.size() > options_.max_file_bytes) {
      std::fwrite(buf.data(), 1, buf.size(), file_);
      file_bytes_ += buf.size();
      buf.clear();
      RotateLocked();
    }
    buf += line;
  }
  std::fwrite(buf.data(), 1, buf.size(), file_);
  file_bytes_ += buf.size();
}

void QueryLog::RotateLocked() {
  std::fclose(file_);
  std::string rotated = options_.sink_path + ".1";
  std::remove(rotated.c_str());
  std::rename(options_.sink_path.c_str(), rotated.c_str());
  file_ = std::fopen(options_.sink_path.c_str(), "ab");
  if (file_ != nullptr) std::setvbuf(file_, nullptr, _IONBF, 0);
  file_bytes_ = 0;
  std::lock_guard<std::mutex> lock(mu_);
  ++rotations_;
}

}  // namespace obs
}  // namespace aqp
