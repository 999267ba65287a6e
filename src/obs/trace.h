#ifndef AQP_OBS_TRACE_H_
#define AQP_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace aqp {
namespace obs {

/// One completed (or still-open) timed span in a query trace. Spans form a
/// tree: parse -> bind -> plan -> pilot -> ... with operator spans nested
/// under their stage. Times are seconds relative to the trace start.
struct SpanRecord {
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  bool open = true;
  /// Key/value annotations (row counts, table names, rates) in insertion
  /// order; values pre-formatted to strings.
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<std::unique_ptr<SpanRecord>> children;
};

class QueryTrace;

/// RAII handle on an open span: closes (stamps the duration) on
/// destruction or on an explicit End(). Move-only. A default-constructed
/// TraceSpan is inert, which is how call sites behave when handed a null
/// QueryTrace: it records no node and ignores attributes, but still times
/// itself, so End() reports a stage's duration whether or not it is traced.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TraceSpan&& other) noexcept
      : trace_(std::exchange(other.trace_, nullptr)),
        record_(std::exchange(other.record_, nullptr)),
        start_(other.start_),
        seconds_(std::exchange(other.seconds_, 0.0)) {}
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { End(); }

  /// Annotates the span; no-op on an inert span.
  void AddAttr(std::string key, std::string value);
  void AddAttr(std::string key, uint64_t value);
  void AddAttr(std::string key, double value);

  /// Closes the span now and returns how long it was open, in seconds: the
  /// recorded node's `duration_seconds` exactly, or the inert span's own
  /// clock. Idempotent: later calls return the same duration. A span whose
  /// parent closed first was closed with it and reports that duration.
  double End();

  bool active() const { return record_ != nullptr; }

 private:
  friend class QueryTrace;
  // A recorded span's duration comes from its node, so it reads no clock.
  TraceSpan(QueryTrace* trace, SpanRecord* record)
      : trace_(trace), record_(record), start_() {}

  QueryTrace* trace_ = nullptr;
  SpanRecord* record_ = nullptr;
  // Read only by an inert span.
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  double seconds_ = -1.0;  // The duration once ended; negative while open.
};

/// The span tree of one query execution. Spans open under the innermost
/// still-open span (a cursor maintained by the trace), so plain lexical
/// scoping of TraceSpan values produces the correct nesting:
///
///   QueryTrace trace("SELECT ...");
///   {
///     TraceSpan pilot = trace.Span("pilot");
///     TraceSpan scan = trace.Span("scan");   // child of pilot
///     scan.AddAttr("rows", uint64_t{1024});
///   }                                        // both closed, LIFO
///   std::printf("%s", trace.ToText().c_str());
///
/// Movable (the span tree lives behind a stable pointer); not thread-safe —
/// one trace belongs to one query execution thread.
class QueryTrace {
 public:
  explicit QueryTrace(std::string root_name = "query");

  QueryTrace(QueryTrace&&) = default;
  QueryTrace& operator=(QueryTrace&&) = default;

  /// Deep-copies the span tree. The copy's open-span cursor resets to the
  /// root, so copy a trace only after the spans of interest are closed
  /// (results carrying profiles are naturally copied post-Finish).
  QueryTrace(const QueryTrace& other);
  QueryTrace& operator=(const QueryTrace& other);

  /// Opens a span nested under the innermost open span.
  TraceSpan Span(std::string name);

  /// Closes every open span (including the root) — call when execution is
  /// done; rendering does this implicitly for still-open spans.
  void Finish();

  /// Root of the span tree (named at construction, duration = whole query).
  const SpanRecord& root() const { return *root_; }
  SpanRecord& mutable_root() { return *root_; }

  /// Seconds since the trace was constructed.
  double ElapsedSeconds() const;

  /// Indented one-span-per-line rendering:
  ///   query  12.431ms
  ///     pilot  1.207ms  [rate=0.01]
  std::string ToText() const;

  /// The span tree as nested JSON objects.
  std::string ToJson() const;

 private:
  friend class TraceSpan;
  void Close(SpanRecord* record);

  std::chrono::steady_clock::time_point start_;
  std::unique_ptr<SpanRecord> root_;
  /// Innermost-open-span stack; back() is where the next span attaches.
  std::vector<SpanRecord*> open_;
};

/// Wall-clock now, in seconds since the Unix epoch: the timestamp query-log
/// events, drift baselines and synopses carry. A point in time, not a
/// duration; durations come from spans.
double NowUnixSeconds();

/// Opens a span on `trace`, or returns an inert span when `trace` is null —
/// the pattern for optionally-traced code paths (the engine executor).
TraceSpan MaybeSpan(QueryTrace* trace, std::string name);

}  // namespace obs
}  // namespace aqp

#endif  // AQP_OBS_TRACE_H_
