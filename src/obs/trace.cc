#include "obs/trace.h"

#include <cstdio>

#include "common/str_util.h"
#include "obs/json.h"

namespace aqp {
namespace obs {
namespace {

void RenderText(const SpanRecord& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(span.name);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  %.3fms", span.duration_seconds * 1000.0);
  out->append(buf);
  if (!span.attrs.empty()) {
    out->append("  [");
    for (size_t i = 0; i < span.attrs.size(); ++i) {
      if (i > 0) out->append(" ");
      out->append(span.attrs[i].first);
      out->append("=");
      out->append(span.attrs[i].second);
    }
    out->append("]");
  }
  out->append("\n");
  for (const auto& child : span.children) {
    RenderText(*child, depth + 1, out);
  }
}

void RenderJson(const SpanRecord& span, JsonWriter* w) {
  w->BeginObject();
  w->Key("name").Value(span.name);
  w->Key("start_seconds").Value(span.start_seconds);
  w->Key("duration_seconds").Value(span.duration_seconds);
  if (!span.attrs.empty()) {
    w->Key("attrs").BeginObject();
    for (const auto& [k, v] : span.attrs) w->Key(k).Value(v);
    w->EndObject();
  }
  if (!span.children.empty()) {
    w->Key("children").BeginArray();
    for (const auto& child : span.children) RenderJson(*child, w);
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    End();
    trace_ = other.trace_;
    record_ = other.record_;
    start_ = other.start_;
    seconds_ = other.seconds_;
    other.trace_ = nullptr;
    other.record_ = nullptr;
    other.seconds_ = 0.0;
  }
  return *this;
}

void TraceSpan::AddAttr(std::string key, std::string value) {
  if (record_ == nullptr) return;
  record_->attrs.emplace_back(std::move(key), std::move(value));
}

void TraceSpan::AddAttr(std::string key, uint64_t value) {
  AddAttr(std::move(key), std::to_string(value));
}

void TraceSpan::AddAttr(std::string key, double value) {
  AddAttr(std::move(key), FormatDouble(value));
}

double TraceSpan::End() {
  if (seconds_ >= 0.0) return seconds_;
  if (record_ == nullptr) {
    seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
                   .count();
    return seconds_;
  }
  trace_->Close(record_);
  seconds_ = record_->duration_seconds;
  trace_ = nullptr;
  record_ = nullptr;
  return seconds_;
}

namespace {

std::unique_ptr<SpanRecord> CloneSpan(const SpanRecord& span) {
  auto out = std::make_unique<SpanRecord>();
  out->name = span.name;
  out->start_seconds = span.start_seconds;
  out->duration_seconds = span.duration_seconds;
  out->open = span.open;
  out->attrs = span.attrs;
  out->children.reserve(span.children.size());
  for (const auto& child : span.children) {
    out->children.push_back(CloneSpan(*child));
  }
  return out;
}

}  // namespace

QueryTrace::QueryTrace(const QueryTrace& other)
    : start_(other.start_), root_(CloneSpan(*other.root_)) {
  open_.push_back(root_.get());
}

QueryTrace& QueryTrace::operator=(const QueryTrace& other) {
  if (this != &other) {
    start_ = other.start_;
    root_ = CloneSpan(*other.root_);
    open_.clear();
    open_.push_back(root_.get());
  }
  return *this;
}

QueryTrace::QueryTrace(std::string root_name)
    : start_(std::chrono::steady_clock::now()),
      root_(std::make_unique<SpanRecord>()) {
  root_->name = std::move(root_name);
  open_.push_back(root_.get());
}

double QueryTrace::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

TraceSpan QueryTrace::Span(std::string name) {
  auto record = std::make_unique<SpanRecord>();
  record->name = std::move(name);
  record->start_seconds = ElapsedSeconds();
  SpanRecord* raw = record.get();
  open_.back()->children.push_back(std::move(record));
  open_.push_back(raw);
  return TraceSpan(this, raw);
}

void QueryTrace::Close(SpanRecord* record) {
  // Closing a span implicitly closes any still-open descendants (LIFO).
  if (!record->open) return;
  double now = ElapsedSeconds();
  while (!open_.empty()) {
    SpanRecord* top = open_.back();
    if (top == root_.get()) break;  // The root closes only via Finish().
    open_.pop_back();
    top->duration_seconds = now - top->start_seconds;
    top->open = false;
    if (top == record) return;
  }
}

void QueryTrace::Finish() {
  double now = ElapsedSeconds();
  while (!open_.empty()) {
    SpanRecord* top = open_.back();
    open_.pop_back();
    top->duration_seconds = now - top->start_seconds;
    top->open = false;
  }
}

std::string QueryTrace::ToText() const {
  std::string out;
  SpanRecord& root = *root_;
  // Render a still-running trace sensibly: stamp open spans at "now".
  double now = ElapsedSeconds();
  if (root.open) root.duration_seconds = now - root.start_seconds;
  RenderText(root, 0, &out);
  return out;
}

std::string QueryTrace::ToJson() const {
  double now = ElapsedSeconds();
  if (root_->open) root_->duration_seconds = now - root_->start_seconds;
  JsonWriter w;
  RenderJson(*root_, &w);
  return w.str();
}

double NowUnixSeconds() {
  auto now = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

TraceSpan MaybeSpan(QueryTrace* trace, std::string name) {
  if (trace == nullptr) return TraceSpan();
  return trace->Span(std::move(name));
}

}  // namespace obs
}  // namespace aqp
