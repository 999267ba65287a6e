#include "obs/export.h"

#include <cstdio>
#include <set>
#include <string>

#include "obs/json.h"

namespace aqp {
namespace obs {
namespace {

const char* KindName(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter:
      return "counter";
    case MetricSample::Kind::kGauge:
      return "gauge";
    case MetricSample::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

bool ValidNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

/// Registry names use dots ("service.queries.ok"); Prometheus metric names
/// allow only [a-zA-Z_:][a-zA-Z0-9_:]*. Every invalid character becomes '_'.
std::string SanitizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    out.push_back(ValidNameChar(name[i], i == 0) ? name[i] : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

/// The registry is flat-name, so labeled metrics embed their label block in
/// the name ('family{table="x"}', composed by the producer). The family part
/// is sanitized; the label block rides through verbatim except for newline
/// escaping (the producer already escapes backslash and quote in values).
struct ParsedName {
  std::string family;  // Sanitized.
  std::string labels;  // "{k=\"v\",...}" or empty.
};

ParsedName ParseName(const std::string& name) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    // No label block (or a malformed one — then the whole name is treated
    // as a family and the braces are sanitized away).
    return {SanitizeName(name), ""};
  }
  std::string labels;
  labels.reserve(name.size() - brace);
  for (size_t i = brace; i < name.size(); ++i) {
    if (name[i] == '\n') {
      labels += "\\n";
    } else {
      labels.push_back(name[i]);
    }
  }
  return {SanitizeName(name.substr(0, brace)), std::move(labels)};
}

/// HELP docstrings for the metric families an operator will alert on; the
/// fallback names the kind so no family exports without HELP.
std::string HelpFor(const std::string& family, MetricSample::Kind kind) {
  if (family == "synopsis_drift_score_ratio") {
    return "Latest drift score of a table's cached synopses "
           "(max component over columns; 0 = fresh, 1 = total drift).";
  }
  if (family == "synopsis_drift_ks_ratio") {
    return "Kolmogorov-Smirnov statistic between baseline and current "
           "value distributions (worst column).";
  }
  if (family == "synopsis_drift_domain_churn_ratio") {
    return "Fraction of the baseline distinct-value domain no longer "
           "present (worst column).";
  }
  if (family == "synopsis_drift_hh_turnover_ratio") {
    return "Frequency share lost by the baseline's heavy-hitter values "
           "(worst column).";
  }
  if (family == "synopsis_drift_moment_shift_ratio") {
    return "Mean/scale/row-count/null-fraction shift against the baseline "
           "(worst column).";
  }
  if (family == "synopsis_staleness_seconds") {
    return "Age of the serving synopsis baseline at its last drift check.";
  }
  if (family == "synopsis_drift_checks") {
    return "Baseline/current drift comparisons completed by the monitor.";
  }
  if (family == "synopsis_drift_flags") {
    return "Soft-drift verdicts (synopses kept serving with widened CIs).";
  }
  if (family == "synopsis_drift_invalidations") {
    return "Hard-drift verdicts (cached synopses dropped for rebuild).";
  }
  if (family == "aqp_synopsis_drift_check_seconds") {
    return "Wall seconds per drift check (rescan + score).";
  }
  return std::string("AQP ") + KindName(kind) + " metric.";
}

/// HELP text escaping per the exposition format: backslash and newline.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string ExportJson(const MetricsRegistry& registry) {
  JsonWriter w;
  w.BeginObject().Key("metrics").BeginArray();
  for (const MetricSample& s : registry.Snapshot()) {
    w.BeginObject();
    w.Key("name").Value(s.name);
    w.Key("kind").Value(KindName(s.kind));
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        w.Key("value").Value(s.counter_value);
        break;
      case MetricSample::Kind::kGauge:
        w.Key("value").Value(s.gauge_value);
        break;
      case MetricSample::Kind::kHistogram:
        w.Key("count").Value(s.hist_count);
        w.Key("sum").Value(s.hist_sum);
        w.Key("min").Value(s.hist_min);
        w.Key("max").Value(s.hist_max);
        w.Key("p50").Value(s.p50);
        w.Key("p90").Value(s.p90);
        w.Key("p99").Value(s.p99);
        break;
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

std::string ExportPrometheus(const MetricsRegistry& registry) {
  std::string out;
  // The snapshot is name-sorted, so a labeled family's instances arrive
  // contiguously — but sanitization can merge distinct raw names, so HELP/
  // TYPE emission is deduplicated by sanitized family, not by adjacency.
  std::set<std::string> described;
  for (const MetricSample& s : registry.Snapshot()) {
    const ParsedName parsed = ParseName(s.name);
    const std::string& family = parsed.family;
    if (described.insert(family).second) {
      out += "# HELP " + family + " " +
             EscapeHelp(HelpFor(family, s.kind)) + "\n";
      const char* type =
          s.kind == MetricSample::Kind::kHistogram ? "summary"
                                                   : KindName(s.kind);
      out += "# TYPE " + family + " " + type + "\n";
    }
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        out += family + parsed.labels + " " +
               std::to_string(s.counter_value) + "\n";
        break;
      case MetricSample::Kind::kGauge:
        out += family + parsed.labels + " " + Num(s.gauge_value) + "\n";
        break;
      case MetricSample::Kind::kHistogram: {
        // Quantile labels merge with any producer labels: '{a="b"}' +
        // quantile -> '{a="b",quantile="..."}'.
        auto quantiled = [&](const char* q) {
          if (parsed.labels.empty()) {
            return family + "{quantile=\"" + q + "\"}";
          }
          std::string merged = parsed.labels;
          merged.insert(merged.size() - 1,
                        std::string(",quantile=\"") + q + "\"");
          return family + merged;
        };
        out += quantiled("0.5") + " " + Num(s.p50) + "\n";
        out += quantiled("0.9") + " " + Num(s.p90) + "\n";
        out += quantiled("0.99") + " " + Num(s.p99) + "\n";
        out += family + "_sum" + parsed.labels + " " + Num(s.hist_sum) + "\n";
        out += family + "_count" + parsed.labels + " " +
               std::to_string(s.hist_count) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace aqp
