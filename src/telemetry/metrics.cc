#include "telemetry/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace gallium::telemetry {

namespace {

// Canonical identity of a metric: name plus labels in sorted order.
std::string CanonicalKey(const std::string& name, const LabelSet& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

// Prometheus text-exposition label values escape backslash, double quote,
// and newline (and nothing else) — the spec's exact set.
std::string PromEscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size() + 8);
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string RenderLabels(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ",";
    first = false;
    out << k << "=\"" << PromEscapeLabelValue(v) << "\"";
  }
  out << "}";
  return out.str();
}

// Prometheus renders +Inf for the overflow bucket; JSON cannot, so the JSON
// exporter spells it "+Inf" as a string bound.
std::string FormatDouble(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(!bounds_.empty());
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::Quantile(double q) const {
  const uint64_t total = Count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation (1-based, ceil — the classic nearest-rank
  // definition, so q=0.5 of 4 observations is the 2nd).
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * total)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    const uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (i == bounds_.size()) return bounds_.back();  // overflow: saturate
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    const double hi = bounds_[i];
    if (in_bucket == 0) return hi;
    const double frac =
        static_cast<double>(rank - cumulative) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * frac;
  }
  return bounds_.back();
}

std::vector<double> DefaultLatencyBucketsUs() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e5; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2);
    bounds.push_back(decade * 5);
  }
  bounds.push_back(1e6);
  return bounds;
}

MetricsRegistry::Metric* MetricsRegistry::FindOrCreate(
    const std::string& name, LabelSet labels, const std::string& help,
    Kind kind, std::vector<double> bounds) {
  std::sort(labels.begin(), labels.end());
  const std::string key = CanonicalKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Metric* existing = metrics_[it->second].get();
    assert(existing->kind == kind && "metric re-registered as another kind");
    return existing;
  }
  auto metric = std::make_unique<Metric>();
  metric->name = name;
  metric->labels = std::move(labels);
  metric->help = help;
  metric->kind = kind;
  switch (kind) {
    case Kind::kCounter: metric->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: metric->gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      metric->histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  index_[key] = metrics_.size();
  metrics_.push_back(std::move(metric));
  return metrics_.back().get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name, LabelSet labels,
                                     const std::string& help) {
  return FindOrCreate(name, std::move(labels), help, Kind::kCounter, {})
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, LabelSet labels,
                                 const std::string& help) {
  return FindOrCreate(name, std::move(labels), help, Kind::kGauge, {})
      ->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         LabelSet labels,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  return FindOrCreate(name, std::move(labels), help, Kind::kHistogram,
                      std::move(bounds))
      ->histogram.get();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  std::string last_header;
  for (const auto& m : metrics_) {
    if (m->name != last_header) {
      last_header = m->name;
      if (!m->help.empty()) out << "# HELP " << m->name << " " << m->help << "\n";
      out << "# TYPE " << m->name << " "
          << (m->kind == Kind::kCounter
                  ? "counter"
                  : m->kind == Kind::kGauge ? "gauge" : "histogram")
          << "\n";
    }
    const std::string labels = RenderLabels(m->labels);
    switch (m->kind) {
      case Kind::kCounter:
        out << m->name << labels << " " << m->counter->Value() << "\n";
        break;
      case Kind::kGauge:
        out << m->name << labels << " " << FormatDouble(m->gauge->Value())
            << "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *m->histogram;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.BucketCount(i);
          LabelSet le = m->labels;
          le.push_back({"le", FormatDouble(h.bounds()[i])});
          out << m->name << "_bucket" << RenderLabels(le) << " " << cumulative
              << "\n";
        }
        LabelSet le = m->labels;
        le.push_back({"le", "+Inf"});
        out << m->name << "_bucket" << RenderLabels(le) << " " << h.Count()
            << "\n";
        out << m->name << "_sum" << labels << " " << FormatDouble(h.Sum())
            << "\n";
        out << m->name << "_count" << labels << " " << h.Count() << "\n";
        break;
      }
    }
  }
  return out.str();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"metrics\":[";
  bool first = true;
  for (const auto& m : metrics_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << JsonEscape(m->name) << "\",\"type\":\""
        << (m->kind == Kind::kCounter
                ? "counter"
                : m->kind == Kind::kGauge ? "gauge" : "histogram")
        << "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [k, v] : m->labels) {
      if (!first_label) out << ",";
      first_label = false;
      out << "\"" << JsonEscape(k) << "\":\"" << JsonEscape(v) << "\"";
    }
    out << "}";
    switch (m->kind) {
      case Kind::kCounter:
        out << ",\"value\":" << m->counter->Value();
        break;
      case Kind::kGauge:
        out << ",\"value\":" << FormatDouble(m->gauge->Value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *m->histogram;
        out << ",\"count\":" << h.Count() << ",\"sum\":"
            << FormatDouble(h.Sum()) << ",\"buckets\":[";
        for (size_t i = 0; i <= h.bounds().size(); ++i) {
          if (i > 0) out << ",";
          out << "{\"le\":";
          if (i < h.bounds().size()) {
            out << FormatDouble(h.bounds()[i]);
          } else {
            out << "\"+Inf\"";
          }
          out << ",\"count\":" << h.BucketCount(i) << "}";
        }
        out << "],\"quantiles\":{\"p50\":" << FormatDouble(h.Quantile(0.50))
            << ",\"p90\":" << FormatDouble(h.Quantile(0.90))
            << ",\"p99\":" << FormatDouble(h.Quantile(0.99)) << "}";
        break;
      }
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

OpCountsRecorder::OpCountsRecorder(MetricsRegistry* registry,
                                   const std::string& metric_name,
                                   LabelSet base_labels) {
  for (size_t i = 0; i < std::size(kOpCountFields); ++i) {
    LabelSet labels = base_labels;
    labels.push_back({"kind", kOpCountFields[i].name});
    counters_[i] = registry->GetCounter(metric_name, std::move(labels),
                                        "interpreter ops executed, by kind");
  }
}

void OpCountsRecorder::Flush() const {
  if (!bound()) return;
  for (size_t i = 0; i < std::size(kOpCountFields); ++i) {
    const int64_t delta = pending_.*(kOpCountFields[i].field);
    if (delta > 0) counters_[i]->Increment(static_cast<uint64_t>(delta));
  }
  pending_ = OpCounts{};
}

OpCounts OpCountsRecorder::Totals() const {
  if (!bound()) return pending_;
  Flush();
  OpCounts totals;
  for (size_t i = 0; i < std::size(kOpCountFields); ++i) {
    totals.*(kOpCountFields[i].field) =
        static_cast<int64_t>(counters_[i]->Value());
  }
  return totals;
}

}  // namespace gallium::telemetry
