#include "obs/metrics.hpp"

#include <bit>
#include <fstream>
#include <ostream>

#include "common/json_writer.hpp"

namespace bpim::obs {

std::size_t HistogramBuckets::index_of(std::uint64_t v) {
  if (v < 8) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 1;  // high set bit, >= 3
  return static_cast<std::size_t>(e - 2) * kSubBuckets +
         static_cast<std::size_t>((v >> (e - 3)) & 7U);
}

std::uint64_t HistogramBuckets::lower_bound(std::size_t idx) {
  if (idx < 8) return idx;
  const std::size_t octave = idx / kSubBuckets;  // >= 1
  const std::uint64_t mantissa = 8 + (idx % kSubBuckets);
  return mantissa << (octave - 1);
}

std::uint64_t HistogramBuckets::upper_bound(std::size_t idx) {
  if (idx < 8) return idx;
  const std::size_t octave = idx / kSubBuckets;
  const std::uint64_t width = std::uint64_t{1} << (octave - 1);
  return lower_bound(idx) + width - 1;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (const Bucket& b : buckets) {
    const std::uint64_t next = cumulative + b.count;
    if (static_cast<double>(next) >= rank) {
      // Interpolate within [lower, upper]: how far into the bucket's mass
      // the requested rank falls. The lower bound is recovered from the
      // upper one via the shared index arithmetic.
      const std::uint64_t upper = b.upper;
      const std::uint64_t lower =
          HistogramBuckets::lower_bound(HistogramBuckets::index_of(upper));
      const double into =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(b.count);
      return static_cast<double>(lower) +
             into * static_cast<double>(upper - lower);
    }
    cumulative = next;
  }
  return buckets.empty() ? 0.0 : static_cast<double>(buckets.back().upper);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.sum = static_cast<double>(sum_.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    snap.buckets.push_back({HistogramBuckets::upper_bound(i), n});
    snap.count += n;
  }
  return snap;
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

template <class T>
T& MetricsRegistry::lookup_or_create(std::vector<Named<T>>& list,
                                     const std::string& name,
                                     const std::string& help) {
  for (Named<T>& n : list)
    if (n.name == name) return *n.instrument;
  list.push_back({name, help, std::make_unique<T>()});
  return *list.back().instrument;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help) {
  MutexLock lk(mutex_);
  return lookup_or_create(counters_, name, help);
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  MutexLock lk(mutex_);
  return lookup_or_create(gauges_, name, help);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help) {
  MutexLock lk(mutex_);
  return lookup_or_create(histograms_, name, help);
}

void MetricsRegistry::write_json(std::ostream& out) const {
  JsonWriter w(out, 6);
  MutexLock lk(mutex_);
  w.begin_object();
  w.field("schema", "bpim.metrics.v1");
  w.key("counters");
  w.begin_array();
  for (const auto& c : counters_) {
    w.begin_object();
    w.field("name", c.name);
    if (!c.help.empty()) w.field("help", c.help);
    w.field("value", c.instrument->value());
    w.end_object();
  }
  w.end_array();
  w.key("gauges");
  w.begin_array();
  for (const auto& g : gauges_) {
    w.begin_object();
    w.field("name", g.name);
    if (!g.help.empty()) w.field("help", g.help);
    w.field("value", g.instrument->value());
    w.end_object();
  }
  w.end_array();
  w.key("histograms");
  w.begin_array();
  for (const auto& h : histograms_) {
    const HistogramSnapshot snap = h.instrument->snapshot();
    w.begin_object();
    w.field("name", h.name);
    if (!h.help.empty()) w.field("help", h.help);
    w.field("count", snap.count);
    w.field("sum", snap.sum);
    w.field("mean", snap.mean());
    w.field("p50", snap.quantile(0.50));
    w.field("p90", snap.quantile(0.90));
    w.field("p99", snap.quantile(0.99));
    w.field("p999", snap.quantile(0.999));
    w.key("buckets");
    w.begin_array();
    for (const auto& b : snap.buckets) {
      w.begin_object();
      w.field("le", b.upper);
      w.field("count", b.count);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
/// names map straight onto underscores.
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (c == '.' || c == '-' || c == ' ') c = '_';
  return out;
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  MutexLock lk(mutex_);
  for (const auto& c : counters_) {
    const std::string n = prom_name(c.name);
    if (!c.help.empty()) out << "# HELP " << n << ' ' << c.help << '\n';
    out << "# TYPE " << n << " counter\n";
    out << n << ' ' << c.instrument->value() << '\n';
  }
  for (const auto& g : gauges_) {
    const std::string n = prom_name(g.name);
    if (!g.help.empty()) out << "# HELP " << n << ' ' << g.help << '\n';
    out << "# TYPE " << n << " gauge\n";
    out << n << ' ' << g.instrument->value() << '\n';
  }
  for (const auto& h : histograms_) {
    const std::string n = prom_name(h.name);
    const HistogramSnapshot snap = h.instrument->snapshot();
    if (!h.help.empty()) out << "# HELP " << n << ' ' << h.help << '\n';
    out << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& b : snap.buckets) {
      cumulative += b.count;
      out << n << "_bucket{le=\"" << b.upper << "\"} " << cumulative << '\n';
    }
    out << n << "_bucket{le=\"+Inf\"} " << snap.count << '\n';
    out << n << "_sum " << snap.sum << '\n';
    out << n << "_count " << snap.count << '\n';
  }
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return out.good();
}

bool MetricsRegistry::write_prometheus_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_prometheus(out);
  return out.good();
}

}  // namespace bpim::obs
