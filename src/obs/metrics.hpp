#pragma once
// Metrics: named counters, gauges, and log-linear histograms with a
// thread-safe snapshot, exported as JSON (round-trips through
// common/json.hpp) and Prometheus text exposition.
//
// Registration (MetricsRegistry::counter/gauge/histogram) takes a lock and
// returns a reference with a stable address; call sites resolve their
// instruments once (constructor, or a function-local static) and then
// update through lock-free atomics. Updating is always on -- unlike
// tracing there is no enable switch, because a counter bump is a single
// relaxed fetch_add and the registry is consulted only at registration
// and exposition time.
//
// Histogram buckets are log-linear, 8 sub-buckets per power-of-two octave
// (~9% relative width): values 0..7 land in their own buckets, a value
// with high bit e >= 3 lands in bucket (e-2)*8 + next-3-bits. 496 buckets
// cover the full u64 range in 4 KiB of atomics; quantiles interpolate
// linearly inside the resolved bucket, the same convention SampleSet uses
// between order statistics.

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

namespace bpim::obs {

/// Monotonic event count. add() is a relaxed atomic increment.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins level (queue depth, resident layers, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Pure bucket arithmetic of the log-linear layout, shared by Histogram
/// and by anything replaying a snapshot.
struct HistogramBuckets {
  static constexpr int kSubBuckets = 8;      ///< per octave
  static constexpr int kBucketCount = 496;   ///< covers all of u64

  /// Bucket a value lands in.
  [[nodiscard]] static std::size_t index_of(std::uint64_t v);
  /// Smallest value of bucket `idx`.
  [[nodiscard]] static std::uint64_t lower_bound(std::size_t idx);
  /// Largest value of bucket `idx` (inclusive).
  [[nodiscard]] static std::uint64_t upper_bound(std::size_t idx);
};

/// Point-in-time copy of a histogram, with quantile resolution.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Non-empty buckets only, ascending.
  struct Bucket {
    std::uint64_t upper = 0;  ///< inclusive upper bound of the bucket
    std::uint64_t count = 0;  ///< events in this bucket (not cumulative)
  };
  std::vector<Bucket> buckets;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Linear interpolation inside the resolved bucket; q in [0,1].
  [[nodiscard]] double quantile(double q) const;
};

/// Lock-free log-linear histogram of u64 observations.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records `n` observations of `v`: two relaxed atomic adds. The event
  /// count is not kept apart: snapshot() sums the buckets.
  void observe(std::uint64_t v, std::uint64_t n = 1) {
    buckets_[HistogramBuckets::index_of(v)].fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(v * n, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, HistogramBuckets::kBucketCount> buckets_{};
  std::atomic<std::uint64_t> sum_{0};  ///< exact; reported as a double
};

/// Process-wide instrument registry. Lookup-or-create by name; exposition
/// walks every registered instrument. Instrument addresses are stable for
/// the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& global();

  /// Names are dotted lowercase ("serve.requests.completed"); `help` is
  /// kept from the first registration of a name.
  Counter& counter(const std::string& name, const std::string& help = "")
      BPIM_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name, const std::string& help = "")
      BPIM_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name, const std::string& help = "")
      BPIM_EXCLUDES(mutex_);

  /// One JSON document: schema bpim.metrics.v1, every instrument's current
  /// value (histograms with mean/quantiles and non-empty buckets).
  void write_json(std::ostream& out) const BPIM_EXCLUDES(mutex_);
  /// Prometheus text exposition (dots in names become underscores).
  void write_prometheus(std::ostream& out) const BPIM_EXCLUDES(mutex_);
  bool write_json_file(const std::string& path) const BPIM_EXCLUDES(mutex_);
  bool write_prometheus_file(const std::string& path) const BPIM_EXCLUDES(mutex_);

 private:
  template <class T>
  struct Named {
    std::string name;
    std::string help;
    std::unique_ptr<T> instrument;
  };

  template <class T>
  static T& lookup_or_create(std::vector<Named<T>>& list, const std::string& name,
                             const std::string& help);

  mutable Mutex mutex_;
  std::vector<Named<Counter>> counters_ BPIM_GUARDED_BY(mutex_);
  std::vector<Named<Gauge>> gauges_ BPIM_GUARDED_BY(mutex_);
  std::vector<Named<Histogram>> histograms_ BPIM_GUARDED_BY(mutex_);
};

}  // namespace bpim::obs
