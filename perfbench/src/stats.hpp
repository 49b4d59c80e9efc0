#pragma once
// The benchmark's own statistics, kept header-only so the self-test binary
// checks exactly the code the benchmark runs.
//
//   median          middle order statistic (mean of the two middle ones).
//   tail            the highest percentile, up to p99, that still has at
//                   least kTailBeyond samples above it -- a tail read off
//                   fewer samples is noise -- reported with the percentile
//                   actually used and the sample count.
//   quartiles       Python's statistics.quantiles(data, n=4) (the default
//                   'exclusive' method), so in-run spreads match the ones
//                   the multi-seed spread tool computes.
//   OpenLoopSample  latency of an open-loop request, timed from when it was
//                   due to be sent, so a generator stall is charged to every
//                   request it delayed.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailBeyond = 10;

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< the percentile actually reported, in [0, 1]
  std::size_t count = 0;    ///< samples it was read from
};

/// p99 by nearest rank (rank ceil(0.99 * n)), lowered until at least
/// kTailBeyond samples lie above it. With n <= kTailBeyond no such
/// percentile exists and the median is reported instead.
[[nodiscard]] inline Tail tail(std::vector<double> v) {
  Tail t;
  t.count = v.size();
  if (v.size() <= kTailBeyond) {
    t.value = median(std::move(v));
    t.percentile = t.count == 0 ? 0.0 : 0.5;
    return t;
  }
  const std::size_t n = v.size();
  std::size_t rank = (990 * n + 999) / 1000;  // ceil(0.99 n), 1-based
  rank = std::clamp<std::size_t>(rank, 1, n - kTailBeyond);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  t.value = v[rank - 1];
  t.percentile = static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

/// statistics.quantiles(data, n=4, method='exclusive'); needs >= 2 values.
[[nodiscard]] inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::array<double, 3> q{};
  if (v.size() < 2) {
    q.fill(v.empty() ? 0.0 : v.front());
    return q;
  }
  std::sort(v.begin(), v.end());
  const std::int64_t ld = static_cast<std::int64_t>(v.size());
  const std::int64_t m = ld + 1;
  constexpr std::int64_t n = 4;
  for (std::int64_t i = 1; i < n; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / n, 1, ld - 1);
    const std::int64_t delta = i * m - j * n;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return q;
}

/// (Q3 - Q1) / median: the run-to-run spread the benchmark's bounds are
/// checked against.
[[nodiscard]] inline double quartile_spread(const std::vector<double>& v) {
  const auto q = quartiles(v);
  const double med = median(v);
  return med == 0.0 ? 0.0 : (q[2] - q[0]) / med;
}

/// One open-loop request on the benchmark clock (any consistent unit).
struct OpenLoopSample {
  double due = 0.0;    ///< when the schedule said to send it
  double sent = 0.0;   ///< when the generator actually called submit
  double ready = 0.0;  ///< when its result was in hand
  [[nodiscard]] double latency() const { return ready - due; }
  [[nodiscard]] double late() const { return sent - due; }
  [[nodiscard]] double round_trip() const { return ready - sent; }
};

}  // namespace perfbench
