// Self-tests of the benchmark's statistics (stats.hpp): the tail-percentile
// rule, the quartile spread (against values Python's
// statistics.quantiles(data, n=4) gives), and open-loop due-time latency.
// run.py runs this before every benchmark run; a failure stops the run.

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "selftest FAIL %s: got %.17g want %.17g\n", what, got, want);
    ++failures;
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void test_tail() {
  using perfbench::tail;
  // 1000 samples: p99 is rank 990 and leaves exactly 10 above it.
  auto t = tail(iota(1000));
  expect_near(t.value, 990.0, "p99 of 1..1000");
  expect_near(t.percentile, 0.99, "p99 percentile used");
  expect_near(static_cast<double>(t.count), 1000.0, "p99 count");
  // 500 samples: p99 would leave 5 above, so the rule drops to rank 490.
  t = tail(iota(500));
  expect_near(t.value, 490.0, "tail of 1..500");
  expect_near(t.percentile, 0.98, "tail percentile of 1..500");
  // Order must not matter.
  std::vector<double> rev = iota(500);
  std::reverse(rev.begin(), rev.end());
  expect_near(tail(rev).value, 490.0, "tail of reversed 1..500");
  // 11 samples: only the minimum has 10 above it.
  t = tail(iota(11));
  expect_near(t.value, 1.0, "tail of 1..11");
  // 10 or fewer: no percentile qualifies, the median stands in.
  t = tail(iota(10));
  expect_near(t.value, 5.5, "tail of 1..10 falls back to the median");
  expect_near(t.percentile, 0.5, "fallback percentile");
  t = tail({});
  expect_near(t.value, 0.0, "tail of nothing");
  expect_near(static_cast<double>(t.count), 0.0, "tail count of nothing");
}

void test_quartiles() {
  using perfbench::quartiles;
  auto q = quartiles(iota(10));
  expect_near(q[0], 2.75, "Q1 of 1..10");
  expect_near(q[1], 5.5, "Q2 of 1..10");
  expect_near(q[2], 8.25, "Q3 of 1..10");
  q = quartiles({3, 1, 4, 1, 5, 9, 2, 6});
  expect_near(q[0], 1.25, "Q1 of pi digits");
  expect_near(q[2], 5.75, "Q3 of pi digits");
  q = quartiles({2.5, 7.0});
  expect_near(q[0], 1.375, "Q1 of two values");
  expect_near(q[2], 8.125, "Q3 of two values");
  q = quartiles({5, 1, 2});
  expect_near(q[0], 1.0, "Q1 of three values");
  expect_near(q[2], 5.0, "Q3 of three values");
  expect_near(perfbench::quartile_spread(iota(10)), (8.25 - 2.75) / 5.5, "spread of 1..10");
  expect_near(perfbench::quartile_spread({4, 4, 4, 4}), 0.0, "spread of a constant");
  expect_near(perfbench::median({3, 1, 2}), 2.0, "odd median");
}

void test_open_loop() {
  // Requests due every 1 ms; the generator stalls 4 ms before the second
  // send. Timed from the send, the stalled requests look as fast as the
  // first; timed from their due time they carry the stall.
  const perfbench::OpenLoopSample s[] = {
      {0.0, 0.0, 0.5},
      {1.0, 5.0, 5.5},
      {2.0, 5.1, 5.7},
  };
  expect_near(s[0].latency(), 0.5, "on-time latency");
  expect_near(s[1].latency(), 4.5, "stalled latency from due");
  expect_near(s[1].round_trip(), 0.5, "stalled round trip from send");
  expect_near(s[2].latency(), 3.7, "queued-behind-stall latency");
  expect_near(s[2].late(), 3.1, "generator lateness");
}

}  // namespace

int main() {
  test_tail();
  test_quartiles();
  test_open_loop();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  return 0;
}
