// Observability building blocks: the JSON reader/writer pair, the
// log-linear histogram's bucket arithmetic and quantiles, and the metrics
// registry's JSON + Prometheus exposition. The JSON snapshot must
// round-trip through the in-tree parser -- that is the contract the CI
// artifacts rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/json_writer.hpp"
#include "obs/metrics.hpp"

namespace bpim {
namespace {

// ---- JsonWriter ------------------------------------------------------------

TEST(JsonWriter, EscapesControlCharactersToValidJson) {
  // Regression: the bench-era writer passed control characters through raw,
  // which is not JSON at all (a stray \n inside a string splits the token).
  std::ostringstream out;
  {
    JsonWriter w(out);
    w.begin_object();
    w.field("s", "line1\nline2\ttab\rcr\x01" "bell\x1f");
    w.field("quote\\slash", "a\"b");
    w.end_object();
  }
  const json::Value v = json::parse(out.str());
  EXPECT_EQ(v.at("s").as_string(), "line1\nline2\ttab\rcr\x01" "bell\x1f");
  EXPECT_EQ(v.at("quote\\slash").as_string(), "a\"b");
  EXPECT_NE(out.str().find("\\u0001"), std::string::npos);
  EXPECT_NE(out.str().find("\\u001f"), std::string::npos);
  EXPECT_NE(out.str().find("\\n"), std::string::npos);
}

TEST(JsonWriter, NestedContainersParseBack) {
  std::ostringstream out;
  {
    JsonWriter w(out);
    w.begin_object();
    w.field("flag", true);
    w.field("n", 42);
    w.field("x", 1.5);
    w.key("arr");
    w.begin_array();
    w.value(1);
    w.value(2);
    w.begin_object();
    w.field("k", "v");
    w.end_object();
    w.end_array();
    w.end_object();
  }
  const json::Value v = json::parse(out.str());
  EXPECT_TRUE(v.at("flag").as_bool());
  EXPECT_EQ(v.at("n").as_u64(), 42u);
  EXPECT_DOUBLE_EQ(v.at("x").as_number(), 1.5);
  ASSERT_EQ(v.at("arr").size(), 3u);
  EXPECT_EQ(v.at("arr").at(2).at("k").as_string(), "v");
}

// ---- json::parse -----------------------------------------------------------

TEST(JsonParse, ScalarsAndStructure) {
  const json::Value v = json::parse(
      R"({"null": null, "t": true, "f": false, "neg": -2.5e2, "s": "hi", "a": [0, 1]})");
  EXPECT_TRUE(v.at("null").is_null());
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_FALSE(v.at("f").as_bool());
  EXPECT_DOUBLE_EQ(v.at("neg").as_number(), -250.0);
  EXPECT_EQ(v.at("s").as_string(), "hi");
  EXPECT_EQ(v.at("a").at(1).as_u64(), 1u);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, UnicodeEscapesIncludingSurrogatePairs) {
  const json::Value v = json::parse(R"({"s": "Aé€😀"})");
  EXPECT_EQ(v.at("s").as_string(), "Aé€\U0001F600");
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW((void)json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)json::parse("{\"a\": 1e}"), std::runtime_error);
  EXPECT_THROW((void)json::parse("\"raw\ncontrol\""), std::runtime_error);
  EXPECT_THROW((void)json::parse(R"("\ud83d unpaired")"), std::runtime_error);
  // Depth cap: 100 nested arrays exceed the parser's 64-level limit.
  EXPECT_THROW((void)json::parse(std::string(100, '[') + std::string(100, ']')),
               std::runtime_error);
}

// ---- histogram buckets -----------------------------------------------------

TEST(HistogramBuckets, IndexAndBoundsAgree) {
  using B = obs::HistogramBuckets;
  // Exhaustive at the bottom, spot checks up the octaves: every value lands
  // in a bucket whose [lower, upper] range contains it, and indices are
  // monotone in the value.
  for (std::uint64_t v = 0; v < 1024; ++v) {
    const std::size_t idx = B::index_of(v);
    EXPECT_LE(B::lower_bound(idx), v) << v;
    EXPECT_GE(B::upper_bound(idx), v) << v;
    if (v > 0) {
      EXPECT_GE(idx, B::index_of(v - 1)) << v;
    }
  }
  for (const std::uint64_t v :
       {std::uint64_t{1} << 20, std::uint64_t{1} << 40, std::uint64_t{1} << 63,
        ~std::uint64_t{0}}) {
    const std::size_t idx = B::index_of(v);
    ASSERT_LT(idx, static_cast<std::size_t>(B::kBucketCount));
    EXPECT_LE(B::lower_bound(idx), v);
    EXPECT_GE(B::upper_bound(idx), v);
  }
  // Values 0..7 are exact (their own buckets).
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(B::lower_bound(B::index_of(v)), v);
    EXPECT_EQ(B::upper_bound(B::index_of(v)), v);
  }
}

TEST(Histogram, SnapshotCountsSumAndQuantiles) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.observe(v);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, 500500.0);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  std::uint64_t bucket_total = 0;
  for (const auto& b : s.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, 1000u);
  // Log-linear buckets are ~9% wide: quantiles resolve to the right
  // neighbourhood, and are monotone in q.
  EXPECT_NEAR(s.quantile(0.5), 500.0, 500.0 * 0.10);
  EXPECT_NEAR(s.quantile(0.99), 990.0, 990.0 * 0.10);
  EXPECT_LE(s.quantile(0.5), s.quantile(0.9));
  EXPECT_LE(s.quantile(0.9), s.quantile(0.99));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_LE(s.quantile(1.0), 1023.0);  // upper bound of the last bucket
}

TEST(Histogram, EmptyAndSingleValue) {
  obs::Histogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
  h.observe(7);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.0);  // 0..7 buckets are exact
}

TEST(Histogram, WeightedObserveCountsEveryEvent) {
  obs::Histogram h;
  h.observe(9, 3);
  h.observe(9);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 36.0);
}

TEST(Histogram, ConcurrentWritersSumExactly) {
  // Two waves of writers race a reader; every observation lands exactly
  // once.
  obs::Histogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) (void)h.snapshot();
  });
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
      writers.emplace_back([&h, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i)
          h.observe(i % 64 + static_cast<std::uint64_t>(t));
      });
    for (auto& w : writers) w.join();
  }
  stop.store(true);
  reader.join();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2 * kThreads * kPerThread);
  double want = 0;
  for (int t = 0; t < kThreads; ++t)
    for (std::uint64_t i = 0; i < kPerThread; ++i) want += static_cast<double>(i % 64 + t);
  EXPECT_DOUBLE_EQ(s.sum, 2 * want);
}

// ---- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, LookupIsByNameWithStableAddresses) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("test.counter", "help text");
  obs::Counter& c2 = reg.counter("test.counter", "ignored second help");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_EQ(c2.value(), 3u);
  obs::Gauge& g = reg.gauge("test.gauge");
  g.set(1.25);
  EXPECT_DOUBLE_EQ(reg.gauge("test.gauge").value(), 1.25);
}

TEST(MetricsRegistry, JsonSnapshotRoundTripsThroughParser) {
  obs::MetricsRegistry reg;
  reg.counter("serve.requests", "Requests admitted").add(17);
  reg.gauge("queue.depth", "Backlog size").set(4.5);
  obs::Histogram& h = reg.histogram("latency.us", "Host latency");
  for (std::uint64_t v = 1; v <= 100; ++v) h.observe(v);

  std::ostringstream out;
  reg.write_json(out);
  const json::Value v = json::parse(out.str());
  EXPECT_EQ(v.at("schema").as_string(), "bpim.metrics.v1");

  ASSERT_EQ(v.at("counters").size(), 1u);
  const json::Value& c = v.at("counters").at(0);
  EXPECT_EQ(c.at("name").as_string(), "serve.requests");
  EXPECT_EQ(c.at("help").as_string(), "Requests admitted");
  EXPECT_EQ(c.at("value").as_u64(), 17u);

  ASSERT_EQ(v.at("gauges").size(), 1u);
  EXPECT_DOUBLE_EQ(v.at("gauges").at(0).at("value").as_number(), 4.5);

  ASSERT_EQ(v.at("histograms").size(), 1u);
  const json::Value& hist = v.at("histograms").at(0);
  EXPECT_EQ(hist.at("count").as_u64(), 100u);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), 5050.0);
  EXPECT_GT(hist.at("p99").as_number(), hist.at("p50").as_number());
  std::uint64_t total = 0;
  for (const json::Value& b : hist.at("buckets").as_array())
    total += b.at("count").as_u64();
  EXPECT_EQ(total, 100u);
}

TEST(MetricsRegistry, PrometheusExposition) {
  obs::MetricsRegistry reg;
  reg.counter("serve.requests.completed", "Completed requests").add(5);
  reg.gauge("queue.depth").set(2.0);
  obs::Histogram& h = reg.histogram("latency.us", "Host latency");
  h.observe(3);
  h.observe(100);

  std::ostringstream out;
  reg.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE serve_requests_completed counter"), std::string::npos);
  EXPECT_NE(text.find("serve_requests_completed 5"), std::string::npos);
  EXPECT_NE(text.find("# HELP serve_requests_completed Completed requests"),
            std::string::npos);
  EXPECT_NE(text.find("queue_depth 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_us histogram"), std::string::npos);
  // Cumulative buckets end at +Inf == _count.
  EXPECT_NE(text.find("latency_us_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("latency_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("latency_us_sum 103"), std::string::npos);
}

}  // namespace
}  // namespace bpim
