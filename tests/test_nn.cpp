// Quantised NN layer on the IMC memory: correctness vs reference and the
// precision/energy trade the paper's reconfigurability targets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "app/nn.hpp"
#include "common/rng.hpp"
#include "serve/memory_pool.hpp"
#include "serve/server.hpp"

namespace bpim::app {
namespace {

std::vector<double> random_reals(std::size_t n, std::uint64_t seed) {
  bpim::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(0.0, 1.0);
  return v;
}

std::vector<std::vector<double>> random_weights(std::size_t out, std::size_t in,
                                                std::uint64_t seed) {
  bpim::Rng rng(seed);
  std::vector<std::vector<double>> w(out, std::vector<double>(in));
  for (auto& row : w)
    for (auto& x : row) x = rng.uniform(0.0, 1.0);
  return w;
}

TEST(Quantize, RoundTripWithinHalfStep) {
  const std::vector<double> x{0.1, 0.5, 0.9, 0.0, 1.0};
  const Quantized q = quantize(x, 8);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(static_cast<double>(q.values[i]) * q.scale, x[i], q.scale * 0.5 + 1e-12);
}

TEST(Quantize, CodesFitWidth) {
  const auto x = random_reals(100, 3);
  for (const unsigned bits : {2u, 4u, 8u}) {
    const Quantized q = quantize(x, bits);
    for (const auto c : q.values) EXPECT_LT(c, 1ull << bits);
  }
}

TEST(Quantize, GuardsBadInput) {
  EXPECT_THROW(quantize({}, 8), std::invalid_argument);
  EXPECT_THROW(quantize({1.0}, 1), std::invalid_argument);
}

TEST(Quantize, MatchesStdRoundHalfAway) {
  // quantize rounds without a libm call; its codes must equal
  // clamp(std::round(v / scale), 0, levels) at every width: on exact ties
  // (a top value of `levels` makes the scale exactly 1), the largest double
  // below 0.5 and the smallest above it, negatives, and random vectors,
  // whose top value may round v / scale past `levels`.
  const auto expect_matches_std_round = [](const std::vector<double>& x, unsigned bits) {
    const Quantized q = quantize(x, bits);
    const double levels = static_cast<double>((1ull << bits) - 1);
    ASSERT_EQ(q.values.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(q.values[i],
                static_cast<std::uint64_t>(std::clamp(std::round(x[i] / q.scale), 0.0, levels)))
          << bits << "b, x = " << x[i] << ", scale " << q.scale;
  };
  for (unsigned bits = 2; bits <= 32; ++bits) {
    const double levels = static_cast<double>((1ull << bits) - 1);
    std::vector<double> ties{levels};
    for (const double k : {0.0, 1.0, 2.0, std::floor(levels / 2), levels - 2, levels - 1, levels})
      for (const double f : {0.0, 0.25, 0.49999999999999994, 0.5, std::nextafter(0.5, 1.0), 0.75})
        for (const double v : {k + f, -(k + f)})
          if (v <= levels) ties.push_back(v);
    expect_matches_std_round(ties, bits);
    EXPECT_EQ(quantize(ties, bits).scale, 1.0);
    bpim::Rng rng(40 + bits);
    for (int trial = 0; trial < 20; ++trial) {
      const double top = rng.uniform(1e-3, 1e6);
      std::vector<double> x(200);
      for (auto& v : x) v = rng.uniform(-0.25 * top, top);
      x[trial % x.size()] = top;
      expect_matches_std_round(x, bits);
    }
  }
}

TEST(QuantizedLinear, ImcMatchesReferenceExactly) {
  // The IMC path computes the same quantised arithmetic as the reference
  // (products are exact in-memory), so outputs must agree to fp rounding.
  macro::ImcMemory mem;
  QuantizedLinear layer(random_weights(4, 48, 17), 8);
  const auto x = random_reals(48, 18);
  const auto y_imc = layer.forward(mem, x);
  const auto y_ref = layer.forward_reference(x);
  ASSERT_EQ(y_imc.size(), 4u);
  for (std::size_t j = 0; j < y_imc.size(); ++j)
    EXPECT_NEAR(y_imc[j], y_ref[j], 1e-9 * std::max(1.0, y_ref[j]));
}

TEST(QuantizedLinear, LowerPrecisionCheaperAndCoarser) {
  macro::ImcMemory mem;
  const auto w = random_weights(2, 64, 19);
  const auto x = random_reals(64, 20);

  QuantizedLinear l8(w, 8), l4(w, 4), l2(w, 2);
  const auto y8 = l8.forward(mem, x);
  const double e8 = l8.last_stats().energy.si();
  const auto y4 = l4.forward(mem, x);
  const double e4 = l4.last_stats().energy.si();
  const auto y2 = l2.forward(mem, x);
  const double e2 = l2.last_stats().energy.si();

  // Energy: the paper's point -- precision reconfiguration pays off.
  EXPECT_LT(e4, e8);
  EXPECT_LT(e2, e4);

  // Accuracy: lower precision drifts further from the 8-bit result.
  double err4 = 0.0, err2 = 0.0;
  for (std::size_t j = 0; j < y8.size(); ++j) {
    err4 += std::abs(y4[j] - y8[j]);
    err2 += std::abs(y2[j] - y8[j]);
  }
  EXPECT_GT(err2, err4 * 0.8);  // 2-bit no more accurate than 4-bit (noise guard)
}

TEST(QuantizedLinear, StatsCountMacs) {
  macro::ImcMemory mem;
  QuantizedLinear layer(random_weights(3, 32, 21), 8);
  (void)layer.forward(mem, random_reals(32, 22));
  EXPECT_EQ(layer.last_stats().macs, 3u * 32u);
  EXPECT_GT(layer.last_stats().cycles, 0u);
  EXPECT_GT(layer.last_stats().elapsed.si(), 0.0);
}

TEST(QuantizedLinear, ValidatesShapes) {
  EXPECT_THROW(QuantizedLinear({}, 8), std::invalid_argument);
  EXPECT_THROW(QuantizedLinear({{1.0, 2.0}, {1.0}}, 8), std::invalid_argument);
  macro::ImcMemory mem;
  QuantizedLinear layer(random_weights(2, 8, 23), 8);
  EXPECT_THROW((void)layer.forward(mem, random_reals(9, 24)), std::invalid_argument);
}

TEST(QuantizedLinear, PinnedRepeatedForwardBitIdentical) {
  // N successive forward() calls with pinned weights must produce exactly
  // the outputs of fresh-poke execution -- the residency tentpole's core
  // contract -- while saving the weight-side load cycles after the first.
  const auto w = random_weights(6, 48, 31);
  macro::ImcMemory fresh_mem;
  engine::ExecutionEngine fresh_eng(fresh_mem);
  QuantizedLinear fresh(w, 8);
  macro::ImcMemory pinned_mem;
  engine::ExecutionEngine pinned_eng(pinned_mem);
  QuantizedLinear pinned(w, 8, pinned_eng);
  EXPECT_TRUE(pinned.pinned());

  for (std::size_t i = 0; i < 5; ++i) {
    const auto x = random_reals(48, 40 + i);
    const auto want = fresh.forward(fresh_eng, x);
    const auto got = pinned.forward(pinned_eng, x);
    EXPECT_EQ(want, got) << "forward " << i;  // bit-identical doubles
    // The pinned layer runs fused: identical values, fewer cycles, and the
    // chained-MAC discount is exactly what fused_cycles_saved accounts.
    EXPECT_EQ(fresh.last_stats().cycles,
              pinned.last_stats().cycles + pinned.last_stats().fused_cycles_saved);
    EXPECT_GT(pinned.last_stats().fused_cycles_saved, 0u);
    EXPECT_LE(pinned.last_stats().energy.si(), fresh.last_stats().energy.si());
    if (i == 0) {
      // The first forward materializes the weights (their load lands on
      // this call), but the activation stages once, not per-op.
      EXPECT_LE(pinned.last_stats().load_cycles, fresh.last_stats().load_cycles);
      EXPECT_GT(pinned.last_stats().load_cycles, 0u);
    } else {
      EXPECT_LT(pinned.last_stats().load_cycles, fresh.last_stats().load_cycles);
      EXPECT_GT(pinned.last_stats().load_cycles_saved, 0u);
    }
    EXPECT_EQ(fresh.last_stats().load_cycles_saved, 0u);
    EXPECT_EQ(fresh.last_stats().fused_cycles_saved, 0u);
  }
}

TEST(QuantizedLinear, PinnedForwardThroughServerBitIdentical) {
  // The serve::Server route (single memory): pinning through the server
  // and forwarding through its admission queue matches fresh execution.
  const auto w = random_weights(5, 32, 51);
  macro::ImcMemory fresh_mem;
  engine::ExecutionEngine fresh_eng(fresh_mem);
  QuantizedLinear fresh(w, 8);

  macro::ImcMemory served_mem;
  engine::ExecutionEngine served_eng(served_mem);
  serve::Server server(served_eng);
  QuantizedLinear pinned(w, 8, server);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto x = random_reals(32, 60 + i);
    EXPECT_EQ(fresh.forward(fresh_eng, x), pinned.forward(server, x)) << "forward " << i;
  }
  server.stop();
  EXPECT_GT(server.stats().modeled_load_cycles_saved, 0u);
}

TEST(QuantizedLinear, PinnedForwardThroughMemoryPoolBitIdentical) {
  // The multi-memory route: weights pin to hash-chosen pool nodes and
  // requests follow them there; results still match fresh execution.
  const auto w = random_weights(5, 32, 71);
  macro::ImcMemory fresh_mem;
  engine::ExecutionEngine fresh_eng(fresh_mem);
  QuantizedLinear fresh(w, 8);

  serve::MemoryPoolConfig pcfg;
  pcfg.memories = 2;
  pcfg.threads_per_memory = 1;
  serve::MemoryPool pool(pcfg);
  serve::Server server(pool);
  QuantizedLinear pinned(w, 8, server);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto x = random_reals(32, 80 + i);
    EXPECT_EQ(fresh.forward(fresh_eng, x), pinned.forward(server, x)) << "forward " << i;
  }
  server.stop();
  EXPECT_GT(server.stats().modeled_load_cycles_saved, 0u);
}

}  // namespace
}  // namespace bpim::app
