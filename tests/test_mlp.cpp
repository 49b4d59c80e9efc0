// Multi-layer perceptron with per-layer precision.

#include <gtest/gtest.h>

#include <cmath>

#include "app/mlp.hpp"
#include "common/rng.hpp"
#include "serve/memory_pool.hpp"
#include "serve/server.hpp"

namespace bpim::app {
namespace {

std::vector<std::vector<double>> rand_w(std::size_t out, std::size_t in, std::uint64_t seed) {
  bpim::Rng rng(seed);
  std::vector<std::vector<double>> w(out, std::vector<double>(in));
  for (auto& row : w)
    for (auto& x : row) x = rng.uniform(0.0, 1.0);
  return w;
}

TEST(Mlp, ShapeValidation) {
  EXPECT_THROW(Mlp({}), std::invalid_argument);
  EXPECT_THROW(Mlp({{{}, 8}}), std::invalid_argument);  // a first layer with no neurons
  // 8 -> 4 followed by a layer expecting 5 inputs: mismatch.
  EXPECT_THROW(Mlp({{rand_w(4, 8, 1), 8}, {rand_w(2, 5, 2), 8}}), std::invalid_argument);
  const Mlp ok({{rand_w(4, 8, 1), 8}, {rand_w(2, 4, 2), 8}});
  EXPECT_EQ(ok.depth(), 2u);
  EXPECT_EQ(ok.in_features(), 8u);
  EXPECT_EQ(ok.out_features(), 2u);
}

TEST(Mlp, ImcMatchesReference) {
  macro::ImcMemory mem;
  Mlp net({{rand_w(12, 24, 3), 8}, {rand_w(6, 12, 4), 8}, {rand_w(3, 6, 5), 8}});
  bpim::Rng rng(6);
  std::vector<double> x(24);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  const auto y = net.forward(mem, x);
  const auto ref = net.forward_reference(x);
  ASSERT_EQ(y.size(), 3u);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], ref[i], 1e-9 * std::max(1.0, ref[i]));
}

TEST(Mlp, PerLayerStatsSumToTotal) {
  macro::ImcMemory mem;
  Mlp net({{rand_w(8, 16, 7), 8}, {rand_w(4, 8, 8), 4}});
  bpim::Rng rng(9);
  std::vector<double> x(16);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  (void)net.forward(mem, x);
  ASSERT_EQ(net.layer_stats().size(), 2u);
  std::uint64_t cycles = 0;
  double energy = 0.0;
  for (const auto& s : net.layer_stats()) {
    cycles += s.cycles;
    energy += s.energy.si();
  }
  EXPECT_EQ(cycles, net.last_stats().cycles);
  EXPECT_NEAR(energy, net.last_stats().energy.si(), 1e-20);
  EXPECT_EQ(net.last_stats().macs, 8u * 16u + 4u * 8u);
}

TEST(Mlp, PinnedRepeatedForwardBitIdentical) {
  // The residency contract end to end: N successive forward() calls with
  // pinned weights (mixed precision included) are bit-identical to
  // fresh-poke execution on every route, and cheaper in load cycles after
  // the materializing first pass.
  const std::vector<MlpLayerSpec> specs = {{rand_w(12, 24, 13), 8}, {rand_w(6, 12, 14), 4}};
  macro::ImcMemory fresh_mem;
  engine::ExecutionEngine fresh_eng(fresh_mem);
  Mlp fresh(specs);
  macro::ImcMemory pinned_mem;
  engine::ExecutionEngine pinned_eng(pinned_mem);
  Mlp pinned(specs, pinned_eng);
  EXPECT_TRUE(pinned.pinned());

  bpim::Rng rng(15);
  std::uint64_t first_load = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    std::vector<double> x(24);
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    const auto want = fresh.forward(fresh_eng, x);
    const auto got = pinned.forward(pinned_eng, x);
    EXPECT_EQ(want, got) << "forward " << i;  // bit-identical doubles
    // Pinned layers run fused: identical values, fewer cycles (accounted
    // in fused_cycles_saved), never more energy.
    EXPECT_EQ(fresh.last_stats().cycles,
              pinned.last_stats().cycles + pinned.last_stats().fused_cycles_saved);
    EXPECT_GT(pinned.last_stats().fused_cycles_saved, 0u);
    EXPECT_LE(pinned.last_stats().energy.si(), fresh.last_stats().energy.si());
    if (i == 0) {
      first_load = pinned.last_stats().load_cycles;
    } else {
      EXPECT_LT(pinned.last_stats().load_cycles, first_load);
      EXPECT_GT(pinned.last_stats().load_cycles_saved, 0u);
    }
  }
  const engine::ResidencyStats rs = pinned_eng.residency_stats();
  EXPECT_EQ(rs.pinned, 12u + 6u);  // one handle per neuron
  EXPECT_EQ(rs.evictions, 0u);
}

TEST(Mlp, PinnedForwardThroughPoolServerBitIdentical) {
  const std::vector<MlpLayerSpec> specs = {{rand_w(8, 16, 17), 8}, {rand_w(4, 8, 18), 8}};
  macro::ImcMemory fresh_mem;
  engine::ExecutionEngine fresh_eng(fresh_mem);
  Mlp fresh(specs);

  serve::MemoryPoolConfig pcfg;
  pcfg.memories = 2;
  pcfg.threads_per_memory = 1;
  serve::MemoryPool pool(pcfg);
  serve::Server server(pool);
  Mlp pinned(specs, server);

  bpim::Rng rng(19);
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<double> x(16);
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    EXPECT_EQ(fresh.forward(fresh_eng, x), pinned.forward(server, x)) << "forward " << i;
  }
  server.stop();
  EXPECT_GT(server.stats().modeled_load_cycles_saved, 0u);
}

TEST(Mlp, PinnedEvictionUnderPressureStaysCorrect) {
  // A net whose pinned set exceeds row_pair_capacity(): every forward
  // churns the LRU set, yet outputs stay bit-identical to fresh-poke
  // execution and the safe WL scheme records no disturb flips.
  macro::MemoryConfig mcfg;
  mcfg.banks = 1;
  mcfg.macros_per_bank = 2;
  mcfg.macro.geometry.rows = 16;  // 8 row pairs per macro
  const std::vector<MlpLayerSpec> specs = {{rand_w(12, 16, 21), 8}, {rand_w(8, 12, 22), 8}};

  macro::ImcMemory fresh_mem(mcfg);
  engine::ExecutionEngine fresh_eng(fresh_mem);
  Mlp fresh(specs);
  macro::ImcMemory pinned_mem(mcfg);
  engine::ExecutionEngine pinned_eng(pinned_mem);
  Mlp pinned(specs, pinned_eng);

  const engine::ResidencyStats before = pinned_eng.residency_stats();
  ASSERT_GT(before.pinned_layers, pinned_eng.row_pair_capacity());

  bpim::Rng rng(23);
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<double> x(16);
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    EXPECT_EQ(fresh.forward(fresh_eng, x), pinned.forward(pinned_eng, x)) << "forward " << i;
  }
  const engine::ResidencyStats after = pinned_eng.residency_stats();
  EXPECT_GT(after.evictions, 0u);
  EXPECT_GT(after.materializations, after.pinned);  // re-loads happened
  EXPECT_LE(after.resident_layers, pinned_eng.row_pair_capacity());
  // Disturb accounting: LRU churn re-writes rows but never flips cells
  // under the proposed WL scheme.
  for (std::size_t m = 0; m < pinned_mem.macro_count(); ++m)
    EXPECT_EQ(pinned_mem.macro(m).disturb_flips(), 0u);
}

TEST(Mlp, MixedPrecisionCheaperThanUniformHigh) {
  macro::ImcMemory mem;
  const auto w1 = rand_w(16, 32, 10);
  const auto w2 = rand_w(8, 16, 11);
  Mlp uniform({{w1, 8}, {w2, 8}});
  Mlp mixed({{w1, 8}, {w2, 2}});
  bpim::Rng rng(12);
  std::vector<double> x(32);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  (void)uniform.forward(mem, x);
  const double e_uniform = uniform.last_stats().energy.si();
  (void)mixed.forward(mem, x);
  EXPECT_LT(mixed.last_stats().energy.si(), e_uniform);
}

}  // namespace
}  // namespace bpim::app
