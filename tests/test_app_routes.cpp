// One app-layer route: a pinned QuantizedLinear, Mlp and FirFilter give
// bitwise-equal values and stats on a direct engine, behind a single-memory
// server and behind a 2-memory pool server -- from the very first call.
// The one field allowed to differ is pipelined_cycles, which is 0 behind a
// server (a served batch is shared with other clients).

#include <gtest/gtest.h>

#include <string>

#include "app/fir.hpp"
#include "app/mlp.hpp"
#include "common/rng.hpp"
#include "serve/memory_pool.hpp"
#include "serve/server.hpp"

namespace bpim::app {
namespace {

macro::MemoryConfig small_mem() {
  macro::MemoryConfig cfg;
  cfg.banks = 1;
  cfg.macros_per_bank = 2;
  return cfg;
}

serve::MemoryPoolConfig two_memories() {
  serve::MemoryPoolConfig cfg;
  cfg.memories = 2;
  cfg.memory = small_mem();
  cfg.threads_per_memory = 1;
  return cfg;
}

/// The three executors, each on its own small memory (declare before the
/// app objects pinned on them).
struct Routes {
  macro::ImcMemory eng_mem{small_mem()};
  macro::ImcMemory served_mem{small_mem()};
  engine::ExecutionEngine eng{eng_mem};
  engine::ExecutionEngine served_eng{served_mem};
  serve::MemoryPool pool{two_memories()};
  serve::Server single{served_eng};
  serve::Server pooled{pool};
};

std::vector<std::vector<double>> rand_w(std::size_t out, std::size_t in, std::uint64_t seed) {
  bpim::Rng rng(seed);
  std::vector<std::vector<double>> w(out, std::vector<double>(in));
  for (auto& row : w)
    for (auto& v : row) v = rng.uniform(0.0, 1.0);
  return w;
}

std::vector<double> rand_x(std::size_t n, std::uint64_t seed) {
  bpim::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  return x;
}

/// Every field of a served account equals the engine's, bitwise, except
/// pipelined_cycles, which a server leaves at 0.
void expect_served_same(const LayerStats& eng, const LayerStats& served, const std::string& what) {
  EXPECT_EQ(served.macs, eng.macs) << what;
  EXPECT_EQ(served.cycles, eng.cycles) << what;
  EXPECT_EQ(served.pipelined_cycles, 0u) << what;
  EXPECT_EQ(served.load_cycles, eng.load_cycles) << what;
  EXPECT_EQ(served.load_cycles_saved, eng.load_cycles_saved) << what;
  EXPECT_EQ(served.fused_cycles_saved, eng.fused_cycles_saved) << what;
  EXPECT_EQ(served.adaptive_cycles_saved, eng.adaptive_cycles_saved) << what;
  EXPECT_EQ(served.energy.si(), eng.energy.si()) << what;
  EXPECT_EQ(served.elapsed.si(), eng.elapsed.si()) << what;
}

/// Each of `ops` pinned operands against an `elements`-long activation
/// loads or saves exactly 2 row writes per layer, on every call.
void expect_load_conserved(const Routes& r, const LayerStats& s, std::size_t ops,
                           std::size_t elements, unsigned bits, const std::string& what) {
  const std::size_t layers =
      r.eng.layers_for_elements(elements, bits, engine::OperandLayout::MultUnit);
  EXPECT_EQ(s.load_cycles + s.load_cycles_saved, 2 * ops * layers) << what;
}

TEST(AppRoutes, QuantizedLinearSameOnEveryRoute) {
  Routes r;
  const auto w = rand_w(5, 32, 11);
  QuantizedLinear on_eng(w, 8, r.eng);
  QuantizedLinear on_single(w, 8, r.single);
  QuantizedLinear on_pool(w, 8, r.pooled);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string what = "forward " + std::to_string(i);
    const auto x = rand_x(32, 20 + i);
    const auto want = on_eng.forward(r.eng, x);
    EXPECT_EQ(on_single.forward(r.single, x), want) << what;
    EXPECT_EQ(on_pool.forward(r.pooled, x), want) << what;
    expect_served_same(on_eng.last_stats(), on_single.last_stats(), what + " single");
    expect_served_same(on_eng.last_stats(), on_pool.last_stats(), what + " pool");
    expect_load_conserved(r, on_eng.last_stats(), w.size(), x.size(), 8, what);
    EXPECT_GT(on_eng.last_stats().fused_cycles_saved, 0u) << what;
  }
}

TEST(AppRoutes, MlpSameOnEveryRoute) {
  Routes r;
  const std::vector<MlpLayerSpec> specs{
      {rand_w(12, 24, 31), 8}, {rand_w(6, 12, 32), 4}, {rand_w(3, 6, 33), 2}};
  Mlp on_eng(specs, r.eng);
  Mlp on_single(specs, r.single);
  Mlp on_pool(specs, r.pooled);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string what = "forward " + std::to_string(i);
    const auto x = rand_x(24, 40 + i);
    const auto want = on_eng.forward(r.eng, x);
    EXPECT_EQ(on_single.forward(r.single, x), want) << what;
    EXPECT_EQ(on_pool.forward(r.pooled, x), want) << what;
    expect_served_same(on_eng.last_stats(), on_single.last_stats(), what + " single");
    expect_served_same(on_eng.last_stats(), on_pool.last_stats(), what + " pool");
    for (std::size_t l = 0; l < specs.size(); ++l) {
      const std::string layer = what + " layer " + std::to_string(l);
      expect_served_same(on_eng.layer_stats()[l], on_single.layer_stats()[l], layer);
      expect_served_same(on_eng.layer_stats()[l], on_pool.layer_stats()[l], layer);
      expect_load_conserved(r, on_eng.layer_stats()[l], specs[l].weights.size(),
                            specs[l].weights.front().size(), specs[l].bits, layer);
    }
  }
}

TEST(AppRoutes, FirFilterSameOnEveryRoute) {
  Routes r;
  const std::vector<std::int64_t> taps{7, -3, 0, 5};
  const std::size_t block = 48;
  FirFilter on_eng(taps, 8, r.eng, block);
  FirFilter on_single(taps, 8, r.single, block);
  FirFilter on_pool(taps, 8, r.pooled, block);
  bpim::Rng rng(51);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string what = "block " + std::to_string(i);
    std::vector<std::int64_t> x(block);
    for (auto& v : x) v = static_cast<std::int64_t>(rng.next_u64() % 200) - 100;
    const auto want = on_eng.apply(r.eng, x);
    EXPECT_EQ(want, on_eng.apply_reference(x)) << what;
    EXPECT_EQ(on_single.apply(r.single, x), want) << what;
    EXPECT_EQ(on_pool.apply(r.pooled, x), want) << what;
    expect_served_same(on_eng.last_stats(), on_single.last_stats(), what + " single");
    expect_served_same(on_eng.last_stats(), on_pool.last_stats(), what + " pool");
    expect_load_conserved(r, on_eng.last_stats(), 3, block, 8, what);  // 3 non-zero taps
  }
}

}  // namespace
}  // namespace bpim::app
