// Engine fusion path: run_forward / compile_forward / run_chain are
// bit-identical to op-at-a-time execution, cheaper on the cycle model, and
// recover from eviction and unfusable shapes transparently.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "engine/execution_engine.hpp"
#include "macro/memory.hpp"

namespace bpim::engine {
namespace {

macro::MemoryConfig small_mem() {
  macro::MemoryConfig cfg;
  cfg.banks = 1;
  cfg.macros_per_bank = 2;
  return cfg;
}

std::vector<std::uint64_t> random_codes(std::size_t n, unsigned bits, std::uint64_t seed) {
  bpim::Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.uniform_u64(1ull << bits);
  return v;
}

TEST(Fusion, ForwardBitIdenticalAcrossPrecisionsAndShapes) {
  // The sweep the tentpole promises: fused and unfused engines compute the
  // same products at every precision and shape, with fewer fused cycles.
  struct Shape {
    std::size_t ops, elements;
  };
  const Shape shapes[] = {{1, 16}, {4, 48}, {9, 96}};
  for (const unsigned bits : {2u, 4u, 8u}) {
    for (const Shape& s : shapes) {
      macro::ImcMemory fused_mem(small_mem());
      ExecutionEngine fused(fused_mem);
      macro::ImcMemory plain_mem(small_mem());
      ExecutionEngine plain(plain_mem);

      std::vector<std::vector<std::uint64_t>> w;
      std::vector<ResidentOperand> handles;
      for (std::size_t j = 0; j < s.ops; ++j) {
        w.push_back(random_codes(s.elements, bits, 100 * bits + j));
        handles.push_back(fused.pin(w.back(), bits, OperandLayout::MultUnit));
      }
      const auto x = random_codes(s.elements, bits, 7 * bits + s.ops);

      std::vector<VecOp> ops(s.ops);
      for (std::size_t j = 0; j < s.ops; ++j) {
        ops[j].kind = OpKind::Mult;
        ops[j].bits = bits;
        ops[j].a = w[j];
        ops[j].b = x;
      }
      const auto want = plain.run_batch(ops);
      const auto got = fused.run_forward(handles, x);
      ASSERT_EQ(got.size(), want.size());
      std::uint64_t fused_cycles = 0, plain_cycles = 0, saved = 0;
      for (std::size_t j = 0; j < s.ops; ++j) {
        EXPECT_EQ(got[j].values, want[j].values)
            << bits << "b, " << s.ops << "x" << s.elements << ", op " << j;
        fused_cycles += got[j].stats.elapsed_cycles;
        plain_cycles += want[j].stats.elapsed_cycles;
        saved += got[j].stats.fused_cycles_saved;
      }
      EXPECT_EQ(fused.fusion_stats().fused_runs, 1u);
      EXPECT_EQ(fused.fusion_stats().fallback_runs, 0u);
      // A single one-layer MULT has no predecessor to chain behind; every
      // other shape must bank a discount.
      if (s.ops > 1) {
        EXPECT_GT(saved, 0u);
      }
      EXPECT_EQ(fused_cycles + saved, plain_cycles);
    }
  }
}

TEST(Fusion, CompileAtPinAvoidsRecompileOnFirstRun) {
  macro::ImcMemory mem(small_mem());
  ExecutionEngine eng(mem);
  std::vector<ResidentOperand> handles;
  std::vector<std::vector<std::uint64_t>> w;
  for (std::size_t j = 0; j < 3; ++j) {
    w.push_back(random_codes(32, 8, 200 + j));
    handles.push_back(eng.pin(w.back(), 8, OperandLayout::MultUnit));
  }
  EXPECT_TRUE(eng.compile_forward(handles));
  EXPECT_EQ(eng.fusion_stats().compiles, 1u);

  const auto x = random_codes(32, 8, 300);
  const auto results = eng.run_forward(handles, x);
  EXPECT_EQ(eng.fusion_stats().compiles, 1u);  // cache hit, no rebuild
  EXPECT_EQ(eng.fusion_stats().recompiles, 0u);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(results[j].values[i], w[j][i] * x[i]);
  // The weights materialized at compile time; their deferred load cycles
  // land on this first forward.
  EXPECT_GT(eng.last_batch().load_cycles, 0u);
}

TEST(Fusion, EvictionUnderPressureRecompilesAndStaysCorrect) {
  macro::ImcMemory mem(small_mem());
  ExecutionEngine eng(mem);
  const unsigned bits = 8;
  // One MULT-unit layer across the memory's macros.
  const std::size_t per_layer = eng.mult_units_per_row(bits) * mem.macro_count();

  std::vector<std::vector<std::uint64_t>> w;
  std::vector<ResidentOperand> handles;
  for (std::size_t j = 0; j < 3; ++j) {
    w.push_back(random_codes(per_layer, bits, 400 + j));
    handles.push_back(eng.pin(w.back(), bits, OperandLayout::MultUnit));
  }
  const auto x = random_codes(per_layer, bits, 500);
  (void)eng.run_forward(handles, x);
  EXPECT_EQ(eng.fusion_stats().compiles, 1u);

  // A giant transient op sweeps the array and evicts most of the weights.
  const std::size_t cap = eng.row_pair_capacity();
  const auto big_a = random_codes((cap - 1) * per_layer, bits, 600);
  const auto big_b = random_codes((cap - 1) * per_layer, bits, 601);
  VecOp big;
  big.kind = OpKind::Mult;
  big.bits = bits;
  big.a = big_a;
  big.b = big_b;
  (void)eng.run(big);
  EXPECT_GT(eng.residency_stats().evictions, 0u);

  // Park a new handle in the freed slot so the evicted weights cannot
  // re-materialize at their compiled rows.
  const auto intruder_vals = random_codes(per_layer, bits, 650);
  const ResidentOperand intruder = eng.pin(intruder_vals, bits, OperandLayout::MultUnit);
  VecOp occupy;
  occupy.kind = OpKind::Mult;
  occupy.bits = bits;
  occupy.ra = intruder;
  occupy.b = x;
  (void)eng.run(occupy);

  // The next forward re-materializes the weights at new rows, notices the
  // residency snapshot moved, recompiles, and still computes the same
  // products.
  const auto results = eng.run_forward(handles, x);
  EXPECT_EQ(eng.fusion_stats().recompiles, 1u);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < per_layer; ++i)
      EXPECT_EQ(results[j].values[i], w[j][i] * x[i]) << "op " << j << " elem " << i;
}

TEST(Fusion, UnfusableShapeFallsBackBitIdentical) {
  macro::ImcMemory mem(small_mem());
  ExecutionEngine eng(mem);
  const unsigned bits = 8;
  const std::size_t per_layer = eng.layer_capacity(bits);
  const std::size_t cap = eng.row_pair_capacity();

  // Each weight spans half the array: weights + activation cannot co-reside,
  // so the fused layout is impossible and run_forward must fall back.
  const std::size_t elements = (cap / 2) * per_layer;
  std::vector<std::vector<std::uint64_t>> w;
  std::vector<ResidentOperand> handles;
  for (std::size_t j = 0; j < 2; ++j) {
    w.push_back(random_codes(elements, bits, 700 + j));
    handles.push_back(eng.pin(w.back(), bits, OperandLayout::MultUnit));
  }
  EXPECT_FALSE(eng.compile_forward(handles));
  const auto x = random_codes(elements, bits, 800);
  const auto results = eng.run_forward(handles, x);
  EXPECT_EQ(eng.fusion_stats().fallback_runs, 1u);
  EXPECT_EQ(eng.fusion_stats().fused_runs, 0u);
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < elements; ++i) EXPECT_EQ(results[j].values[i], w[j][i] * x[i]);
}

TEST(Fusion, ChainMatchesHostReferenceAndSavesLoads) {
  macro::ImcMemory mem(small_mem());
  ExecutionEngine eng(mem);
  const unsigned bits = 4;
  const std::size_t n = 40;
  const auto a = random_codes(n, bits, 900);
  const auto b = random_codes(n, bits, 901);
  const auto c = random_codes(n, 2 * bits, 902);
  const auto d = random_codes(n, 2 * bits, 903);

  ChainRequest req;
  req.bits = bits;
  req.a = a;
  req.b = b;
  req.links = {{ChainLinkKind::Add, c}, {ChainLinkKind::Add, d}};
  const OpResult res = eng.run_chain(req);
  ASSERT_EQ(res.values.size(), n);
  const std::uint64_t mask = (1ull << (2 * bits)) - 1;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(res.values[i], (a[i] * b[i] + c[i] + d[i]) & mask) << i;
  EXPECT_EQ(eng.fusion_stats().chain_runs, 1u);
  // The in-array accumulator never spills: one saved re-stage per link row.
  EXPECT_GT(res.stats.load_cycles_saved, 0u);
}

TEST(Fusion, ChainAddShiftAccumulatesInField) {
  macro::ImcMemory mem(small_mem());
  ExecutionEngine eng(mem);
  const unsigned bits = 4;
  const std::size_t n = 12;
  const auto a = random_codes(n, bits, 910);
  const auto b = random_codes(n, bits, 911);
  const auto c = random_codes(n, bits, 912);  // small, so the shift stays in-field

  ChainRequest req;
  req.bits = bits;
  req.a = a;
  req.b = b;
  req.links = {{ChainLinkKind::AddShift, c}};
  const OpResult res = eng.run_chain(req);
  const std::uint64_t mask = (1ull << (2 * bits)) - 1;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(res.values[i], ((a[i] * b[i] + c[i]) << 1) & mask) << i;
}

TEST(Fusion, RejectedForwardLeavesNoSideEffects) {
  // A forward rejected for its activation length must not materialize the
  // weights first: the next good forward then bills the same loads as on a
  // fresh engine.
  const unsigned bits = 8;
  const auto w0 = random_codes(48, bits, 920);
  const auto w1 = random_codes(48, bits, 921);
  const auto x = random_codes(48, bits, 922);
  const auto short_x = random_codes(47, bits, 923);
  const auto forward = [&](bool reject_first) {
    macro::ImcMemory mem(small_mem());
    ExecutionEngine eng(mem);
    const std::vector<ResidentOperand> handles = {eng.pin(w0, bits, OperandLayout::MultUnit),
                                                  eng.pin(w1, bits, OperandLayout::MultUnit)};
    if (reject_first) {
      EXPECT_THROW((void)eng.run_forward(handles, short_x), std::invalid_argument);
      EXPECT_EQ(eng.residency_stats().materializations, 0u);
    }
    const auto results = eng.run_forward(handles, x);
    return std::make_pair(results, eng.last_batch());
  };
  const auto [fresh_results, fresh] = forward(false);
  const auto [results, bs] = forward(true);
  ASSERT_EQ(results.size(), fresh_results.size());
  for (std::size_t j = 0; j < results.size(); ++j) {
    EXPECT_EQ(results[j].values, fresh_results[j].values);
    EXPECT_EQ(results[j].stats.load_cycles, fresh_results[j].stats.load_cycles);
  }
  EXPECT_EQ(bs.load_cycles, fresh.load_cycles);
  EXPECT_EQ(bs.load_cycles_saved, fresh.load_cycles_saved);
  EXPECT_EQ(bs.serial_cycles, fresh.serial_cycles);
  EXPECT_EQ(bs.pipelined_cycles, fresh.pipelined_cycles);
  EXPECT_EQ(bs.compute_cycles, fresh.compute_cycles);
  EXPECT_EQ(bs.energy.si(), fresh.energy.si());
}

TEST(Fusion, ValidatesChainRequests) {
  macro::ImcMemory mem(small_mem());
  ExecutionEngine eng(mem);
  const std::vector<std::uint64_t> a{1, 2}, b{3, 4}, short_link{5};
  ChainRequest no_links{8, a, b, {}};
  EXPECT_THROW((void)eng.run_chain(no_links), std::invalid_argument);
  ChainRequest ragged{8, a, b, {{ChainLinkKind::Add, short_link}}};
  EXPECT_THROW((void)eng.run_chain(ragged), std::invalid_argument);
  ChainRequest wide{32, a, b, {{ChainLinkKind::Add, a}}};
  EXPECT_THROW((void)eng.run_chain(wide), std::invalid_argument);
}

}  // namespace
}  // namespace bpim::engine
