// Engine fusion path: run_forward / run_chain are bit-identical to
// op-at-a-time execution, cheaper on the cycle model, and recover from
// eviction and unfusable shapes transparently. Fused-forward programs are
// compiled once per shape and relocate with their weights.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/execution_engine.hpp"
#include "macro/memory.hpp"
#include "obs/metrics.hpp"

namespace bpim::engine {
namespace {

macro::MemoryConfig small_mem(std::size_t macros = 2) {
  macro::MemoryConfig cfg;
  cfg.banks = 1;
  cfg.macros_per_bank = macros;
  return cfg;
}

std::vector<std::uint64_t> random_codes(std::size_t n, unsigned bits, std::uint64_t seed) {
  bpim::Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.uniform_u64(1ull << bits);
  return v;
}

/// Outputs and every RunStats/BatchStats field of two forwards, bitwise.
void expect_same_forward(const std::vector<OpResult>& got, const BatchStats& got_batch,
                         const std::vector<OpResult>& want, const BatchStats& want_batch,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t j = 0; j < got.size(); ++j) {
    const RunStats& g = got[j].stats;
    const RunStats& e = want[j].stats;
    EXPECT_EQ(got[j].values, want[j].values) << what << " op " << j;
    EXPECT_EQ(g.elements, e.elements) << what;
    EXPECT_EQ(g.instructions, e.instructions) << what;
    EXPECT_EQ(g.elapsed_cycles, e.elapsed_cycles) << what;
    EXPECT_EQ(g.energy.si(), e.energy.si()) << what;
    EXPECT_EQ(g.elapsed_time.si(), e.elapsed_time.si()) << what;
    EXPECT_EQ(g.load_cycles, e.load_cycles) << what;
    EXPECT_EQ(g.load_cycles_saved, e.load_cycles_saved) << what;
    EXPECT_EQ(g.fused_cycles_saved, e.fused_cycles_saved) << what;
    EXPECT_EQ(g.adaptive_cycles_saved, e.adaptive_cycles_saved) << what;
  }
  EXPECT_EQ(got_batch.ops, want_batch.ops) << what;
  EXPECT_EQ(got_batch.instructions, want_batch.instructions) << what;
  EXPECT_EQ(got_batch.load_cycles, want_batch.load_cycles) << what;
  EXPECT_EQ(got_batch.load_cycles_saved, want_batch.load_cycles_saved) << what;
  EXPECT_EQ(got_batch.compute_cycles, want_batch.compute_cycles) << what;
  EXPECT_EQ(got_batch.pipelined_cycles, want_batch.pipelined_cycles) << what;
  EXPECT_EQ(got_batch.fused_cycles_saved, want_batch.fused_cycles_saved) << what;
  EXPECT_EQ(got_batch.adaptive_cycles_saved, want_batch.adaptive_cycles_saved) << what;
  EXPECT_EQ(got_batch.energy.si(), want_batch.energy.si()) << what;
}

TEST(Fusion, ForwardBitIdenticalAcrossPrecisionsAndShapes) {
  // The sweep the tentpole promises: fused and unfused engines compute the
  // same products at every precision and shape, with fewer fused cycles.
  // Chunk counts that M macros do not divide (3 on 2, 5 on 4) run two
  // program shapes; fewer chunks than macros (1 on 4) leave macros idle.
  struct Shape {
    std::size_t ops, elements, macros;
  };
  const Shape shapes[] = {{1, 16, 2}, {4, 48, 2}, {9, 96, 2}, {3, 24, 2}, {3, 5, 4}, {5, 40, 4}};
  for (const unsigned bits : {2u, 4u, 8u}) {
    for (const Shape& s : shapes) {
      macro::ImcMemory fused_mem(small_mem(s.macros));
      ExecutionEngine fused(fused_mem);
      macro::ImcMemory plain_mem(small_mem(s.macros));
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
      obs::Counter& compiled = obs::MetricsRegistry::global().counter("macro.programs.compiled");
      const std::uint64_t compiled_before = compiled.value();
      const auto got = fused.run_forward(handles, x);
      // One verified program per distinct per-macro chunk count, not one per
      // macro.
      const std::size_t units = fused.mult_units_per_row(bits);
      const std::size_t chunks = (s.elements + units - 1) / units;
      EXPECT_EQ(compiled.value() - compiled_before,
                chunks > s.macros && chunks % s.macros != 0 ? 2u : 1u)
          << bits << "b, " << chunks << " chunks on " << s.macros;
      // Each macro runs the program of its own chunk count: with the policy
      // off cycles do not depend on data, so a macro holding fewer chunks
      // than macro 0 logs strictly fewer cycles, and an idle one none.
      for (std::size_t m = 0; m < s.macros; ++m) {
        const std::uint64_t cyc = fused_mem.macro(m).total_cycles();
        const std::uint64_t cyc0 = fused_mem.macro(0).total_cycles();
        const std::size_t held = m < chunks ? (chunks - m - 1) / s.macros + 1 : 0;
        const std::size_t held0 = (chunks - 1) / s.macros + 1;
        if (held == 0) {
          EXPECT_EQ(cyc, 0u) << bits << "b, macro " << m;
        } else if (held == held0) {
          EXPECT_EQ(cyc, cyc0) << bits << "b, macro " << m;
        } else {
          EXPECT_LT(cyc, cyc0) << bits << "b, macro " << m;
        }
      }
      ASSERT_EQ(got.size(), want.size());
      std::uint64_t fused_cycles = 0, plain_cycles = 0, saved = 0;
      for (std::size_t j = 0; j < s.ops; ++j) {
        EXPECT_EQ(got[j].values, want[j].values)
            << bits << "b, " << s.ops << "x" << s.elements << " on " << s.macros << ", op " << j;
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

TEST(Fusion, EvictionUnderPressureRelocatesAndStaysCorrect) {
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

  // The next forward re-materializes the weights at new rows, rebinds the
  // cached program to them without compiling, and still computes the same
  // products.
  const std::uint64_t loads_before = eng.residency_stats().materializations;
  const auto results = eng.run_forward(handles, x);
  EXPECT_GT(eng.residency_stats().materializations, loads_before);
  EXPECT_EQ(eng.fusion_stats().compiles, 1u);
  EXPECT_EQ(eng.fusion_stats().recompiles, 0u);
  EXPECT_EQ(eng.fusion_stats().fused_runs, 2u);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < per_layer; ++i)
      EXPECT_EQ(results[j].values[i], w[j][i] * x[i]) << "op " << j << " elem " << i;
}

TEST(Fusion, ForwardsStayFusedUnderResidencyChurn) {
  // Three tenants x 32 one-layer weights on a 64-pair memory: each forward
  // needs 33 pairs (weights + activation), all three need 97, so every
  // forward evicts the previous tenants and re-materializes its own
  // weights. The allocator must keep the re-materialized weights out of the
  // activation's reserved pair, so every forward runs fused, and each one
  // must match -- outputs and every stats field, bitwise -- the same
  // forward on a fresh serial engine that holds only that tenant's weights.
  const unsigned bits = 8;
  const std::size_t tenants = 3, weights = 32, elements = 12, rounds = 6;
  for (const bool adaptive : {false, true}) {
    const auto make_engine = [&](macro::ImcMemory& mem, std::size_t threads) {
      auto eng = std::make_unique<ExecutionEngine>(mem, EngineConfig{threads});
      if (adaptive) eng->set_adaptive_policy({.narrow_precision = true, .skip_zero = true});
      return eng;
    };
    std::vector<std::vector<std::vector<std::uint64_t>>> w(tenants);
    for (std::size_t t = 0; t < tenants; ++t)
      for (std::size_t j = 0; j < weights; ++j)
        w[t].push_back(random_codes(elements, bits, 1000 * (t + 1) + j));

    macro::ImcMemory mem(small_mem());
    const auto eng = make_engine(mem, 2);
    ASSERT_EQ(eng->row_pair_capacity(), 64u);
    std::vector<std::vector<ResidentOperand>> handles(tenants);
    for (std::size_t t = 0; t < tenants; ++t)
      for (const auto& wj : w[t]) handles[t].push_back(eng->pin(wj, bits, OperandLayout::MultUnit));

    std::size_t forwards = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t t = 0; t < tenants; ++t) {
        const auto x = random_codes(elements, bits, 77 * r + t);
        const auto got = eng->run_forward(handles[t], x);
        const BatchStats got_batch = eng->last_batch();
        ++forwards;

        macro::ImcMemory ref_mem(small_mem());
        const auto ref = make_engine(ref_mem, 1);
        std::vector<ResidentOperand> ref_handles;
        for (const auto& wj : w[t]) ref_handles.push_back(ref->pin(wj, bits, OperandLayout::MultUnit));
        const auto want = ref->run_forward(ref_handles, x);
        const BatchStats& want_batch = ref->last_batch();
        ASSERT_EQ(ref->fusion_stats().fused_runs, 1u);

        const std::string what = std::string(adaptive ? "adaptive" : "dense") + " round " +
                                 std::to_string(r) + " tenant " + std::to_string(t);
        expect_same_forward(got, got_batch, want, want_batch, what);
        for (std::size_t j = 0; j < weights; ++j)
          for (std::size_t i = 0; i < elements; ++i)
            EXPECT_EQ(got[j].values[i], w[t][j][i] * x[i]) << what << " op " << j;
      }
    }
    EXPECT_EQ(eng->fusion_stats().fused_runs, forwards);
    EXPECT_EQ(eng->fusion_stats().fallback_runs, 0u);
    // Round-robin over 97 pairs of demand on 64: every forward after the
    // first round re-materializes all of its tenant's weights.
    EXPECT_EQ(eng->residency_stats().materializations, forwards * weights);
  }
}

TEST(Fusion, FragmentedArrayStillFusesAFittingShape) {
  // 8 row pairs. One-layer handles X and Y pin the 2-layer weight W0 into
  // the middle of the array; the forward W0, W1, W2 needs 2 + 3 x 2 = 8
  // pairs. W1 fits above the activation, but W2 then finds no 2-pair gap
  // and its evictions take W0. The layout is redone on an emptied array, so
  // the forward runs fused and matches a fresh engine's first forward.
  const unsigned bits = 8;
  macro::MemoryConfig cfg = small_mem();
  cfg.macro.geometry.rows = 16;
  macro::ImcMemory mem(cfg);
  ExecutionEngine eng(mem);
  ASSERT_EQ(eng.row_pair_capacity(), 8u);
  const std::size_t per_layer = eng.mult_units_per_row(bits) * mem.macro_count();
  const auto x1 = random_codes(per_layer, bits, 1100);
  const auto x2 = random_codes(2 * per_layer, bits, 1101);
  const auto one_layer = [&](std::uint64_t seed) {
    VecOp op;
    op.kind = OpKind::Mult;
    op.bits = bits;
    op.ra = eng.pin(random_codes(per_layer, bits, seed), bits, OperandLayout::MultUnit);
    op.b = x1;
    return op;
  };
  const VecOp use_x = one_layer(1102);
  std::vector<std::vector<std::uint64_t>> w;
  std::vector<ResidentOperand> handles;
  for (std::size_t j = 0; j < 3; ++j) {
    w.push_back(random_codes(2 * per_layer, bits, 1110 + j));
    handles.push_back(eng.pin(w.back(), bits, OperandLayout::MultUnit));
  }
  ASSERT_EQ(handles[0].layers, 2u);
  const VecOp use_y = one_layer(1103);
  VecOp use_w0;
  use_w0.kind = OpKind::Mult;
  use_w0.bits = bits;
  use_w0.ra = handles[0];
  use_w0.b = x2;
  (void)eng.run(use_x);   // X at pair 7
  (void)eng.run(use_w0);  // W0 at pairs 5-6
  (void)eng.run(use_y);   // Y at pair 4
  ASSERT_EQ(eng.resident_layers(), 4u);

  const auto got = eng.run_forward(handles, x2);
  EXPECT_EQ(eng.fusion_stats().fused_runs, 1u);
  EXPECT_EQ(eng.fusion_stats().fallback_runs, 0u);
  EXPECT_EQ(eng.resident_layers(), 6u);

  macro::ImcMemory ref_mem(cfg);
  ExecutionEngine ref(ref_mem);
  std::vector<ResidentOperand> ref_handles;
  for (const auto& wj : w) ref_handles.push_back(ref.pin(wj, bits, OperandLayout::MultUnit));
  const auto want = ref.run_forward(ref_handles, x2);
  expect_same_forward(got, eng.last_batch(), want, ref.last_batch(), "fragmented");
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < x2.size(); ++i) EXPECT_EQ(got[j].values[i], w[j][i] * x2[i]);
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
  const auto x = random_codes(elements, bits, 800);
  const auto results = eng.run_forward(handles, x);
  EXPECT_EQ(eng.fusion_stats().fallback_runs, 1u);
  EXPECT_EQ(eng.fusion_stats().fused_runs, 0u);
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < elements; ++i) EXPECT_EQ(results[j].values[i], w[j][i] * x[i]);
}

TEST(Fusion, ProgramCacheIsBoundedByShape) {
  // 500 distinct weight sets of one shape, each pinned, forwarded once and
  // unpinned after the next set's forward (so consecutive sets sit at
  // different rows): they share one compiled program, rebound to each set's
  // rows, and every product stays exact.
  macro::ImcMemory mem(small_mem());
  ExecutionEngine eng(mem);
  const unsigned bits = 8;
  const std::size_t weights = 4, elements = 40;
  std::vector<ResidentOperand> previous;
  for (std::uint64_t set = 0; set < 500; ++set) {
    std::vector<std::vector<std::uint64_t>> w;
    std::vector<ResidentOperand> handles;
    for (std::size_t j = 0; j < weights; ++j) {
      w.push_back(random_codes(elements, bits, 5000 + weights * set + j));
      handles.push_back(eng.pin(w.back(), bits, OperandLayout::MultUnit));
    }
    const auto x = random_codes(elements, bits, 9000 + set);
    const auto results = eng.run_forward(handles, x);
    for (std::size_t j = 0; j < weights; ++j)
      for (std::size_t i = 0; i < elements; ++i)
        ASSERT_EQ(results[j].values[i], w[j][i] * x[i]) << "set " << set << " op " << j;
    for (const ResidentOperand& h : previous) EXPECT_TRUE(eng.unpin(h));
    previous = handles;
  }
  EXPECT_EQ(eng.fusion_stats().fused_runs, 500u);
  EXPECT_EQ(eng.fusion_stats().compiles, 1u);
  EXPECT_EQ(eng.fusion_stats().recompiles, 0u);
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
