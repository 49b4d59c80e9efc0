// ExecutionEngine: sharded parallel dispatch must be bit-identical to the
// serial walk -- values AND RunStats -- at every thread count, including
// odd-sized vectors whose last chunk only partially fills a row pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "app/vector_engine.hpp"
#include "common/rng.hpp"
#include "engine/execution_engine.hpp"
#include "macro/compiler.hpp"
#include "macro/cost_model.hpp"
#include "macro/program.hpp"
#include "obs/metrics.hpp"

namespace bpim::engine {
namespace {

macro::MemoryConfig tiny_memory() {
  macro::MemoryConfig cfg;
  cfg.banks = 2;
  cfg.macros_per_bank = 2;
  return cfg;
}

std::vector<std::uint64_t> random_vec(std::size_t n, unsigned bits, std::uint64_t seed) {
  bpim::Rng rng(seed);
  const std::uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_u64() & mask;
  return v;
}

/// Run `op` on a fresh memory with `threads` total workers.
OpResult run_fresh(const VecOp& op, std::size_t threads) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{threads});
  return eng.run(op);
}

void expect_identical(const OpResult& want, const OpResult& got, const char* what) {
  EXPECT_EQ(want.values, got.values) << what;
  EXPECT_EQ(want.stats.elements, got.stats.elements) << what;
  EXPECT_EQ(want.stats.instructions, got.stats.instructions) << what;
  EXPECT_EQ(want.stats.elapsed_cycles, got.stats.elapsed_cycles) << what;
  // Bit-identical doubles, not approximately equal: the merge order is fixed.
  EXPECT_EQ(want.stats.energy.si(), got.stats.energy.si()) << what;
  EXPECT_EQ(want.stats.elapsed_time.si(), got.stats.elapsed_time.si()) << what;
  EXPECT_EQ(want.stats.load_cycles, got.stats.load_cycles) << what;
  EXPECT_EQ(want.stats.load_cycles_saved, got.stats.load_cycles_saved) << what;
  EXPECT_EQ(want.stats.fused_cycles_saved, got.stats.fused_cycles_saved) << what;
  EXPECT_EQ(want.stats.adaptive_cycles_saved, got.stats.adaptive_cycles_saved) << what;
}

void expect_identical(const BatchStats& want, const BatchStats& got, const char* what) {
  EXPECT_EQ(want.ops, got.ops) << what;
  EXPECT_EQ(want.elements, got.elements) << what;
  EXPECT_EQ(want.instructions, got.instructions) << what;
  EXPECT_EQ(want.load_cycles, got.load_cycles) << what;
  EXPECT_EQ(want.load_cycles_saved, got.load_cycles_saved) << what;
  EXPECT_EQ(want.compute_cycles, got.compute_cycles) << what;
  EXPECT_EQ(want.serial_cycles, got.serial_cycles) << what;
  EXPECT_EQ(want.pipelined_cycles, got.pipelined_cycles) << what;
  EXPECT_EQ(want.fused_cycles_saved, got.fused_cycles_saved) << what;
  EXPECT_EQ(want.adaptive_cycles_saved, got.adaptive_cycles_saved) << what;
  EXPECT_EQ(want.energy.si(), got.energy.si()) << what;
  EXPECT_EQ(want.elapsed_time.si(), got.elapsed_time.si()) << what;
}

/// Every result of one fused call plus the engine's batch account.
struct FusedRun {
  std::vector<OpResult> results;
  BatchStats batch;
  FusionStats fusion;
};

void expect_identical(const FusedRun& want, const FusedRun& got, const std::string& what) {
  ASSERT_EQ(want.results.size(), got.results.size()) << what;
  for (std::size_t j = 0; j < want.results.size(); ++j)
    expect_identical(want.results[j], got.results[j], (what + " op " + std::to_string(j)).c_str());
  expect_identical(want.batch, got.batch, what.c_str());
  EXPECT_EQ(want.fusion.fused_runs, got.fusion.fused_runs) << what;
  EXPECT_EQ(want.fusion.fallback_runs, got.fusion.fallback_runs) << what;
}

/// `ops` weights of `elements` pinned on a fresh memory, forwarded twice
/// (compile, then cache hit) against one activation.
FusedRun forward_fresh(std::size_t ops, std::size_t elements, bool adaptive,
                       std::size_t threads) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{threads});
  if (adaptive) eng.set_adaptive_policy({.narrow_precision = true, .skip_zero = true});
  std::vector<std::vector<std::uint64_t>> w;
  std::vector<ResidentOperand> handles;
  for (std::size_t j = 0; j < ops; ++j) {
    w.push_back(random_vec(elements, 8, 0xF0 + j));
    // Sparse high bits so the adaptive policy has something to narrow.
    if (adaptive)
      for (std::size_t i = 0; i < elements; i += 3) w.back()[i] &= 0x0F;
    handles.push_back(eng.pin(w.back(), 8, OperandLayout::MultUnit));
  }
  const auto x = random_vec(elements, 8, 0xE0 + ops);
  FusedRun run;
  (void)eng.run_forward(handles, x);
  run.results = eng.run_forward(handles, x);
  run.batch = eng.last_batch();
  run.fusion = eng.fusion_stats();
  return run;
}

class EngineDeterminismP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineDeterminismP, AllOpsMatchSerialExactly) {
  const std::size_t threads = GetParam();
  const unsigned bits = 8;
  // Sizes chosen to hit: sub-chunk, partial last chunk, exact layer,
  // multi-layer with a partial tail.
  const std::vector<std::size_t> sizes = {1, 7, 64, 300, 1023};
  const std::vector<VecOp> protos = {
      {OpKind::Add, bits, periph::LogicFn::And, {}, {}},
      {OpKind::Sub, bits, periph::LogicFn::And, {}, {}},
      {OpKind::Mult, bits, periph::LogicFn::And, {}, {}},
      {OpKind::AddShift, bits, periph::LogicFn::And, {}, {}},
      {OpKind::Logic, bits, periph::LogicFn::Xor, {}, {}},
  };
  for (const std::size_t n : sizes) {
    const auto a = random_vec(n, bits, 0xA0 + n);
    const auto b = random_vec(n, bits, 0xB0 + n);
    for (VecOp op : protos) {
      op.a = a;
      op.b = b;
      const OpResult serial = run_fresh(op, 1);
      const OpResult parallel = run_fresh(op, threads);
      expect_identical(serial, parallel,
                       (std::string(to_string(op.kind)) + " n=" + std::to_string(n)).c_str());
    }
    // NOT is unary: side b stays empty.
    const VecOp not_op{OpKind::Not, bits, periph::LogicFn::And, a, {}};
    expect_identical(run_fresh(not_op, 1), run_fresh(not_op, threads),
                     ("NOT n=" + std::to_string(n)).c_str());
  }
}

TEST_P(EngineDeterminismP, FusedForwardMatchesSerialExactly) {
  const std::size_t threads = GetParam();
  // 32 MULT units per layer over 4 macros: 100 elements leave a partial last
  // chunk on one macro, and their 13 chunks give macro 0 four layers and
  // the rest three -- two fused program shapes. 20 elements (3 chunks) and
  // 5 elements (1 chunk) leave macros idle. 2 x 699 elements need (2 + 1) x
  // 22 > 64 row pairs, so that shape cannot fuse and falls back to
  // op-at-a-time.
  struct Shape {
    std::size_t ops, elements;
    bool adaptive;
  };
  for (const Shape& s : {Shape{3, 100, false}, Shape{3, 100, true}, Shape{1, 7, false},
                         Shape{3, 20, false}, Shape{3, 20, true}, Shape{3, 5, false},
                         Shape{3, 5, true}, Shape{2, 699, false}, Shape{2, 699, true}}) {
    const FusedRun serial = forward_fresh(s.ops, s.elements, s.adaptive, 1);
    const FusedRun parallel = forward_fresh(s.ops, s.elements, s.adaptive, threads);
    EXPECT_EQ(serial.fusion.fallback_runs, s.elements == 699 ? 2u : 0u);
    expect_identical(serial, parallel,
                     "forward " + std::to_string(s.ops) + "x" + std::to_string(s.elements) +
                         (s.adaptive ? " adaptive" : ""));
  }
}

TEST_P(EngineDeterminismP, MixedExtractBatchMatchesSerialExactly) {
  // One batch whose ops extract MULT-unit products and plain words, at two
  // precisions and with partial last chunks, on one engine: every value
  // lands where the serial walk puts it, and it is the host's answer.
  const auto a8 = random_vec(300, 8, 0x51);
  const auto b8 = random_vec(300, 8, 0x52);
  const auto a4 = random_vec(77, 4, 0x53);
  const auto b4 = random_vec(77, 4, 0x54);
  const std::vector<VecOp> ops = {
      {OpKind::Mult, 8, periph::LogicFn::And, a8, b8},
      {OpKind::Add, 8, periph::LogicFn::And, a8, b8},
      {OpKind::Mult, 4, periph::LogicFn::And, a4, b4},
      {OpKind::Logic, 4, periph::LogicFn::Xor, a4, b4},
      {OpKind::Not, 4, periph::LogicFn::And, a4, {}},
      {OpKind::Mult, 8, periph::LogicFn::And, a8, b8},
      {OpKind::Sub, 8, periph::LogicFn::And, a8, b8},
  };
  const auto run_on = [&](std::size_t threads) {
    macro::ImcMemory mem(tiny_memory());
    ExecutionEngine eng(mem, EngineConfig{threads});
    std::pair<std::vector<OpResult>, BatchStats> out;
    out.first = eng.run_batch(ops);
    out.second = eng.last_batch();
    return out;
  };
  const auto [serial, serial_batch] = run_on(1);
  const auto [parallel, parallel_batch] = run_on(GetParam());
  ASSERT_EQ(serial.size(), ops.size());
  ASSERT_EQ(parallel.size(), ops.size());
  for (std::size_t k = 0; k < ops.size(); ++k)
    expect_identical(serial[k], parallel[k], ("mixed op " + std::to_string(k)).c_str());
  expect_identical(serial_batch, parallel_batch, "mixed batch");
  for (std::size_t i = 0; i < a8.size(); ++i) {
    EXPECT_EQ(parallel[0].values[i], a8[i] * b8[i]) << i;
    EXPECT_EQ(parallel[1].values[i], (a8[i] + b8[i]) & 0xFF) << i;
    EXPECT_EQ(parallel[5].values[i], a8[i] * b8[i]) << i;
    EXPECT_EQ(parallel[6].values[i], (a8[i] - b8[i]) & 0xFF) << i;
  }
  for (std::size_t i = 0; i < a4.size(); ++i) {
    EXPECT_EQ(parallel[2].values[i], a4[i] * b4[i]) << i;
    EXPECT_EQ(parallel[3].values[i], a4[i] ^ b4[i]) << i;
    EXPECT_EQ(parallel[4].values[i], ~a4[i] & 0xF) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, EngineDeterminismP, ::testing::Values(2u, 4u, 8u));

TEST(ExecutionEngine, MatchesScalarReference) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{4});
  const unsigned bits = 8;
  const auto a = random_vec(333, bits, 1);
  const auto b = random_vec(333, bits, 2);

  VecOp op{OpKind::Add, bits, periph::LogicFn::And, a, b};
  auto add = eng.run(op);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(add.values[i], (a[i] + b[i]) & 0xFF);

  op.kind = OpKind::Mult;
  auto mul = eng.run(op);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(mul.values[i], a[i] * b[i]);

  // ADD-Shift: the sum, shifted up one position in-field (bit 0 zeroed).
  op.kind = OpKind::AddShift;
  auto as = eng.run(op);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(as.values[i], ((a[i] + b[i]) << 1) & 0xFF);

  const VecOp un{OpKind::Not, bits, periph::LogicFn::And, a, {}};
  auto nt = eng.run(un);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(nt.values[i], ~a[i] & 0xFF);
}

TEST(ExecutionEngine, BatchMatchesIndividualRuns) {
  const unsigned bits = 8;
  const auto a0 = random_vec(100, bits, 3);
  const auto b0 = random_vec(100, bits, 4);
  const auto a1 = random_vec(37, bits, 5);
  const auto b1 = random_vec(37, bits, 6);
  std::vector<VecOp> ops = {
      {OpKind::Mult, bits, periph::LogicFn::And, a0, b0},
      {OpKind::Add, bits, periph::LogicFn::And, a1, b1},
  };

  macro::ImcMemory mem_batch(tiny_memory());
  ExecutionEngine eng_batch(mem_batch, EngineConfig{4});
  const auto results = eng_batch.run_batch(ops);
  ASSERT_EQ(results.size(), 2u);

  for (std::size_t k = 0; k < ops.size(); ++k) {
    const OpResult one = run_fresh(ops[k], 1);
    expect_identical(one, results[k], "batch op");
  }

  const BatchStats& bs = eng_batch.last_batch();
  EXPECT_EQ(bs.ops, 2u);
  EXPECT_EQ(bs.elements, 137u);
  EXPECT_EQ(bs.compute_cycles,
            results[0].stats.elapsed_cycles + results[1].stats.elapsed_cycles);
  EXPECT_EQ(bs.serial_cycles, bs.load_cycles + bs.compute_cycles);
  // Double buffering can only help, and never beats pure compute + first load.
  EXPECT_LE(bs.pipelined_cycles, bs.serial_cycles);
  EXPECT_GE(bs.pipelined_cycles, bs.compute_cycles);
  EXPECT_EQ(bs.energy.si(),
            (results[0].stats.energy + results[1].stats.energy).si());
}

TEST(ExecutionEngine, BatchOverlapHidesLoadBehindCompute) {
  // MULT at 8 bits runs N+2 = 10 cycles per layer vs 2 load cycles, so in a
  // long same-shape batch every load after the first hides completely.
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  const unsigned bits = 8;
  const auto a = random_vec(32, bits, 7);  // one layer (4 macros x 8 units)
  const auto b = random_vec(32, bits, 8);
  std::vector<VecOp> ops(5, VecOp{OpKind::Mult, bits, periph::LogicFn::And, a, b});
  (void)eng.run_batch(ops);
  const BatchStats& bs = eng.last_batch();
  EXPECT_EQ(bs.load_cycles, 5u * 2u);
  EXPECT_EQ(bs.pipelined_cycles, 2u + bs.compute_cycles);  // only load 0 exposed
  EXPECT_GT(bs.overlap_speedup(), 1.0);
}

TEST(ExecutionEngine, NoOverlapCreditAtFullCapacity) {
  // Two full-capacity ops (64 layers each on 64 row pairs) cannot be
  // co-resident, so the batch model must not hide the second load.
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  const unsigned bits = 8;
  const std::size_t full = eng.mult_units_per_row(bits) * mem.macro_count() * 64;
  const auto a = random_vec(full, bits, 16);
  const auto b = random_vec(full, bits, 17);
  std::vector<VecOp> ops(2, VecOp{OpKind::Mult, bits, periph::LogicFn::And, a, b});
  (void)eng.run_batch(ops);
  EXPECT_EQ(eng.last_batch().pipelined_cycles, eng.last_batch().serial_cycles);

  // Half-capacity ops can ping-pong, so overlap is credited again.
  const auto ha = random_vec(full / 2, bits, 18);
  const auto hb = random_vec(full / 2, bits, 19);
  std::vector<VecOp> half_ops(2, VecOp{OpKind::Mult, bits, periph::LogicFn::And, ha, hb});
  (void)eng.run_batch(half_ops);
  EXPECT_LT(eng.last_batch().pipelined_cycles, eng.last_batch().serial_cycles);
}

TEST(ExecutionEngine, EmptyBatchIsANoOp) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  const auto results = eng.run_batch({});
  EXPECT_TRUE(results.empty());
  const BatchStats& bs = eng.last_batch();
  EXPECT_EQ(bs.ops, 0u);
  EXPECT_EQ(bs.elements, 0u);
  EXPECT_EQ(bs.load_cycles, 0u);
  EXPECT_EQ(bs.compute_cycles, 0u);
  EXPECT_EQ(bs.serial_cycles, 0u);
  EXPECT_EQ(bs.pipelined_cycles, 0u);
  EXPECT_EQ(bs.energy.si(), 0.0);
  EXPECT_EQ(bs.elapsed_time.si(), 0.0);
  // The pool and the memory's counters were never touched.
  EXPECT_EQ(mem.elapsed_cycles(), 0u);
}

TEST(ExecutionEngine, LayersForAndCapacityHooks) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  EXPECT_EQ(eng.row_pair_capacity(), 64u);  // 128 rows -> 64 ping-pong pairs
  const auto a = random_vec(65, 8, 20);     // 16 words/row x 4 macros = 64/layer
  VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, a};
  EXPECT_EQ(eng.layers_for(op), 2u);
  op.kind = OpKind::Mult;  // 8 units/row x 4 macros = 32/layer
  EXPECT_EQ(eng.layers_for(op), 3u);
}

TEST(ExecutionEngine, EmptyAndErrorCases) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{4});
  const std::vector<std::uint64_t> empty;
  VecOp op{OpKind::Add, 8, periph::LogicFn::And, empty, empty};
  const auto res = eng.run(op);
  EXPECT_TRUE(res.values.empty());
  EXPECT_EQ(res.stats.elapsed_cycles, 0u);

  const auto a = random_vec(4, 8, 9);
  const auto b = random_vec(3, 8, 10);
  op.a = a;
  op.b = b;
  EXPECT_THROW((void)eng.run(op), std::invalid_argument);  // propagates off the pool

  op.b = a;
  op.bits = 3;
  EXPECT_THROW((void)eng.run(op), std::invalid_argument);
}

TEST(ExecutionEngine, VectorEngineRoutesThroughSharedEngine) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  app::VectorEngine ve(eng, 8);
  EXPECT_EQ(&ve.engine(), &eng);

  const auto a = random_vec(200, 8, 11);
  const auto b = random_vec(200, 8, 12);
  const auto c = ve.add(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(c[i], (a[i] + b[i]) & 0xFF);

  // Serial seed semantics preserved: 200 adds on 64 words/layer -> 4 layers.
  EXPECT_EQ(ve.last_run().elapsed_cycles, 4u);
  EXPECT_EQ(ve.last_run().elements, 200u);
}

TEST(ExecutionEngine, VectorEngineBatchAggregatesLastRun) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  app::VectorEngine ve(eng, 8);
  const auto a = random_vec(40, 8, 14);
  const auto b = random_vec(40, 8, 15);
  std::vector<std::pair<std::span<const std::uint64_t>, std::span<const std::uint64_t>>> pairs =
      {{a, b}, {a, b}, {a, b}};
  const auto results = ve.mult_batch(pairs);
  ASSERT_EQ(results.size(), 3u);
  // last_run() is the sum over the batch, as a loop over ops would report.
  std::uint64_t cycles = 0;
  Joule energy{0.0};
  for (const auto& r : results) {
    cycles += r.stats.elapsed_cycles;
    energy += r.stats.energy;
  }
  EXPECT_EQ(ve.last_run().elements, 120u);
  EXPECT_EQ(ve.last_run().elapsed_cycles, cycles);
  EXPECT_EQ(ve.last_run().energy.si(), energy.si());
}

TEST(ExecutionEngine, InstructionStreamConservesLedger) {
  // The unified execution model's conservation law at the engine level: the
  // instruction-stream account in RunStats (one single-op program per chunk)
  // must reproduce what the macro ledgers charged -- chunk count as the
  // instruction count, CostModel pricing for cycles, and the exact nested
  // per-bank energy fold, bitwise.
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{4});
  const unsigned bits = 8;
  const std::size_t n = 300;
  const auto a = random_vec(n, bits, 21);
  const auto b = random_vec(n, bits, 22);
  const macro::CostModel cost(mem.macro(0).config());
  const std::size_t macros = mem.macro_count();
  const auto d1 = array::RowRef::dummy(macro::ImcMacro::kDummyOperand);
  const auto d2 = array::RowRef::dummy(macro::ImcMacro::kDummyAccum);

  struct Case {
    VecOp op;
    macro::Instruction inst;
  };
  std::vector<Case> cases;
  const auto make = [&](OpKind kind, macro::Op mop, periph::LogicFn fn,
                        std::optional<array::RowRef> dest) {
    Case c;
    c.op = VecOp{kind, bits, fn, a,
                 kind == OpKind::Not ? std::span<const std::uint64_t>{}
                                     : std::span<const std::uint64_t>(b)};
    c.inst.op = mop;
    c.inst.logic_fn = fn;
    c.inst.bits = bits;
    c.inst.a = array::RowRef::main(0);
    c.inst.b = array::RowRef::main(1);
    c.inst.dest = dest;
    cases.push_back(std::move(c));
  };
  make(OpKind::Add, macro::Op::Add, periph::LogicFn::And, std::nullopt);
  make(OpKind::Sub, macro::Op::Sub, periph::LogicFn::And, std::nullopt);
  make(OpKind::Mult, macro::Op::Mult, periph::LogicFn::And, std::nullopt);
  make(OpKind::AddShift, macro::Op::AddShift, periph::LogicFn::And, d2);
  make(OpKind::Not, macro::Op::Not, periph::LogicFn::And, d1);
  make(OpKind::Logic, macro::Op::And, periph::LogicFn::Xor, std::nullopt);

  for (const Case& c : cases) {
    const OpResult res = eng.run(c.op);
    const std::size_t per_chunk =
        c.op.kind == OpKind::Mult ? eng.mult_units_per_row(bits) : eng.words_per_row(bits);
    const std::uint64_t chunks = (n + per_chunk - 1) / per_chunk;
    EXPECT_EQ(res.stats.instructions, chunks) << to_string(c.op.kind);

    const macro::InstructionCost ic = cost.instruction_cost(c.inst);
    const std::uint64_t layers = (chunks + macros - 1) / macros;
    EXPECT_EQ(res.stats.elapsed_cycles, ic.cycles * layers) << to_string(c.op.kind);

    // Replay the engine's merge: per-macro fold in chunk order, then banks.
    std::vector<Joule> em(macros, Joule{0.0});
    for (std::uint64_t ch = 0; ch < chunks; ++ch) em[ch % macros] += ic.energy;
    Joule want{0.0};
    const std::size_t per_bank = mem.config().macros_per_bank;
    for (std::size_t bk = 0; bk < mem.bank_count(); ++bk) {
      Joule bank{0.0};
      for (std::size_t i = 0; i < mem.bank(bk).macro_count(); ++i)
        bank += em[bk * per_bank + i];
      want += bank;
    }
    EXPECT_EQ(res.stats.energy.si(), want.si()) << to_string(c.op.kind);
  }
}

/// The program-path instruments as they stand: macro.program.cycles and
/// engine.adaptive.*.
struct ProgramInstruments {
  obs::HistogramSnapshot cycles, depth;
  std::uint64_t mults = 0, skipped = 0, saved = 0;

  static ProgramInstruments now() {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    return {r.histogram("macro.program.cycles").snapshot(),
            r.histogram("engine.adaptive.narrowed_depth").snapshot(),
            r.counter("engine.adaptive.mults").value(),
            r.counter("engine.adaptive.skipped").value(),
            r.counter("engine.adaptive.cycles_saved").value()};
  }
};

/// Bucket upper bound -> events, of `after` less `before`.
std::map<std::uint64_t, std::uint64_t> bucket_delta(const obs::HistogramSnapshot& before,
                                                    const obs::HistogramSnapshot& after) {
  std::map<std::uint64_t, std::uint64_t> d;
  for (const auto& b : after.buckets) d[b.upper] += b.count;
  for (const auto& b : before.buckets) d[b.upper] -= b.count;
  std::erase_if(d, [](const auto& kv) { return kv.second == 0; });
  return d;
}

/// What a dispatch's programs imply for those instruments, from a
/// controller replay of the same programs with retire records (the
/// controller publishes nothing, so the replay moves none of them): one
/// cycles observation per program and, under an enabled policy, every
/// MULT's plan.
struct ImpliedInstruments {
  obs::Histogram cycles, depth;
  std::uint64_t mults = 0, skipped = 0, saved = 0;

  void add(const macro::Program& p, std::span<const macro::Extract> records, bool adaptive) {
    std::uint64_t program_cycles = 0;
    for (std::size_t k = 0; k < p.size(); ++k) {
      program_cycles += records[k].cycles;
      if (!adaptive || p.instructions()[k].op != macro::Op::Mult) continue;
      ++mults;
      skipped += records[k].plan.skip ? 1 : 0;
      saved += records[k].adaptive_cycles_saved;
      depth.observe(records[k].plan.depth);
    }
    cycles.observe(program_cycles);
  }

  void expect_published_since(const ProgramInstruments& before, const std::string& what) const {
    const ProgramInstruments after = ProgramInstruments::now();
    for (const auto& [got0, got1, want] :
         {std::tuple{&before.cycles, &after.cycles, cycles.snapshot()},
          std::tuple{&before.depth, &after.depth, depth.snapshot()}}) {
      EXPECT_EQ(got1->count - got0->count, want.count) << what;
      EXPECT_EQ(got1->sum - got0->sum, want.sum) << what;
      EXPECT_EQ(bucket_delta(*got0, *got1), bucket_delta({}, want)) << what;
    }
    EXPECT_EQ(after.mults - before.mults, mults) << what;
    EXPECT_EQ(after.skipped - before.skipped, skipped) << what;
    EXPECT_EQ(after.saved - before.saved, saved) << what;
  }
};

TEST(ExecutionEngine, ProgramInstrumentsMatchRetiredPrograms) {
  // The engine publishes macro.program.cycles and engine.adaptive.* after
  // each dispatch's join, from the programs it ran and their retire
  // records: count, sum and every bucket are what a controller replay of
  // the same programs implies -- for every single-op kind and a fused
  // forward, with the adaptive policy on and off, at 1 and 4 threads.
  const unsigned bits = 8;
  const std::size_t n = 100;  // a partial last chunk at every layout
  std::vector<std::uint64_t> a = random_vec(n, bits, 0x1A);
  std::vector<std::uint64_t> b = random_vec(n, bits, 0x1B);
  // Narrow multipliers and a zero multiplicand chunk: the policy narrows
  // and skips.
  for (std::size_t i = 0; i < n; i += 2) b[i] &= 0x0F;
  std::fill(a.begin(), a.begin() + 8, 0);
  const array::RowRef r0 = array::RowRef::main(0), r1 = array::RowRef::main(1);
  const auto inst_of = [&](OpKind kind) {
    macro::Instruction i{.a = r0, .b = r1, .bits = bits};
    switch (kind) {
      case OpKind::Add: i.op = macro::Op::Add; break;
      case OpKind::Sub: i.op = macro::Op::Sub; break;
      case OpKind::Mult: i.op = macro::Op::Mult; break;
      case OpKind::AddShift:
        i.op = macro::Op::AddShift;
        i.dest = array::RowRef::dummy(macro::ImcMacro::kDummyAccum);
        break;
      case OpKind::Not:
        i.op = macro::Op::Not;
        i.dest = array::RowRef::dummy(macro::ImcMacro::kDummyOperand);
        break;
      case OpKind::Logic:
        i.op = macro::Op::And;
        i.logic_fn = periph::LogicFn::Xor;
        break;
    }
    return i;
  };

  for (const std::size_t threads : {1u, 4u}) {
    for (const bool adaptive : {false, true}) {
      const macro::AdaptivePolicy policy =
          adaptive ? macro::AdaptivePolicy{true, true} : macro::AdaptivePolicy{};
      const std::string where =
          std::to_string(threads) + " threads" + (adaptive ? ", adaptive" : "");
      for (const OpKind kind : {OpKind::Add, OpKind::Sub, OpKind::Mult, OpKind::AddShift,
                                OpKind::Not, OpKind::Logic}) {
        const bool unary = kind == OpKind::Not;
        const VecOp op{kind, bits, periph::LogicFn::Xor, a,
                       unary ? std::span<const std::uint64_t>{}
                             : std::span<const std::uint64_t>(b)};
        macro::ImcMemory mem(tiny_memory());
        ExecutionEngine eng(mem, EngineConfig{threads});
        eng.set_adaptive_policy(policy);
        const ProgramInstruments before = ProgramInstruments::now();
        (void)eng.run(op);

        // Replay: each chunk is one single-instruction program over
        // otherwise-zero operand rows.
        macro::ImcMacro twin{mem.macro(0).config()};
        macro::OpCompiler oc(twin.config().geometry);
        const macro::VerifiedProgram& prog = oc.single(inst_of(kind));
        const std::size_t per = eng.elements_per_chunk(op);
        ImpliedInstruments want;
        for (std::size_t pos = 0; pos < n; pos += per) {
          const std::size_t len = std::min(per, n - pos);
          for (const std::size_t r : {0u, 1u}) twin.poke_row(r, BitVector(twin.cols()));
          const auto stage = [&](std::size_t r, std::span<const std::uint64_t> v) {
            if (kind == OpKind::Mult)
              twin.poke_mult_operands(r, 0, bits, v.subspan(pos, len));
            else
              twin.poke_words(r, 0, bits, v.subspan(pos, len));
          };
          stage(0, a);
          if (!unary) stage(1, b);
          std::vector<std::uint64_t> values(len);
          macro::Extract rec{.bits = bits, .values = values};
          (void)macro::MacroController(twin).run(prog, policy, {&rec, 1});
          want.add(prog, {&rec, 1}, adaptive);
        }
        want.expect_published_since(before, where + ", " + to_string(kind));
      }

      // A fused forward: macro m runs one program over its chunks m, m + M,
      // ...; the replay stacks the same operands in the compiler's default
      // rows on a twin memory.
      const std::size_t ops = 3;
      macro::ImcMemory mem(tiny_memory());
      ExecutionEngine eng(mem, EngineConfig{threads});
      eng.set_adaptive_policy(policy);
      std::vector<std::vector<std::uint64_t>> w;
      std::vector<ResidentOperand> handles;
      for (std::size_t j = 0; j < ops; ++j) {
        w.push_back(random_vec(n, 2 + 2 * static_cast<unsigned>(j), 0x2A + j));
        handles.push_back(eng.pin(w.back(), bits, OperandLayout::MultUnit));
      }
      const ProgramInstruments before = ProgramInstruments::now();
      (void)eng.run_forward(handles, a);
      ASSERT_EQ(eng.fusion_stats().fused_runs, 1u) << where;

      const std::size_t macros = mem.macro_count(), units = eng.mult_units_per_row(bits);
      const std::size_t chunks = (n + units - 1) / units;
      macro::ImcMemory twin(tiny_memory());
      const macro::FusionCompiler compiler(twin.macro(0).config().geometry);
      ImpliedInstruments want;
      for (std::size_t m = 0; m < std::min(macros, chunks); ++m) {
        const std::size_t held = (chunks - m + macros - 1) / macros;
        macro::ImcMacro& mac = twin.macro(m);
        for (std::size_t l = 0; l < held; ++l) {
          const std::size_t pos = (l * macros + m) * units;
          const std::size_t len = std::min(units, n - pos);
          mac.poke_mult_operands(2 * l, 0, bits, std::span(a).subspan(pos, len));
          for (std::size_t j = 0; j < ops; ++j)
            mac.poke_mult_operands(2 * ((j + 1) * held + l), 0, bits,
                                   std::span(w[j]).subspan(pos, len));
        }
        const macro::RelocatableForward prog = compiler.compile_relocatable_forward(bits, ops, held);
        std::vector<macro::Extract> records(prog.program().size());
        (void)macro::MacroController(mac).run(prog.program(), policy, records);
        want.add(prog.program(), records, adaptive);
      }
      if (adaptive) {
        EXPECT_GT(want.skipped, 0u) << where;
      }
      want.expect_published_since(before, where + ", fused forward");
    }
  }
}

TEST(ExecutionEngine, AdaptiveMultIgnoresStaleRowTail) {
  // A staged row is written whole, values then zeros, so a short MULT plans
  // from its own operands only: after a full-row ADD through the same rows
  // it runs in the cycles a fresh engine's does.
  macro::MemoryConfig cfg;
  cfg.banks = 1;
  cfg.macros_per_bank = 1;
  const auto a = random_vec(16, 8, 0x5A);
  const auto b = random_vec(16, 8, 0x5B);
  const std::vector<std::uint64_t> zeros(4, 0);
  const auto b4 = std::span<const std::uint64_t>(b).first(4);
  const VecOp mult{OpKind::Mult, 8, periph::LogicFn::And, zeros, b4};
  const auto run_mult = [&](bool add_first) {
    macro::ImcMemory mem(cfg);
    ExecutionEngine eng(mem, EngineConfig{1});
    eng.set_adaptive_policy(macro::AdaptivePolicy{true, true});
    if (add_first) (void)eng.run(VecOp{OpKind::Add, 8, periph::LogicFn::And, a, b});
    return eng.run(mult);
  };
  const OpResult fresh = run_mult(false);
  const OpResult after_add = run_mult(true);
  EXPECT_EQ(fresh.values, zeros);
  EXPECT_GT(fresh.stats.adaptive_cycles_saved, 0u);
  expect_identical(fresh, after_add, "MULT after a full-row ADD");
}

TEST(ExecutionEngine, SingleOpProgramsAreCachedAcrossRuns) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{4});
  const auto a = random_vec(300, 8, 23);
  const auto b = random_vec(300, 8, 24);
  const VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, b};
  EXPECT_EQ(eng.op_program_cache_stats().compiled, 0u);
  (void)eng.run(op);
  // 300 words in 16-word chunks over 4 macros -> 5 row pairs -> 5 programs.
  const auto first = eng.op_program_cache_stats();
  EXPECT_EQ(first.compiled, 5u);
  EXPECT_EQ(first.hits, 0u);
  (void)eng.run(op);
  const auto second = eng.op_program_cache_stats();
  EXPECT_EQ(second.compiled, first.compiled);  // nothing recompiled
  EXPECT_EQ(second.hits, 5u);
}

TEST(ExecutionEngine, ConcurrentBatchOverProgramPath) {
  // TSan fodder: 8 workers share the OpCompiler cache and per-macro
  // controllers across a mixed-kind batch; results must still be the serial
  // answers, and the instruction account must be populated.
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{8});
  const unsigned bits = 8;
  const auto a = random_vec(200, bits, 25);
  const auto b = random_vec(200, bits, 26);
  const std::vector<VecOp> ops = {
      {OpKind::Mult, bits, periph::LogicFn::And, a, b},
      {OpKind::Add, bits, periph::LogicFn::And, a, b},
      {OpKind::AddShift, bits, periph::LogicFn::And, a, b},
      {OpKind::Not, bits, periph::LogicFn::And, a, {}},
      {OpKind::Sub, bits, periph::LogicFn::And, a, b},
      {OpKind::Logic, bits, periph::LogicFn::Xor, a, b},
  };
  for (int rep = 0; rep < 3; ++rep) {
    const auto results = eng.run_batch(ops);
    ASSERT_EQ(results.size(), ops.size());
    for (std::size_t k = 0; k < ops.size(); ++k)
      expect_identical(run_fresh(ops[k], 1), results[k], to_string(ops[k].kind));
    EXPECT_GT(eng.last_batch().instructions, 0u);
  }
}

TEST(ExecutionEngine, ThrowingBatchLeavesLastBatchUnchanged) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  const auto a = random_vec(100, 8, 27);
  const auto b = random_vec(100, 8, 28);
  const VecOp add{OpKind::Add, 8, periph::LogicFn::And, a, b};
  (void)eng.run_batch(std::vector<VecOp>{add, add, add});
  const BatchStats before = eng.last_batch();
  ASSERT_EQ(before.ops, 3u);

  // The second op references a handle that is no longer pinned: the batch
  // throws after its first op ran, and must not publish a partial account.
  const ResidentOperand gone = eng.pin(b, 8, OperandLayout::Word);
  ASSERT_TRUE(eng.unpin(gone));
  VecOp stale = add;
  stale.b = {};
  stale.rb = gone;
  EXPECT_THROW((void)eng.run_batch(std::vector<VecOp>{add, stale}), std::invalid_argument);
  const BatchStats& after = eng.last_batch();
  EXPECT_EQ(after.ops, before.ops);
  EXPECT_EQ(after.elements, before.elements);
  EXPECT_EQ(after.instructions, before.instructions);
  EXPECT_EQ(after.compute_cycles, before.compute_cycles);
  EXPECT_EQ(after.pipelined_cycles, before.pipelined_cycles);
  EXPECT_EQ(after.energy.si(), before.energy.si());

  // A malformed op is rejected before any op of the batch runs.
  const std::vector<std::uint64_t> short_b(99, 1);
  const VecOp ragged{OpKind::Add, 8, periph::LogicFn::And, a, short_b};
  const auto cache = eng.op_program_cache_stats();
  EXPECT_THROW((void)eng.run_batch(std::vector<VecOp>{add, ragged}), std::invalid_argument);
  EXPECT_EQ(eng.op_program_cache_stats().hits, cache.hits);
  EXPECT_EQ(eng.last_batch().ops, before.ops);
}

TEST(ExecutionEngine, CapacityOverflowRejected) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  // 4 macros x 64 row pairs x 16 words = 4096 elements max at 8 bits.
  const auto a = random_vec(4097, 8, 13);
  VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, a};
  EXPECT_THROW((void)eng.run(op), std::invalid_argument);
}

}  // namespace
}  // namespace bpim::engine
