// Persistent operand residency (engine/residency.hpp): resident-handle
// execution must be bit-identical to the re-poke path -- values, RunStats,
// energy -- while spending fewer modeled load cycles; eviction under
// pressure (pinned set + transients over row_pair_capacity) must churn
// LRU-first and stay correct through re-materialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/execution_engine.hpp"
#include "serve/memory_pool.hpp"
#include "serve/server.hpp"

namespace bpim::engine {
namespace {

macro::MemoryConfig tiny_memory(std::size_t rows = 128) {
  macro::MemoryConfig cfg;
  cfg.banks = 2;
  cfg.macros_per_bank = 2;
  cfg.macro.geometry.rows = rows;
  return cfg;
}

std::vector<std::uint64_t> random_vec(std::size_t n, unsigned bits, std::uint64_t seed) {
  bpim::Rng rng(seed);
  const std::uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_u64() & mask;
  return v;
}

void expect_identical(const OpResult& want, const OpResult& got, const char* what) {
  EXPECT_EQ(want.values, got.values) << what;
  EXPECT_EQ(want.stats.elements, got.stats.elements) << what;
  EXPECT_EQ(want.stats.elapsed_cycles, got.stats.elapsed_cycles) << what;
  // Bit-identical doubles, not approximately equal: the merge order is fixed.
  EXPECT_EQ(want.stats.energy.si(), got.stats.energy.si()) << what;
}

VecOp span_op(OpKind kind, unsigned bits, std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) {
  VecOp op;
  op.kind = kind;
  op.bits = bits;
  op.a = a;
  op.b = b;
  return op;
}

TEST(Residency, HandleMatchesSpanPathExactly) {
  // Same op, three ways: both spans (fresh memory), resident a-side,
  // resident b-side. Values, compute cycles and energy must be identical;
  // only the load account may differ.
  const unsigned bits = 8;
  for (const OpKind kind : {OpKind::Add, OpKind::Sub, OpKind::Mult, OpKind::Logic}) {
    const std::size_t n = 300;
    const auto a = random_vec(n, bits, 11);
    const auto b = random_vec(n, bits, 12);

    macro::ImcMemory fresh_mem(tiny_memory());
    ExecutionEngine fresh(fresh_mem);
    const OpResult want = fresh.run(span_op(kind, bits, a, b));

    const OperandLayout layout =
        kind == OpKind::Mult ? OperandLayout::MultUnit : OperandLayout::Word;

    macro::ImcMemory mem_a(tiny_memory());
    ExecutionEngine eng_a(mem_a);
    VecOp op_a = span_op(kind, bits, {}, b);
    op_a.ra = eng_a.pin(a, bits, layout);
    expect_identical(want, eng_a.run(op_a), "resident a");

    macro::ImcMemory mem_b(tiny_memory());
    ExecutionEngine eng_b(mem_b);
    VecOp op_b = span_op(kind, bits, a, {});
    op_b.rb = eng_b.pin(b, bits, layout);
    expect_identical(want, eng_b.run(op_b), "resident b");

    macro::ImcMemory mem_ab(tiny_memory());
    ExecutionEngine eng_ab(mem_ab);
    VecOp op_ab = span_op(kind, bits, {}, {});
    op_ab.ra = eng_ab.pin(a, bits, layout);
    op_ab.rb = eng_ab.pin(b, bits, layout);
    expect_identical(want, eng_ab.run(op_ab), "both resident");
  }
}

TEST(Residency, LoadCyclesChargedOnceThenSaved) {
  const unsigned bits = 8;
  const std::size_t n = 256;  // 4 macros x 16 mult units = 64/layer -> 4 layers
  const auto w = random_vec(n, bits, 21);
  const auto x = random_vec(n, bits, 22);

  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem);
  VecOp op = span_op(OpKind::Mult, bits, {}, x);
  op.ra = eng.pin(w, bits, OperandLayout::MultUnit);
  const std::size_t layers = op.ra.layers;
  ASSERT_EQ(layers, eng.layers_for(op));
  ASSERT_GT(layers, 1u);

  // First use: the materializing write plus the activation load.
  (void)eng.run(op);
  EXPECT_EQ(eng.last_batch().load_cycles, 2 * layers);
  EXPECT_EQ(eng.last_batch().load_cycles_saved, 0u);

  // Steady state: activation only, weight side saved.
  (void)eng.run(op);
  EXPECT_EQ(eng.last_batch().load_cycles, layers);
  EXPECT_EQ(eng.last_batch().load_cycles_saved, layers);
  const RunStats& s = eng.run(op).stats;
  EXPECT_EQ(s.load_cycles, layers);
  EXPECT_EQ(s.load_cycles_saved, layers);

  const ResidencyStats rs = eng.residency_stats();
  EXPECT_EQ(rs.pinned, 1u);
  EXPECT_EQ(rs.resident_layers, layers);
  EXPECT_EQ(rs.materializations, 1u);
  EXPECT_EQ(rs.evictions, 0u);
  EXPECT_EQ(rs.load_cycles_saved, 2 * layers);
}

TEST(Residency, EvictionUnderPressureStaysCorrect) {
  // Pin more handles than row_pair_capacity() can hold and walk them
  // round-robin: the LRU churn must evict and re-materialize transparently
  // with results identical to a fresh-poke engine, and with no disturb
  // flips under the paper's safe WL scheme.
  const unsigned bits = 8;
  macro::MemoryConfig cfg = tiny_memory(32);  // 16 row pairs per macro
  macro::ImcMemory mem(cfg);
  ExecutionEngine eng(mem);
  const std::size_t capacity = eng.row_pair_capacity();
  ASSERT_EQ(capacity, 16u);

  const std::size_t per_layer = eng.mult_units_per_row(bits) * mem.macro_count();
  const std::size_t layers_per_handle = 3;
  const std::size_t n = layers_per_handle * per_layer;
  const std::size_t handles = capacity / layers_per_handle + 3;  // 8 > 5-handle capacity
  ASSERT_GT(handles * layers_per_handle, capacity);

  std::vector<std::vector<std::uint64_t>> weights;
  std::vector<ResidentOperand> pins;
  for (std::size_t h = 0; h < handles; ++h) {
    weights.push_back(random_vec(n, bits, 100 + h));
    pins.push_back(eng.pin(weights.back(), bits, OperandLayout::MultUnit));
  }

  macro::ImcMemory fresh_mem(cfg);
  ExecutionEngine fresh(fresh_mem);
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t h = 0; h < handles; ++h) {
      const auto x = random_vec(n, bits, 1000 + round * handles + h);
      VecOp op = span_op(OpKind::Mult, bits, {}, x);
      op.ra = pins[h];
      const OpResult got = eng.run(op);
      const OpResult want = fresh.run(span_op(OpKind::Mult, bits, weights[h], x));
      expect_identical(want, got, "eviction churn");
    }
  }

  const ResidencyStats rs = eng.residency_stats();
  EXPECT_EQ(rs.pinned, handles);
  EXPECT_GT(rs.evictions, 0u);
  EXPECT_GT(rs.materializations, handles);  // re-materializations happened
  EXPECT_LE(rs.resident_layers, capacity);
  // Disturb accounting: the safe WL scheme never flips cells, so the churn
  // must leave every macro's disturb counter at zero on both engines.
  for (std::size_t m = 0; m < mem.macro_count(); ++m) {
    EXPECT_EQ(mem.macro(m).disturb_flips(), 0u);
    EXPECT_EQ(fresh_mem.macro(m).disturb_flips(), 0u);
  }
}

TEST(Residency, TransientOpsEvictConflictingHandles) {
  // A full-capacity transient op must reclaim the whole array even when
  // handles are resident, and the handles must come back on next use.
  const unsigned bits = 8;
  macro::ImcMemory mem(tiny_memory(32));
  ExecutionEngine eng(mem);
  const std::size_t capacity = eng.row_pair_capacity();
  const std::size_t per_layer = eng.words_per_row(bits) * mem.macro_count();

  const auto w = random_vec(4 * per_layer, bits, 31);
  const auto x = random_vec(4 * per_layer, bits, 32);
  VecOp resident = span_op(OpKind::Add, bits, {}, x);
  resident.ra = eng.pin(w, bits, OperandLayout::Word);
  const OpResult first = eng.run(resident);

  // Full-capacity transient ADD: needs every row pair.
  const auto big_a = random_vec(capacity * per_layer, bits, 33);
  const auto big_b = random_vec(capacity * per_layer, bits, 34);
  const OpResult big = eng.run(span_op(OpKind::Add, bits, big_a, big_b));
  for (std::size_t i = 0; i < big_a.size(); ++i) {
    const std::uint64_t mask = (1ull << bits) - 1;
    ASSERT_EQ(big.values[i], (big_a[i] + big_b[i]) & mask);
  }
  EXPECT_GT(eng.residency_stats().evictions, 0u);
  EXPECT_EQ(eng.resident_layers(), 0u);

  // The handle re-materializes and the op still matches its first run.
  const OpResult again = eng.run(resident);
  EXPECT_EQ(first.values, again.values);
  EXPECT_EQ(eng.residency_stats().materializations, 2u);
}

TEST(Residency, BatchOverlapAccounting) {
  // Two ops on the same handle cannot double-buffer (the activation row is
  // the computing pair's); two ops on distinct handles can.
  const unsigned bits = 8;
  const std::size_t n = 64;
  const auto w1 = random_vec(n, bits, 41);
  const auto w2 = random_vec(n, bits, 42);
  const auto x = random_vec(n, bits, 43);

  const auto pipelined_for = [&](bool distinct) {
    macro::ImcMemory mem(tiny_memory());
    ExecutionEngine eng(mem);
    VecOp op1 = span_op(OpKind::Mult, bits, {}, x);
    op1.ra = eng.pin(w1, bits, OperandLayout::MultUnit);
    VecOp op2 = span_op(OpKind::Mult, bits, {}, x);
    op2.ra = distinct ? eng.pin(w2, bits, OperandLayout::MultUnit) : op1.ra;
    const std::vector<VecOp> warm = {op1, op2};
    (void)eng.run_batch(warm);  // materialize both
    (void)eng.run_batch(warm);  // steady-state account
    return eng.last_batch();
  };

  const BatchStats same = pipelined_for(false);
  const BatchStats distinct = pipelined_for(true);
  // Same handle: load(2) cannot hide behind compute(1) -> strictly serial.
  EXPECT_EQ(same.pipelined_cycles, same.load_cycles + same.compute_cycles);
  // Distinct handles: op 2's activation load hides behind op 1's compute.
  EXPECT_LT(distinct.pipelined_cycles, distinct.load_cycles + distinct.compute_cycles);
}

TEST(Residency, GuardsMisuse) {
  const unsigned bits = 8;
  const std::size_t n = 64;
  const auto a = random_vec(n, bits, 51);
  const auto b = random_vec(n, bits, 52);

  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem);
  const ResidentOperand h = eng.pin(a, bits, OperandLayout::MultUnit);

  // Span and handle on one side at once.
  VecOp both = span_op(OpKind::Mult, bits, a, b);
  both.ra = h;
  EXPECT_THROW((void)eng.run(both), std::invalid_argument);

  // Layout mismatch: a MultUnit pin cannot feed an ADD.
  VecOp wrong_kind = span_op(OpKind::Add, bits, {}, b);
  wrong_kind.ra = h;
  EXPECT_THROW((void)eng.run(wrong_kind), std::invalid_argument);

  // Precision mismatch.
  VecOp wrong_bits = span_op(OpKind::Mult, 4, {}, random_vec(n, 4, 53));
  wrong_bits.ra = h;
  EXPECT_THROW((void)eng.run(wrong_bits), std::invalid_argument);

  // Same handle on both sides of one op.
  VecOp squared = span_op(OpKind::Mult, bits, {}, {});
  squared.ra = h;
  squared.rb = h;
  EXPECT_THROW((void)eng.run(squared), std::invalid_argument);

  // Another engine's handle is unknown here.
  macro::ImcMemory other_mem(tiny_memory());
  ExecutionEngine other(other_mem);
  VecOp foreign = span_op(OpKind::Mult, bits, {}, b);
  foreign.ra = h;
  EXPECT_THROW((void)other.run(foreign), std::invalid_argument);

  // Use after unpin.
  EXPECT_TRUE(eng.unpin(h));
  EXPECT_FALSE(eng.unpin(h));
  VecOp stale = span_op(OpKind::Mult, bits, {}, b);
  stale.ra = h;
  EXPECT_THROW((void)eng.run(stale), std::invalid_argument);

  // Pin larger than the array.
  const std::size_t capacity = eng.row_pair_capacity();
  const std::size_t per_layer = eng.mult_units_per_row(bits) * mem.macro_count();
  const auto huge = random_vec((capacity + 1) * per_layer, bits, 54);
  EXPECT_THROW((void)eng.pin(huge, bits, OperandLayout::MultUnit), std::invalid_argument);

  // Two handles that fit individually but not together: a clean validation
  // error at run (and at submit on the serve route), not an allocator trap.
  const auto big1 = random_vec((capacity / 2 + 1) * per_layer, bits, 55);
  const auto big2 = random_vec((capacity / 2 + 1) * per_layer, bits, 56);
  VecOp pair = span_op(OpKind::Mult, bits, {}, {});
  pair.ra = eng.pin(big1, bits, OperandLayout::MultUnit);
  pair.rb = eng.pin(big2, bits, OperandLayout::MultUnit);
  EXPECT_THROW((void)eng.run(pair), std::invalid_argument);
  {
    macro::ImcMemory served_mem(tiny_memory());
    ExecutionEngine served_eng(served_mem);
    serve::Server server(served_eng);
    VecOp spair = span_op(OpKind::Mult, bits, {}, {});
    spair.ra = server.pin(big1, bits, OperandLayout::MultUnit);
    spair.rb = server.pin(big2, bits, OperandLayout::MultUnit);
    EXPECT_THROW((void)server.submit(spair), std::invalid_argument);
    server.stop();
  }
}

TEST(Residency, ServerRoutesHandleOpsToHomeMemory) {
  // Pin through a 3-memory pool server: requests referencing the handle
  // must execute on the memory that holds it (observable through the
  // per-memory lanes) and match the scalar reference every time.
  const unsigned bits = 8;
  serve::MemoryPoolConfig pcfg;
  pcfg.memories = 3;
  pcfg.memory = tiny_memory();
  pcfg.threads_per_memory = 1;
  serve::MemoryPool pool(pcfg);
  serve::Server server(pool);

  const std::size_t n = 128;
  const auto w = random_vec(n, bits, 61);
  const ResidentOperand h = server.pin(w, bits, OperandLayout::MultUnit);
  const auto home = server.memory_of(h.id);
  ASSERT_TRUE(home.has_value());

  for (std::size_t i = 0; i < 8; ++i) {
    const auto x = random_vec(n, bits, 70 + i);
    VecOp op = span_op(OpKind::Mult, bits, {}, x);
    op.ra = h;
    const OpResult res = server.submit(op).get();
    for (std::size_t k = 0; k < n; ++k) ASSERT_EQ(res.values[k], w[k] * x[k]);
  }
  server.stop();

  const serve::ServeStats s = server.stats();
  EXPECT_GT(s.modeled_load_cycles_saved, 0u);
  for (std::size_t m = 0; m < pool.size(); ++m) {
    if (m == *home) {
      EXPECT_EQ(s.per_memory[m].ops, 8u);
    } else {
      EXPECT_EQ(s.per_memory[m].ops, 0u);
    }
  }
  EXPECT_TRUE(server.unpin(h));
}

TEST(Residency, ServerRejectsForeignAndConflictingHandles) {
  const unsigned bits = 8;
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem);
  serve::Server server(eng);

  const std::size_t n = 64;
  const auto w = random_vec(n, bits, 81);
  // Pinned directly on the engine, not through the server: no home.
  const ResidentOperand foreign = eng.pin(w, bits, OperandLayout::MultUnit);
  const auto x = random_vec(n, bits, 82);
  VecOp op = span_op(OpKind::Mult, bits, {}, x);
  op.ra = foreign;
  EXPECT_THROW((void)server.submit(op), std::invalid_argument);
  server.stop();
}

/// The sort-based allocator the occupancy map replaced, kept as the
/// differential oracle: find_gap collects the materialized intervals, sorts
/// them descending and takes the highest gap that fits; evict_lru scans
/// every entry for the oldest eligible one. The only addition is the
/// `floor` bound on find_gap. The oracle mirrors the manager's LRU clock
/// (pin, touch and each placement tick it once), so last_use compares too.
class SortedAllocatorOracle {
 public:
  explicit SortedAllocatorOracle(std::size_t capacity) : capacity_(capacity) {}

  struct Slot {
    std::size_t layers = 0;
    bool materialized = false;
    std::size_t base_pair = 0;
    std::uint64_t last_use = 0;
  };

  void pin(std::uint64_t id, std::size_t layers) { slots_[id] = Slot{layers, false, 0, ++tick_}; }
  void unpin(std::uint64_t id) { slots_.erase(id); }
  void touch(std::uint64_t id) { slots_.at(id).last_use = ++tick_; }

  void reserve_transient(std::size_t transient_layers) {
    while (evict_lru([&](const Slot& s) { return s.base_pair < transient_layers; })) {
    }
  }

  /// False where the manager throws "no gap and no victim".
  bool ensure_rows(std::uint64_t id, std::size_t floor, std::optional<std::uint64_t> keep) {
    Slot& e = slots_.at(id);
    if (e.materialized) return true;
    for (;;) {
      const std::size_t base = find_gap(e.layers, floor);
      if (base < capacity_) {
        e.base_pair = base;
        e.materialized = true;
        e.last_use = ++tick_;
        ++materializations_;
        return true;
      }
      if (!evict_lru([&](const Slot& s) { return &s != &e && (!keep || &s != &slots_.at(*keep)); }))
        return false;
    }
  }

  /// The block reference, one victim at a time: touch every member in
  /// order; false when the group cannot fit above the floor; else clear the
  /// floor, evict the LRU non-member until find_gap(need, floor) fits the
  /// members without rows, and place them consecutively from the top of
  /// that gap in group order. When the non-members run out first, clear the
  /// array and place the whole group.
  bool ensure_block(const std::vector<std::uint64_t>& group, std::size_t floor,
                    std::vector<std::uint8_t>& loaded) {
    std::size_t layers = 0;
    for (const std::uint64_t id : group) {
      touch(id);
      layers += slots_.at(id).layers;
    }
    if (floor + layers > capacity_) return false;
    reserve_transient(floor);
    std::set<const Slot*> members;
    for (const std::uint64_t id : group) members.insert(&slots_.at(id));
    const auto missing = [&] {
      std::size_t n = 0;
      for (const Slot* m : members) n += m->materialized ? 0 : m->layers;
      return n;
    };
    std::size_t need = missing();
    if (need == 0) return true;
    std::size_t base = find_gap(need, floor);
    while (base == capacity_) {
      if (!evict_lru([&](const Slot& s) { return members.count(&s) == 0; })) {
        reserve_transient(capacity_);
        need = missing();
        base = find_gap(need, floor);
        break;
      }
      base = find_gap(need, floor);
    }
    std::size_t top = base + need;
    for (std::size_t j = 0; j < group.size(); ++j) {
      Slot& e = slots_.at(group[j]);
      if (e.materialized) continue;
      top -= e.layers;
      e.base_pair = top;
      e.materialized = true;
      e.last_use = ++tick_;
      ++materializations_;
      loaded[j] = 1;
    }
    return true;
  }

  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> intervals() const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (const auto& [id, s] : slots_)
      if (s.materialized) out.emplace_back(s.base_pair, s.layers);
    std::sort(out.begin(), out.end());
    return out;
  }

  std::map<std::uint64_t, Slot> slots_;
  std::uint64_t materializations_ = 0;
  std::uint64_t evictions_ = 0;

 private:
  [[nodiscard]] std::size_t find_gap(std::size_t layers, std::size_t floor) const {
    std::vector<std::pair<std::size_t, std::size_t>> used;  // (base, layers)
    for (const auto& [id, s] : slots_)
      if (s.materialized) used.emplace_back(s.base_pair, s.layers);
    std::sort(used.begin(), used.end(), std::greater<>());
    std::size_t ceiling = capacity_;
    for (const auto& [base, len] : used) {
      if (ceiling >= base + len && ceiling - (base + len) >= layers)
        return ceiling - layers >= floor ? ceiling - layers : capacity_;
      ceiling = std::min(ceiling, base);
    }
    return ceiling >= layers + floor ? ceiling - layers : capacity_;
  }

  template <class Pred>
  bool evict_lru(Pred&& victim_ok) {
    Slot* victim = nullptr;
    for (auto& [id, s] : slots_) {
      if (!s.materialized || !victim_ok(s)) continue;
      if (victim == nullptr || s.last_use < victim->last_use) victim = &s;
    }
    if (victim == nullptr) return false;
    victim->materialized = false;
    ++evictions_;
    return true;
  }

  std::size_t capacity_;
  std::uint64_t tick_ = 0;
};

/// Seeded random pin / unpin / touch / reserve_transient / ensure_rows
/// sequences -- and, with `blocks`, ensure_block on groups of live handles
/// (mixed layer counts, partly resident, now and then one handle twice) --
/// against the oracle: placements, victims, LRU ticks and counters must
/// match exactly after every step, no handle may land below its floor, and
/// resident_layers() must always equal the sum over materialized handles.
void allocator_matches_oracle(bool blocks) {
  for (const std::size_t capacity : {7u, 16u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      bpim::Rng rng(seed * 7919 + capacity);
      ResidencyManager mgr(capacity);
      SortedAllocatorOracle oracle(capacity);
      std::map<std::uint64_t, ResidencyManager::Entry*> live;
      const std::vector<std::uint64_t> one_value = {1};
      const auto pick = [&]() {
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform_u64(live.size())));
        return it->first;
      };
      std::size_t floor_placements = 0;
      for (int step = 0; step < 400; ++step) {
        const std::string what = "cap " + std::to_string(capacity) + " seed " +
                                 std::to_string(seed) + " step " + std::to_string(step);
        const std::uint64_t action = live.size() < 3 ? 0 : rng.uniform_u64(blocks ? 10 : 8);
        if (action == 0 || (action == 1 && live.size() < 12)) {
          const std::size_t layers = 1 + rng.uniform_u64(std::min<std::size_t>(capacity, 4));
          const ResidentOperand h = mgr.pin(one_value, 8, OperandLayout::MultUnit, layers);
          oracle.pin(h.id, layers);
          live[h.id] = mgr.touch(h.id);
          oracle.touch(h.id);
        } else if (action == 1) {
          const std::uint64_t id = pick();
          EXPECT_TRUE(mgr.unpin(id)) << what;
          oracle.unpin(id);
          live.erase(id);
        } else if (action == 2) {
          const std::uint64_t id = pick();
          ASSERT_EQ(mgr.touch(id), live.at(id)) << what;
          oracle.touch(id);
        } else if (action == 3) {
          const std::size_t t = rng.uniform_u64(capacity / 2 + 1);
          mgr.reserve_transient(t);
          oracle.reserve_transient(t);
        } else if (action >= 8) {
          // A fused forward's block: the group is resolved, the floor
          // reserved and the missing members placed in one call.
          const std::size_t size = 1 + rng.uniform_u64(std::min<std::size_t>(live.size(), 6));
          std::vector<std::uint64_t> ids;
          std::vector<ResidentOperand> group;
          for (std::size_t k = 0; k < size; ++k) {
            ids.push_back(pick());
            group.push_back(ResidentOperand{.id = ids.back()});
          }
          const std::size_t floor = rng.uniform_u64(capacity / 3 + 1);
          std::vector<ResidencyManager::Entry*> entries(size, nullptr);
          std::vector<std::uint8_t> loaded(size, 0), want_loaded(size, 0);
          const bool placed = mgr.ensure_block(group, floor, entries, loaded);
          ASSERT_EQ(placed, oracle.ensure_block(ids, floor, want_loaded)) << what;
          EXPECT_EQ(loaded, want_loaded) << what;
          for (std::size_t k = 0; k < size; ++k) {
            ASSERT_EQ(entries[k], live.at(ids[k])) << what;
            if (!placed) continue;
            EXPECT_TRUE(entries[k]->materialized) << what;
            EXPECT_GE(entries[k]->base_pair, floor) << what;
          }
          if (placed) ++floor_placements;
        } else {
          // The engine's order: resolve (touch), reserve the floor, place.
          const std::uint64_t id = pick();
          ResidencyManager::Entry* e = mgr.touch(id);
          oracle.touch(id);
          std::size_t floor = 0;
          if (rng.uniform_u64(2) == 0 && capacity > e->handle.layers) {
            floor = 1 + rng.uniform_u64(std::min(capacity - e->handle.layers, capacity / 3 + 1));
            mgr.reserve_transient(floor);
            oracle.reserve_transient(floor);
          }
          std::optional<std::uint64_t> keep;
          if (rng.uniform_u64(3) == 0) {
            keep = pick();
            if (*keep == id) keep.reset();
          }
          const bool was_resident = e->materialized;
          bool placed = true;
          try {
            (void)mgr.ensure_rows(*e, floor, keep ? live.at(*keep) : nullptr);
          } catch (const std::invalid_argument&) {
            placed = false;
          }
          EXPECT_EQ(placed, oracle.ensure_rows(id, floor, keep)) << what;
          if (placed && !was_resident && floor > 0) {
            EXPECT_GE(e->base_pair, floor) << what;
            ++floor_placements;
          }
        }

        // Whole-state comparison after every step.
        std::size_t resident = 0;
        for (const auto& [id, e] : live) {
          const SortedAllocatorOracle::Slot& s = oracle.slots_.at(id);
          ASSERT_EQ(e->materialized, s.materialized) << what << " handle " << id;
          if (e->materialized) {
            EXPECT_EQ(e->base_pair, s.base_pair) << what << " handle " << id;
            resident += e->handle.layers;
          }
          EXPECT_EQ(e->last_use, s.last_use) << what << " handle " << id;
        }
        ASSERT_EQ(mgr.resident_layers(), resident) << what;
        const ResidencyStats rs = mgr.stats();
        EXPECT_EQ(rs.resident_layers, resident) << what;
        EXPECT_EQ(rs.pinned, live.size()) << what;
        EXPECT_EQ(rs.materializations, oracle.materializations_) << what;
        EXPECT_EQ(rs.evictions, oracle.evictions_) << what;
        EXPECT_EQ(mgr.materialized_intervals(), oracle.intervals()) << what;
      }
      EXPECT_GT(floor_placements, 0u) << "cap " << capacity << " seed " << seed;
    }
  }
}

TEST(Residency, OccupancyMapMatchesSortedAllocator) { allocator_matches_oracle(false); }

TEST(Residency, BlockPlacementMatchesOneVictimAtATime) { allocator_matches_oracle(true); }

}  // namespace
}  // namespace bpim::engine
