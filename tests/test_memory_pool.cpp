// serve::MemoryPool: multi-memory scale-out behind serve::Server. Placement
// must follow the server's ledger (least-loaded, ties to the lowest index),
// oversized dispatch groups must split across memories, per-memory stats
// must reconcile, and -- the contract everything rests on -- every served
// result must be bit-identical to running the op alone through a serial
// engine on one memory. The stress test here joins test_serve in the TSan
// CI job.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "engine/execution_engine.hpp"
#include "serve/memory_pool.hpp"
#include "serve/server.hpp"

namespace bpim::serve {
namespace {

using engine::EngineConfig;
using engine::ExecutionEngine;
using engine::OpKind;
using engine::OpResult;
using engine::VecOp;

/// One NUMA node's shape: 2 macros, 64 row pairs each.
macro::MemoryConfig node_memory() {
  macro::MemoryConfig cfg;
  cfg.banks = 1;
  cfg.macros_per_bank = 2;
  return cfg;
}

MemoryPoolConfig pool_config(std::size_t memories) {
  MemoryPoolConfig cfg;
  cfg.memories = memories;
  cfg.memory = node_memory();
  cfg.threads_per_memory = 1;
  return cfg;
}

std::vector<std::uint64_t> random_vec(std::size_t n, unsigned bits, std::uint64_t seed) {
  bpim::Rng rng(seed);
  const std::uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_u64() & mask;
  return v;
}

/// The op alone on a fresh single memory through a serial engine: the
/// reference every pooled result must match bit-for-bit.
OpResult run_serial_reference(const VecOp& op) {
  macro::ImcMemory mem(node_memory());
  ExecutionEngine eng(mem, EngineConfig{1});
  return eng.run(op);
}

void expect_identical(const OpResult& want, const OpResult& got, const std::string& what) {
  EXPECT_EQ(want.values, got.values) << what;
  EXPECT_EQ(want.stats.elements, got.stats.elements) << what;
  EXPECT_EQ(want.stats.elapsed_cycles, got.stats.elapsed_cycles) << what;
  EXPECT_EQ(want.stats.energy.si(), got.stats.energy.si()) << what;
  EXPECT_EQ(want.stats.elapsed_time.si(), got.stats.elapsed_time.si()) << what;
}

/// Pooled server kept alive with its pool.
struct Harness {
  explicit Harness(std::size_t memories, ServerConfig cfg = {})
      : pool(pool_config(memories)), server(pool, cfg) {}
  MemoryPool pool;
  Server server;
};

/// A MULT op occupying exactly `layers` row-pair layers on a node.
VecOp mult_op_of_layers(std::size_t layers, std::vector<std::uint64_t>& a,
                        std::vector<std::uint64_t>& b, std::uint64_t seed) {
  macro::ImcMemory mem(node_memory());
  ExecutionEngine probe(mem, EngineConfig{1});
  const std::size_t elements = layers * probe.mult_units_per_row(8) * mem.macro_count();
  a = random_vec(elements, 8, seed);
  b = random_vec(elements, 8, seed + 1);
  return VecOp{OpKind::Mult, 8, periph::LogicFn::And, a, b};
}

TEST(MemoryPool, PoolOfOneMatchesSerialReference) {
  Harness h(1);
  const auto a = random_vec(100, 8, 1);
  const auto b = random_vec(100, 8, 2);
  const VecOp op{OpKind::Mult, 8, periph::LogicFn::And, a, b};
  expect_identical(run_serial_reference(op), h.server.submit(op).get(), "pool of one");

  const ServeStats s = h.server.stats();
  ASSERT_EQ(s.per_memory.size(), 1u);
  EXPECT_EQ(s.per_memory[0].ops, 1u);
  EXPECT_EQ(s.modeled_makespan_cycles, s.modeled_pipelined_cycles);
  EXPECT_DOUBLE_EQ(s.scaleout_speedup(), 1.0);
}

TEST(MemoryPool, LeastLoadedSpreadsStagedGroupsAcrossMemories) {
  // Three incompatible ops -> three dispatch groups, run one after another:
  // each lands on a memory the ones before it left idle.
  Harness h(3);
  h.server.pause();
  const auto a4 = random_vec(16, 4, 3), b4 = random_vec(16, 4, 4);
  const auto a8 = random_vec(16, 8, 5), b8 = random_vec(16, 8, 6);
  const auto a16 = random_vec(16, 16, 7), b16 = random_vec(16, 16, 8);
  std::vector<std::future<OpResult>> futs;
  futs.push_back(h.server.submit(VecOp{OpKind::Mult, 4, periph::LogicFn::And, a4, b4}));
  futs.push_back(h.server.submit(VecOp{OpKind::Mult, 8, periph::LogicFn::And, a8, b8}));
  futs.push_back(h.server.submit(VecOp{OpKind::Mult, 16, periph::LogicFn::And, a16, b16}));
  h.server.resume();
  for (auto& f : futs) (void)f.get();

  const ServeStats s = h.server.stats();
  ASSERT_EQ(s.recent_batches.size(), 3u);
  EXPECT_EQ(s.recent_batches[0].memory, 0u);
  EXPECT_EQ(s.recent_batches[1].memory, 1u);
  EXPECT_EQ(s.recent_batches[2].memory, 2u);
  for (std::size_t m = 0; m < 3; ++m) EXPECT_EQ(s.per_memory[m].batches, 1u);
}

TEST(MemoryPool, LeastLoadedAvoidsTheBusyMemory) {
  Harness h(2);
  std::vector<std::uint64_t> a, b;
  const VecOp heavy = mult_op_of_layers(32, a, b, 11);
  (void)h.server.submit(heavy).get();  // ties break to memory 0
  const auto sa = random_vec(8, 8, 13), sb = random_vec(8, 8, 14);
  (void)h.server.submit(VecOp{OpKind::Mult, 8, periph::LogicFn::And, sa, sb}).get();

  const ServeStats s = h.server.stats();
  ASSERT_EQ(s.recent_batches.size(), 2u);
  EXPECT_EQ(s.recent_batches[0].memory, 0u);
  EXPECT_EQ(s.recent_batches[1].memory, 1u) << "second batch must dodge the loaded memory";
}

TEST(MemoryPool, PlacementFollowsTheLedger) {
  MemoryPool pool(pool_config(3));
  {
    Server server(pool);
    // A heavy op first (every lane empty: memory 0), then random unhomed ops
    // one at a time: each must land on the lane with the fewest modeled
    // pipelined cycles as stats() read them before its submit, ties to the
    // lowest index.
    std::vector<std::uint64_t> ha, hb;
    std::vector<VecOp> ops{mult_op_of_layers(64, ha, hb, 60)};
    std::vector<std::vector<std::uint64_t>> storage;
    bpim::Rng rng(0x1ED6E2);
    for (int i = 0; i < 24; ++i) {
      const unsigned bits = std::array<unsigned, 3>{4, 8, 16}[rng.next_u64() % 3];
      const OpKind kind = std::array<OpKind, 4>{OpKind::Add, OpKind::Sub, OpKind::Mult,
                                                OpKind::Logic}[rng.next_u64() % 4];
      const std::size_t n = 1 + rng.next_u64() % 64;
      storage.push_back(random_vec(n, bits, rng.next_u64()));
      storage.push_back(random_vec(n, bits, rng.next_u64()));
      ops.push_back(VecOp{kind, bits, periph::LogicFn::Or, storage[storage.size() - 2],
                          storage.back()});
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::vector<MemoryLaneStats> lanes = server.stats().per_memory;
      std::size_t want = 0;
      for (std::size_t m = 1; m < lanes.size(); ++m)
        if (lanes[m].modeled_pipelined_cycles < lanes[want].modeled_pipelined_cycles) want = m;
      expect_identical(run_serial_reference(ops[i]), server.submit(ops[i]).get(),
                       "op " + std::to_string(i));
      EXPECT_EQ(server.stats().recent_batches.back().memory, want) << "op " << i;
    }
    const ServeStats s = server.stats();
    ASSERT_GT(s.per_memory[0].modeled_pipelined_cycles, s.per_memory[1].modeled_pipelined_cycles);
    ASSERT_GT(s.per_memory[0].modeled_pipelined_cycles, s.per_memory[2].modeled_pipelined_cycles);
  }
  // Placement history belongs to the server, not the pool: a second server
  // starts from empty lanes, so its first batch goes to memory 0 even though
  // the first server left memory 0 the busiest.
  Server second(pool);
  const auto a = random_vec(16, 8, 61), b = random_vec(16, 8, 62);
  (void)second.submit(VecOp{OpKind::Add, 8, periph::LogicFn::And, a, b}).get();
  const ServeStats s = second.stats();
  ASSERT_EQ(s.recent_batches.size(), 1u);
  EXPECT_EQ(s.recent_batches[0].memory, 0u);
}

TEST(MemoryPool, OversizedGroupSplitsAcrossMemories) {
  // Four 24-layer ops coalesce into one 96-layer group: over one array's
  // 64-pair budget, within the pool's 128. The scheduler must split it into
  // two concurrent sub-batches on distinct memories -- and the results must
  // still match the serial reference exactly.
  Harness h(2);
  h.server.pause();
  std::vector<std::vector<std::uint64_t>> storage(8);
  std::vector<VecOp> ops;
  std::vector<std::future<OpResult>> futs;
  for (std::size_t i = 0; i < 4; ++i)
    ops.push_back(mult_op_of_layers(24, storage[2 * i], storage[2 * i + 1], 100 + 2 * i));
  for (const VecOp& op : ops) futs.push_back(h.server.submit(op));
  h.server.resume();
  for (std::size_t i = 0; i < futs.size(); ++i)
    expect_identical(run_serial_reference(ops[i]), futs[i].get(),
                     "split op " + std::to_string(i));

  const ServeStats s = h.server.stats();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.batches, 2u) << "96 layers must split into two sub-batches";
  ASSERT_EQ(s.recent_batches.size(), 2u);
  EXPECT_EQ(s.recent_batches[0].ops, 2u);
  EXPECT_EQ(s.recent_batches[0].layers, 48u);
  EXPECT_NE(s.recent_batches[0].memory, s.recent_batches[1].memory)
      << "a split group must spread across memories";
  // Both lanes did half the work, so the pool halves the modeled makespan.
  EXPECT_EQ(s.modeled_makespan_cycles,
            std::max(s.per_memory[0].modeled_pipelined_cycles,
                     s.per_memory[1].modeled_pipelined_cycles));
  EXPECT_GT(s.scaleout_speedup(), 1.5);
}

TEST(MemoryPool, NonOwningPoolOverCallerEngines) {
  macro::ImcMemory mem_a(node_memory()), mem_b(node_memory());
  ExecutionEngine eng_a(mem_a, EngineConfig{1}), eng_b(mem_b, EngineConfig{1});
  MemoryPool pool({&eng_a, &eng_b});
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(&pool.engine(0), &eng_a);
  EXPECT_EQ(&pool.engine(1), &eng_b);

  Server server(pool, ServerConfig{});
  const auto a = random_vec(50, 8, 15);
  const auto b = random_vec(50, 8, 16);
  const VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, b};
  expect_identical(run_serial_reference(op), server.submit(op).get(), "non-owning pool");
}

TEST(MemoryPool, RejectsHeterogeneousEngines) {
  macro::ImcMemory small(node_memory());
  ExecutionEngine eng_small(small, EngineConfig{1});

  macro::MemoryConfig more_macros = node_memory();
  more_macros.macros_per_bank = 4;
  macro::ImcMemory big(more_macros);
  ExecutionEngine eng_big(big, EngineConfig{1});
  EXPECT_THROW(MemoryPool({&eng_small, &eng_big}), std::invalid_argument);

  // Same macro count and rows but different columns: an op would map to a
  // different layer count depending on placement, so the pool must refuse.
  macro::MemoryConfig wider = node_memory();
  wider.macro.geometry.cols *= 2;
  macro::ImcMemory wide(wider);
  ExecutionEngine eng_wide(wide, EngineConfig{1});
  EXPECT_THROW(MemoryPool({&eng_small, &eng_wide}), std::invalid_argument);

  // Same shape but a different flip-flop energy: the same op would report a
  // different RunStats::energy depending on placement.
  macro::MemoryConfig pricier = node_memory();
  pricier.macro.energy_params.ff_fj = 3.0;
  macro::ImcMemory costly(pricier);
  ExecutionEngine eng_costly(costly, EngineConfig{1});
  EXPECT_THROW(MemoryPool({&eng_small, &eng_costly}), std::invalid_argument);
}

TEST(MemoryPool, RefusesDisturbInjectionOnlyWhenPlacementCanVary) {
  // With injection on, per-node RNG streams make results depend on
  // placement; a multi-memory pool must refuse at construction instead of
  // silently breaking the bit-identity guarantee.
  MemoryPoolConfig cfg = pool_config(2);
  cfg.memory.macro.inject_disturb = true;
  EXPECT_THROW(MemoryPool pool(cfg), std::invalid_argument);

  // A pool of one has no placement choice: a single disturb-injected
  // memory stays servable, as it was before the pool existed.
  macro::MemoryConfig mcfg = node_memory();
  mcfg.macro.inject_disturb = true;
  macro::ImcMemory mem(mcfg);
  ExecutionEngine eng(mem, EngineConfig{1});
  Server server(eng);
  const auto a = random_vec(16, 8, 50);
  const auto b = random_vec(16, 8, 51);
  const auto res =
      server.submit(VecOp{OpKind::Add, 8, periph::LogicFn::And, a, b}).get();
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(res.values[i], (a[i] + b[i]) & 0xFF);
}

TEST(MemoryPool, DecorrelatedNodeSeedsDoNotChangeResults) {
  // Each node gets its own disturb-RNG seed offset; with injection off
  // (enforced at construction) placement on any node is bit-identical to
  // the reference memory.
  Harness h(4);
  const auto a = random_vec(64, 16, 17);
  const auto b = random_vec(64, 16, 18);
  const VecOp op{OpKind::Sub, 16, periph::LogicFn::And, a, b};
  const OpResult want = run_serial_reference(op);
  for (int i = 0; i < 4; ++i)  // each repeat dodges the nodes already busy
    expect_identical(want, h.server.submit(op).get(), "repeat " + std::to_string(i));
  const ServeStats s = h.server.stats();
  for (std::size_t m = 0; m < 4; ++m)
    EXPECT_GE(s.per_memory[m].ops, 1u) << "node " << m << " served nothing";
}

TEST(MemoryPool, StressMultiClientBitIdenticalWithDeadlines) {
  Harness h(3, ServerConfig{/*queue_capacity=*/64, /*max_batch_ops=*/8,
                            /*coalesce_window=*/std::chrono::microseconds(50)});
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kOpsPerClient = 12;

  struct ClientLog {
    std::vector<VecOp> ops;
    std::vector<std::vector<std::uint64_t>> a, b;
    std::vector<OpResult> results;  ///< one per op; empty values when expired
    std::vector<bool> expired;
  };
  std::vector<ClientLog> logs(kClients);

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      bpim::Rng rng(0xD00D + c);
      ClientLog& log = logs[c];
      for (std::size_t i = 0; i < kOpsPerClient; ++i) {
        const unsigned bits = std::array<unsigned, 3>{4, 8, 16}[rng.next_u64() % 3];
        const OpKind kind =
            std::array<OpKind, 4>{OpKind::Add, OpKind::Sub, OpKind::Mult,
                                  OpKind::Logic}[rng.next_u64() % 4];
        const std::size_t n = 1 + rng.next_u64() % 300;
        log.a.push_back(random_vec(n, bits, rng.next_u64()));
        log.b.push_back(random_vec(n, bits, rng.next_u64()));
        VecOp op{kind, bits, periph::LogicFn::Xor, log.a.back(), log.b.back()};
        log.ops.push_back(op);
        SubmitOptions opts;
        opts.priority = static_cast<int>(rng.next_u64() % 3);
        if (rng.next_u64() % 4 == 0)  // every 4th op races a tight deadline
          opts.deadline = Clock::now() + std::chrono::microseconds(rng.next_u64() % 2000);
        try {
          log.results.push_back(h.server.submit(op, opts).get());
          log.expired.push_back(false);
        } catch (const DeadlineExceeded&) {
          log.results.emplace_back();
          log.expired.push_back(true);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Replay every completed op alone through a serial engine on a fresh
  // single memory: whatever memory served it, whatever it coalesced with.
  std::size_t completed = 0, expired = 0;
  for (std::size_t c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < logs[c].ops.size(); ++i) {
      if (logs[c].expired[i]) {
        ++expired;
        continue;
      }
      ++completed;
      expect_identical(run_serial_reference(logs[c].ops[i]), logs[c].results[i],
                       "client " + std::to_string(c) + " op " + std::to_string(i));
    }

  const ServeStats s = h.server.stats();
  EXPECT_EQ(s.submitted, kClients * kOpsPerClient);
  EXPECT_EQ(s.completed, completed);
  EXPECT_EQ(s.expired, expired);
  EXPECT_EQ(s.completed + s.expired, s.submitted);

  // The per-memory lanes must reconcile with the aggregates exactly.
  ASSERT_EQ(s.per_memory.size(), 3u);
  std::uint64_t lane_ops = 0, lane_batches = 0, lane_cycles = 0, max_lane = 0;
  for (const MemoryLaneStats& lane : s.per_memory) {
    lane_ops += lane.ops;
    lane_batches += lane.batches;
    lane_cycles += lane.modeled_pipelined_cycles;
    max_lane = std::max(max_lane, lane.modeled_pipelined_cycles);
  }
  EXPECT_EQ(lane_ops, s.completed);
  EXPECT_EQ(lane_batches, s.batches);
  EXPECT_EQ(lane_cycles, s.modeled_pipelined_cycles);
  EXPECT_EQ(max_lane, s.modeled_makespan_cycles);
}

}  // namespace
}  // namespace bpim::serve
