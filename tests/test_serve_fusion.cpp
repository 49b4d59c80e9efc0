// serve::Server's fusion route: submit_forward through the admission
// queue -- single- and multi-memory -- must be bit-identical to the direct
// engine, account the fused discount in ServeStats, and survive concurrent
// clients (the fused serving stress the TSan CI job runs). A forward
// submitted to an idle server runs on the submitting thread; everywhere
// else it queues, with the same ordering, deadline and stop semantics.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
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
using engine::OperandLayout;
using engine::OpKind;
using engine::OpResult;
using engine::ResidentOperand;
using engine::VecOp;

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

TEST(ServeFusion, SubmitForwardBitIdenticalToDirectEngine) {
  macro::ImcMemory direct_mem(tiny_memory());
  ExecutionEngine direct(direct_mem, EngineConfig{1});

  macro::ImcMemory served_mem(tiny_memory());
  ExecutionEngine served_eng(served_mem, EngineConfig{1});
  Server server(served_eng);

  const unsigned bits = 8;
  const std::size_t n = 48;
  std::vector<std::vector<std::uint64_t>> w;
  std::vector<ResidentOperand> direct_handles, served_handles;
  for (std::size_t j = 0; j < 4; ++j) {
    w.push_back(random_vec(n, bits, 10 + j));
    direct_handles.push_back(direct.pin(w.back(), bits, OperandLayout::MultUnit));
    served_handles.push_back(server.pin(w.back(), bits, OperandLayout::MultUnit));
  }
  for (std::size_t call = 0; call < 3; ++call) {
    const auto x = random_vec(n, bits, 50 + call);
    const auto want = direct.run_forward(direct_handles, x);
    const auto got = server.submit_forward(served_handles, x).get();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(want[j].values, got[j].values) << "call " << call << " op " << j;
      EXPECT_EQ(want[j].stats.elapsed_cycles, got[j].stats.elapsed_cycles);
      EXPECT_EQ(want[j].stats.fused_cycles_saved, got[j].stats.fused_cycles_saved);
    }
  }
  server.stop();
  const ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 3u);
  EXPECT_GT(s.modeled_fused_cycles_saved, 0u);
}

TEST(ServeFusion, SubmitForwardThroughMemoryPoolColocatesAndMatches) {
  macro::ImcMemory direct_mem(tiny_memory());
  ExecutionEngine direct(direct_mem, EngineConfig{1});

  MemoryPoolConfig pcfg;
  pcfg.memory = tiny_memory();
  pcfg.memories = 2;
  pcfg.threads_per_memory = 1;
  MemoryPool pool(pcfg);
  Server server(pool);

  const unsigned bits = 4;
  const std::size_t n = 64;
  std::vector<std::vector<std::uint64_t>> w;
  std::vector<ResidentOperand> direct_handles, served_handles;
  for (std::size_t j = 0; j < 3; ++j) {
    w.push_back(random_vec(n, bits, 20 + j));
    direct_handles.push_back(direct.pin(w.back(), bits, OperandLayout::MultUnit));
    // One colocate key: every weight must land on the same pool memory.
    served_handles.push_back(server.pin(w.back(), bits, OperandLayout::MultUnit, 7));
  }
  const auto x = random_vec(n, bits, 90);
  const auto want = direct.run_forward(direct_handles, x);
  const auto got = server.submit_forward(served_handles, x).get();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) EXPECT_EQ(want[j].values, got[j].values);
  server.stop();
  EXPECT_GT(server.stats().modeled_fused_cycles_saved, 0u);
}

TEST(ServeFusion, SplitHomesAreRejectedWithColocateHint) {
  MemoryPoolConfig pcfg;
  pcfg.memory = tiny_memory();
  pcfg.memories = 2;
  pcfg.threads_per_memory = 1;
  MemoryPool pool(pcfg);
  Server server(pool);

  const auto w0 = random_vec(32, 8, 1);
  const auto w1 = random_vec(32, 8, 2);
  // Explicit keys onto different memories.
  const std::vector<ResidentOperand> handles{
      server.pin(w0, 8, OperandLayout::MultUnit, 0),
      server.pin(w1, 8, OperandLayout::MultUnit, 1)};
  const auto x = random_vec(32, 8, 3);
  try {
    (void)server.submit_forward(handles, x);
    FAIL() << "expected split-home weights to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("colocate_key"), std::string::npos) << e.what();
  }
  server.stop();
}

TEST(ServeFusion, FusedFailureSettlesLikeABatch) {
  // A forward whose weight was unpinned after admission throws inside the
  // engine: the one settle path fails the forward's future and counts it,
  // and a plain MULT queued behind it still completes.
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{1});
  Server server(eng);
  const auto w = random_vec(32, 8, 60);
  const auto x = random_vec(32, 8, 61);
  const std::vector<ResidentOperand> handles{server.pin(w, 8, OperandLayout::MultUnit)};
  const auto a = random_vec(16, 4, 62);
  const auto b = random_vec(16, 4, 63);
  VecOp op;
  op.kind = OpKind::Mult;
  op.bits = 4;
  op.a = a;
  op.b = b;
  server.pause();
  auto fwd = server.submit_forward(handles, x);
  auto fut = server.submit(op);
  ASSERT_TRUE(server.unpin(handles[0]));
  server.resume();
  EXPECT_THROW((void)fwd.get(), std::invalid_argument);
  const OpResult r = fut.get();
  ASSERT_EQ(r.values.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(r.values[i], a[i] * b[i]) << i;
  server.stop();
  const ServeStats s = server.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.submitted, s.completed + s.expired + s.failed);
}

TEST(ServeFusion, ConcurrentFusedAndPlainClientsStayBitIdentical) {
  // The fused serving stress: forward and plain-op clients hammer
  // one server concurrently; every result must match a serial reference.
  macro::ImcMemory served_mem(tiny_memory());
  ExecutionEngine served_eng(served_mem, EngineConfig{2});
  Server server(served_eng);

  const unsigned bits = 8;
  const std::size_t n = 32;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kCallsPerClient = 8;

  // Per-client pinned layer (colocated per client) plus a serial twin.
  std::vector<std::vector<std::vector<std::uint64_t>>> w(kClients);
  std::vector<std::vector<ResidentOperand>> handles(kClients);
  for (std::size_t cl = 0; cl < kClients; ++cl) {
    for (std::size_t j = 0; j < 3; ++j) {
      w[cl].push_back(random_vec(n, bits, 1000 + 10 * cl + j));
      handles[cl].push_back(
          server.pin(w[cl].back(), bits, OperandLayout::MultUnit, cl));
    }
  }

  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (std::size_t cl = 0; cl < kClients; ++cl) {
    clients.emplace_back([&, cl] {
      for (std::size_t call = 0; call < kCallsPerClient; ++call) {
        const auto x = random_vec(n, bits, 2000 + 100 * cl + call);
        if (call % 2 == 0) {
          const auto got = server.submit_forward(handles[cl], x).get();
          for (std::size_t j = 0; j < got.size(); ++j)
            for (std::size_t i = 0; i < n; ++i)
              if (got[j].values[i] != w[cl][j][i] * x[i]) {
                failures[cl] = "forward mismatch";
                return;
              }
        } else {
          const auto y = random_vec(n, bits, 3000 + 100 * cl + call);
          VecOp op;
          op.kind = OpKind::Mult;
          op.bits = bits;
          op.a = x;
          op.b = y;
          const OpResult got = server.submit(op).get();
          for (std::size_t i = 0; i < n; ++i)
            if (got.values[i] != x[i] * y[i]) {
              failures[cl] = "plain op mismatch";
              return;
            }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t cl = 0; cl < kClients; ++cl) EXPECT_EQ(failures[cl], "") << "client " << cl;
  server.stop();
  const ServeStats s = server.stats();
  EXPECT_EQ(s.completed, kClients * kCallsPerClient);
  EXPECT_GT(s.modeled_fused_cycles_saved, 0u);
}

void expect_same_run(const OpResult& want, const OpResult& got, std::size_t j) {
  EXPECT_EQ(want.values, got.values) << "op " << j;
  EXPECT_EQ(want.stats.elements, got.stats.elements) << "op " << j;
  EXPECT_EQ(want.stats.instructions, got.stats.instructions) << "op " << j;
  EXPECT_EQ(want.stats.elapsed_cycles, got.stats.elapsed_cycles) << "op " << j;
  EXPECT_EQ(want.stats.energy.si(), got.stats.energy.si()) << "op " << j;
  EXPECT_EQ(want.stats.elapsed_time.si(), got.stats.elapsed_time.si()) << "op " << j;
  EXPECT_EQ(want.stats.load_cycles, got.stats.load_cycles) << "op " << j;
  EXPECT_EQ(want.stats.load_cycles_saved, got.stats.load_cycles_saved) << "op " << j;
  EXPECT_EQ(want.stats.fused_cycles_saved, got.stats.fused_cycles_saved) << "op " << j;
  EXPECT_EQ(want.stats.adaptive_cycles_saved, got.stats.adaptive_cycles_saved) << "op " << j;
}

bool ready(const auto& fut) {
  return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// A single-memory server with `n`-wide `bits`-bit weights pinned, plus a
/// serial single-memory engine holding the same weights.
struct ForwardRig {
  ForwardRig(unsigned bits, std::size_t n, std::size_t weights, ServerConfig cfg = {})
      : direct_mem(tiny_memory()),
        direct(direct_mem, EngineConfig{1}),
        served_mem(tiny_memory()),
        served_eng(served_mem, EngineConfig{1}),
        server(served_eng, cfg) {
    for (std::size_t j = 0; j < weights; ++j) {
      const auto w = random_vec(n, bits, 700 + 10 * bits + j);
      direct_handles.push_back(direct.pin(w, bits, OperandLayout::MultUnit));
      served_handles.push_back(server.pin(w, bits, OperandLayout::MultUnit));
    }
  }
  macro::ImcMemory direct_mem;
  ExecutionEngine direct;
  macro::ImcMemory served_mem;
  ExecutionEngine served_eng;
  Server server;
  std::vector<ResidentOperand> direct_handles, served_handles;
};

TEST(ServeFusion, IdleServerRunsForwardOnTheSubmittingThread) {
  ForwardRig rig(8, 48, 3);
  const auto x = random_vec(48, 8, 71);
  auto fut = rig.server.submit_forward(rig.served_handles, x);
  ASSERT_TRUE(ready(fut)) << "an idle server's forward must be done on return";
  const ServeStats s = rig.server.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.peak_queue_depth, 0u) << "the forward never touched the queue";
  const auto want = rig.direct.run_forward(rig.direct_handles, x);
  const auto got = fut.get();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) expect_same_run(want[j], got[j], j);
}

TEST(ServeFusion, PausedServerQueuesForwardsInPriorityThenAdmissionOrder) {
  // A staged op holds the queue: forwards behind it must queue (not run in
  // place) and dispatch in (priority desc, admission) order on resume().
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{1});
  Server server(eng);
  const std::vector<ResidentOperand> w4{server.pin(random_vec(32, 4, 80), 4,
                                                   OperandLayout::MultUnit)};
  const std::vector<ResidentOperand> w8{server.pin(random_vec(32, 8, 81), 8,
                                                   OperandLayout::MultUnit)};
  const auto x4 = random_vec(32, 4, 82);
  const auto x8 = random_vec(32, 8, 83);
  const auto a = random_vec(16, 8, 84);
  const auto b = random_vec(16, 8, 85);

  server.pause();
  auto op = server.submit(VecOp{OpKind::Add, 8, periph::LogicFn::And, a, b},
                          SubmitOptions{/*priority=*/0, {}});
  auto urgent = server.submit_forward(w4, x4, SubmitOptions{/*priority=*/5, {}});
  auto later = server.submit_forward(w8, x8, SubmitOptions{/*priority=*/0, {}});
  EXPECT_FALSE(ready(urgent));
  EXPECT_FALSE(ready(later));
  EXPECT_EQ(server.stats().queue_depth, 3u);
  server.resume();
  (void)op.get();
  (void)urgent.get();
  (void)later.get();

  const ServeStats s = server.stats();
  ASSERT_EQ(s.recent_batches.size(), 3u);
  EXPECT_EQ(s.recent_batches[0].kind, OpKind::Mult);  // urgent forward first
  EXPECT_EQ(s.recent_batches[0].bits, 4u);
  EXPECT_EQ(s.recent_batches[1].kind, OpKind::Add);  // then admission order
  EXPECT_EQ(s.recent_batches[2].kind, OpKind::Mult);
  EXPECT_EQ(s.recent_batches[2].bits, 8u);
}

TEST(ServeFusion, CoalesceWindowSendsForwardThroughTheQueue) {
  // The window outlasts the test: the scheduler lingers until stop()
  // closes the queue, so the queued forward is still pending on return.
  ForwardRig rig(8, 32, 2,
                 ServerConfig{/*queue_capacity=*/16, /*max_batch_ops=*/64,
                              /*coalesce_window=*/std::chrono::hours(1)});
  const auto x = random_vec(32, 8, 90);
  auto fut = rig.server.submit_forward(rig.served_handles, x);
  EXPECT_FALSE(ready(fut));
  rig.server.stop();  // closing ends the linger and drains the forward
  const auto want = rig.direct.run_forward(rig.direct_handles, x);
  const auto got = fut.get();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) EXPECT_EQ(want[j].values, got[j].values);
  EXPECT_EQ(rig.server.stats().peak_queue_depth, 1u);
}

TEST(ServeFusion, LapsedForwardFailsOnIdleServerWithoutRunning) {
  ForwardRig rig(8, 32, 2);
  const std::uint64_t fused_before = rig.served_eng.fusion_stats().fused_runs;
  auto fut = rig.server.submit_forward(
      rig.served_handles, random_vec(32, 8, 91),
      SubmitOptions{0, Clock::now() - std::chrono::milliseconds(1)});
  ASSERT_TRUE(ready(fut));
  EXPECT_THROW((void)fut.get(), DeadlineExceeded);
  const ServeStats s = rig.server.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(rig.served_eng.fusion_stats().fused_runs, fused_before);
}

TEST(ServeFusion, StopWaitsOutAForwardRunningInPlace) {
  // stop() must not return while a submitting thread still dispatches. A
  // long forward starts in place on an idle server (its admission shows in
  // stats() only once its thread holds the dispatch token), stop() lands
  // mid-run, and the forward has settled by the time stop() returns.
  macro::ImcMemory mem{macro::MemoryConfig{}};
  ExecutionEngine eng(mem, EngineConfig{1});
  Server server(eng);
  const unsigned bits = 8;
  const std::size_t n = 512;
  std::vector<ResidentOperand> handles;
  for (std::size_t j = 0; j < 32; ++j)
    handles.push_back(server.pin(random_vec(n, bits, 300 + j), bits, OperandLayout::MultUnit));
  const auto x = random_vec(n, bits, 399);
  std::future<std::vector<OpResult>> fut;
  std::thread client([&] { fut = server.submit_forward(handles, x); });
  while (server.stats().submitted == 0) std::this_thread::yield();
  server.stop();
  const ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 1u) << "stop() returned before the in-place forward settled";
  EXPECT_EQ(s.peak_queue_depth, 0u);
  client.join();
  EXPECT_EQ(fut.get().size(), handles.size());
}

TEST(ServeFusion, SubmitForwardAfterStopThrows) {
  ForwardRig rig(8, 32, 2);
  rig.server.stop();
  EXPECT_THROW((void)rig.server.submit_forward(rig.served_handles, random_vec(32, 8, 92)),
               ServerStopped);
  EXPECT_EQ(rig.server.stats().submitted, 0u);
}

}  // namespace
}  // namespace bpim::serve
