// serve::Server: concurrent clients through the admission queue must get
// results bit-identical to running each op alone through a serial engine;
// coalescing, priorities, deadlines, backpressure and shutdown must behave
// as the header promises. The stress test here is the one the TSan CI job
// leans on.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "app/vector_engine.hpp"
#include "common/rng.hpp"
#include "engine/execution_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace bpim::serve {
namespace {

using engine::EngineConfig;
using engine::ExecutionEngine;
using engine::OpKind;
using engine::OpResult;
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

/// The op alone on a fresh memory through a serial engine: the reference
/// every served result must match bit-for-bit.
OpResult run_serial_reference(const VecOp& op) {
  macro::ImcMemory mem(tiny_memory());
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

/// Server over its own memory/engine, kept alive together.
struct Harness {
  explicit Harness(ServerConfig cfg = {}, std::size_t threads = 2)
      : mem(tiny_memory()), eng(mem, EngineConfig{threads}), server(eng, cfg) {}
  macro::ImcMemory mem;
  ExecutionEngine eng;
  Server server;
};

TEST(Server, SingleOpMatchesSerialEngine) {
  Harness h;
  const auto a = random_vec(200, 8, 1);
  const auto b = random_vec(200, 8, 2);
  const VecOp op{OpKind::Mult, 8, periph::LogicFn::And, a, b};
  OpResult got = h.server.submit(op).get();
  expect_identical(run_serial_reference(op), got, "single mult");

  const ServeStats s = h.server.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.host_us.count, 1u);
  EXPECT_GE(s.host_us.p99, s.host_us.p50);
}

TEST(Server, OperandsMayBeFreedAfterSubmit) {
  Harness h;
  h.server.pause();  // hold the op in the queue while the operands die
  std::future<OpResult> fut;
  std::vector<std::uint64_t> expect;
  {
    const auto a = random_vec(40, 8, 3);
    const auto b = random_vec(40, 8, 4);
    for (std::size_t i = 0; i < a.size(); ++i) expect.push_back((a[i] + b[i]) & 0xFF);
    fut = h.server.submit(VecOp{OpKind::Add, 8, periph::LogicFn::And, a, b});
  }  // a/b destroyed before the op runs; the server owns copies
  h.server.resume();
  EXPECT_EQ(fut.get().values, expect);
}

TEST(Server, StressManyClientsBitIdenticalToSerial) {
  Harness h(ServerConfig{/*queue_capacity=*/32, /*max_batch_ops=*/8,
                         /*coalesce_window=*/std::chrono::microseconds(50)},
            /*threads=*/2);
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kOpsPerClient = 12;

  struct ClientLog {
    std::vector<VecOp> ops;
    std::vector<std::vector<std::uint64_t>> a, b;  ///< keep operands for the replay
    std::vector<OpResult> results;
  };
  std::vector<ClientLog> logs(kClients);

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      bpim::Rng rng(0x5EED + c);
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
        const int priority = static_cast<int>(rng.next_u64() % 3);
        log.ops.push_back(op);
        log.results.push_back(h.server.submit(op, SubmitOptions{priority, {}}).get());
      }
    });
  }
  for (auto& t : clients) t.join();

  // Replay every op alone through a serial engine on a fresh memory.
  for (std::size_t c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < logs[c].ops.size(); ++i)
      expect_identical(run_serial_reference(logs[c].ops[i]), logs[c].results[i],
                       "client " + std::to_string(c) + " op " + std::to_string(i));

  const ServeStats s = h.server.stats();
  EXPECT_EQ(s.submitted, kClients * kOpsPerClient);
  EXPECT_EQ(s.completed, kClients * kOpsPerClient);
  EXPECT_EQ(s.expired, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.host_us.count, kClients * kOpsPerClient);
  // Coalescing can only save modeled cycles, never add them.
  EXPECT_LE(s.modeled_pipelined_cycles, s.modeled_serial_cycles);
}

TEST(Server, CoalescesCompatibleOpsIntoOneBatch) {
  Harness h;
  h.server.pause();  // stage all four, then release as one decision
  const auto a = random_vec(32, 8, 5);  // one layer at 8-bit MULT on 4 macros
  const auto b = random_vec(32, 8, 6);
  const VecOp op{OpKind::Mult, 8, periph::LogicFn::And, a, b};
  std::vector<std::future<OpResult>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(h.server.submit(op));
  h.server.resume();
  for (auto& f : futs) expect_identical(run_serial_reference(op), f.get(), "coalesced op");

  const ServeStats s = h.server.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_DOUBLE_EQ(s.mean_batch_occupancy(), 4.0);
  ASSERT_EQ(s.recent_batches.size(), 1u);
  EXPECT_EQ(s.recent_batches[0].ops, 4u);
  EXPECT_EQ(s.recent_batches[0].layers, 4u);
  // The whole point: three of the four loads hide behind compute.
  EXPECT_LT(s.modeled_pipelined_cycles, s.modeled_serial_cycles);
  EXPECT_GT(s.coalescing_speedup(), 1.0);
}

TEST(Server, IncompatibleOpsSplitIntoSeparateBatches) {
  Harness h;
  h.server.pause();
  const auto a = random_vec(16, 8, 7);
  const auto b = random_vec(16, 8, 8);
  const auto a4 = random_vec(16, 4, 9);
  const auto b4 = random_vec(16, 4, 10);
  std::vector<std::future<OpResult>> futs;
  futs.push_back(h.server.submit(VecOp{OpKind::Mult, 8, periph::LogicFn::And, a, b}));
  futs.push_back(h.server.submit(VecOp{OpKind::Add, 8, periph::LogicFn::And, a, b}));
  futs.push_back(h.server.submit(VecOp{OpKind::Mult, 4, periph::LogicFn::And, a4, b4}));
  // Same kind/bits as the first: rides its batch despite being submitted last.
  futs.push_back(h.server.submit(VecOp{OpKind::Mult, 8, periph::LogicFn::And, a, b}));
  h.server.resume();
  for (auto& f : futs) (void)f.get();

  const ServeStats s = h.server.stats();
  EXPECT_EQ(s.batches, 3u);
  ASSERT_EQ(s.recent_batches.size(), 3u);
  EXPECT_EQ(s.recent_batches[0].ops, 2u);  // the two 8-bit MULTs coalesce
  EXPECT_EQ(s.recent_batches[0].kind, OpKind::Mult);
  EXPECT_EQ(s.recent_batches[0].bits, 8u);
}

TEST(Server, HigherPriorityBatchRunsFirst) {
  Harness h;
  h.server.pause();
  const auto a = random_vec(16, 8, 11);
  const auto b = random_vec(16, 8, 12);
  const auto a4 = random_vec(16, 4, 13);
  const auto b4 = random_vec(16, 4, 14);
  auto low = h.server.submit(VecOp{OpKind::Add, 8, periph::LogicFn::And, a, b},
                             SubmitOptions{/*priority=*/0, {}});
  auto high = h.server.submit(VecOp{OpKind::Mult, 4, periph::LogicFn::And, a4, b4},
                              SubmitOptions{/*priority=*/5, {}});
  h.server.resume();
  (void)low.get();
  (void)high.get();

  const ServeStats s = h.server.stats();
  ASSERT_EQ(s.recent_batches.size(), 2u);
  // Submitted second, scheduled first.
  EXPECT_EQ(s.recent_batches[0].kind, OpKind::Mult);
  EXPECT_EQ(s.recent_batches[0].bits, 4u);
  EXPECT_EQ(s.recent_batches[1].kind, OpKind::Add);
}

TEST(Server, LapsedDeadlineFailsInsteadOfRunning) {
  Harness h;
  h.server.pause();
  const auto a = random_vec(16, 8, 15);
  const auto b = random_vec(16, 8, 16);
  const VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, b};
  auto dead = h.server.submit(
      op, SubmitOptions{0, Clock::now() - std::chrono::milliseconds(1)});
  auto live = h.server.submit(
      op, SubmitOptions{0, Clock::now() + std::chrono::hours(1)});
  h.server.resume();

  EXPECT_THROW((void)dead.get(), DeadlineExceeded);
  expect_identical(run_serial_reference(op), live.get(), "live deadline op");

  const ServeStats s = h.server.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(Server, DeadlineExpiringInsideCoalesceWindowFailsAtBatchBuild) {
  // The scheduler lingers in the coalesce window before building a batch;
  // deadlines are re-checked with a fresh clock at batch-build time, so a
  // request that expires while held in the window fails instead of running.
  Harness h(ServerConfig{/*queue_capacity=*/16, /*max_batch_ops=*/64,
                         /*coalesce_window=*/std::chrono::milliseconds(100)});
  const auto a = random_vec(16, 8, 40);
  const auto b = random_vec(16, 8, 41);
  const VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, b};
  auto fut = h.server.submit(
      op, SubmitOptions{0, Clock::now() + std::chrono::milliseconds(10)});

  EXPECT_THROW((void)fut.get(), DeadlineExceeded);
  const ServeStats s = h.server.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.batches, 0u) << "an expired request must never reach the engine";
}

TEST(Server, ModeledLatencyIsPerOpShareOfItsBatch) {
  // Four identical riders in one batch: each op's modeled latency sample is
  // the batch cost / 4, so the per-op summary does not overcount under
  // coalescing (the samples of a batch sum to its pipelined cycles).
  Harness h;
  h.server.pause();
  const auto a = random_vec(32, 8, 42);
  const auto b = random_vec(32, 8, 43);
  const VecOp op{OpKind::Mult, 8, periph::LogicFn::And, a, b};
  std::vector<std::future<OpResult>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(h.server.submit(op));
  h.server.resume();
  for (auto& f : futs) (void)f.get();

  const ServeStats s = h.server.stats();
  ASSERT_EQ(s.batches, 1u);
  EXPECT_EQ(s.modeled_cycles.count, 4u);
  const double share = static_cast<double>(s.modeled_pipelined_cycles) / 4.0;
  EXPECT_DOUBLE_EQ(s.modeled_cycles.p50, share);
  EXPECT_DOUBLE_EQ(s.modeled_cycles.max, share);
  EXPECT_DOUBLE_EQ(s.modeled_cycles.mean, share);
}

TEST(Server, QueueFullBackpressure) {
  Harness h(ServerConfig{/*queue_capacity=*/2, /*max_batch_ops=*/64, {}});
  h.server.pause();  // nothing drains: the queue must fill
  const auto a = random_vec(8, 8, 17);
  const auto b = random_vec(8, 8, 18);
  const VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, b};

  std::vector<std::future<OpResult>> futs;
  futs.push_back(h.server.submit(op));
  futs.push_back(h.server.submit(op));
  EXPECT_FALSE(h.server.try_submit(op).has_value());  // full: fail fast
  EXPECT_EQ(h.server.stats().rejected, 1u);
  EXPECT_EQ(h.server.stats().queue_depth, 2u);

  // A blocking submit must park until the scheduler makes room.
  std::atomic<bool> admitted{false};
  std::future<OpResult> blocked_fut;
  std::thread blocked([&] {
    blocked_fut = h.server.submit(op);
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(admitted.load());

  h.server.resume();
  blocked.join();
  EXPECT_TRUE(admitted.load());
  futs.push_back(std::move(blocked_fut));
  for (auto& f : futs) expect_identical(run_serial_reference(op), f.get(), "backpressure op");
  EXPECT_EQ(h.server.stats().peak_queue_depth, 2u);
}

TEST(Server, StopDrainsAcceptedWorkThenRefuses) {
  auto h = std::make_unique<Harness>(ServerConfig{/*queue_capacity=*/128, 8, {}});
  const auto a = random_vec(32, 8, 19);
  const auto b = random_vec(32, 8, 20);
  const VecOp op{OpKind::Mult, 8, periph::LogicFn::And, a, b};

  h->server.pause();  // pile up a loaded queue before stopping
  std::vector<std::future<OpResult>> futs;
  for (int i = 0; i < 50; ++i) futs.push_back(h->server.submit(op));
  h->server.stop();  // close admission, drain all 50, join

  const OpResult want = run_serial_reference(op);
  for (auto& f : futs) expect_identical(want, f.get(), "drained op");
  EXPECT_EQ(h->server.stats().completed, 50u);
  EXPECT_TRUE(h->server.stopped());
  EXPECT_THROW((void)h->server.submit(op), ServerStopped);
  EXPECT_THROW((void)h->server.try_submit(op), ServerStopped);
  h.reset();  // double-stop via the destructor must be harmless
}

TEST(Server, StopWhileClientsAreSubmitting) {
  Harness h(ServerConfig{/*queue_capacity=*/8, 8, {}});
  const auto a = random_vec(16, 8, 21);
  const auto b = random_vec(16, 8, 22);
  const VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, b};
  const OpResult want = run_serial_reference(op);

  std::atomic<std::uint64_t> completed{0}, stopped{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        try {
          OpResult r = h.server.submit(op).get();
          EXPECT_EQ(r.values, want.values);
          ++completed;
        } catch (const ServerStopped&) {
          ++stopped;  // raced the shutdown: acceptable, but never lost work
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  h.server.stop();
  for (auto& t : clients) t.join();

  // Every accepted request completed; only post-stop submissions failed.
  EXPECT_EQ(h.server.stats().completed, completed.load());
  EXPECT_GT(completed.load(), 0u);
}

TEST(Server, StopMidStreamSettlesInPlaceForwardsAndQueuedOps) {
  // Four clients mix forwards (run in place whenever the server is idle),
  // blocking and non-blocking ops with random priorities and deadlines
  // while another thread stops the server. Every future resolves, values
  // match a serial engine, the ledger settles, and nothing settles after
  // stop() returns: an in-place forward holds stop() off until it is done.
  Harness h(ServerConfig{/*queue_capacity=*/16, /*max_batch_ops=*/8, {}});
  constexpr std::size_t kClients = 4;
  constexpr std::size_t n = 32;

  const std::vector<std::vector<std::uint64_t>> operands{
      random_vec(n, 8, 60), random_vec(n, 8, 61), random_vec(n, 4, 62),
      random_vec(n, 4, 63), random_vec(n, 8, 64), random_vec(n, 8, 65)};
  const std::vector<VecOp> ops{
      VecOp{OpKind::Add, 8, periph::LogicFn::And, operands[0], operands[1]},
      VecOp{OpKind::Mult, 4, periph::LogicFn::And, operands[2], operands[3]},
      VecOp{OpKind::Logic, 8, periph::LogicFn::Xor, operands[4], operands[5]}};
  std::vector<OpResult> want;
  for (const VecOp& op : ops) want.push_back(run_serial_reference(op));

  std::vector<std::vector<std::vector<std::uint64_t>>> w(kClients), x(kClients);
  std::vector<std::vector<engine::ResidentOperand>> handles(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t j = 0; j < 2; ++j) {
      w[c].push_back(random_vec(n, 8, 100 + 10 * c + j));
      handles[c].push_back(h.server.pin(w[c].back(), 8, engine::OperandLayout::MultUnit));
    }
    for (std::size_t k = 0; k < 3; ++k) x[c].push_back(random_vec(n, 8, 200 + 10 * c + k));
  }

  struct Tally {
    std::uint64_t completed = 0, expired = 0, rescinded = 0, rejected = 0, wrong = 0, other = 0;
  };
  std::vector<Tally> tallies(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      bpim::Rng rng(0xF0D + c);
      Tally& tally = tallies[c];
      // Settle one future: a value checked against its reference, or one of
      // the two documented failures. Anything else is a defect.
      const auto settle = [&](auto& fut, const auto& check) {
        try {
          check(fut.get());
          ++tally.completed;
        } catch (const DeadlineExceeded&) {
          ++tally.expired;
        } catch (const ServerStopped&) {
          ++tally.rescinded;
        } catch (...) {
          ++tally.other;
        }
      };
      std::vector<std::pair<std::size_t, std::future<OpResult>>> pending;
      const auto settle_ops = [&] {
        for (auto& [k, fut] : pending)
          settle(fut, [&](const OpResult& r) {
            if (r.values != want[k].values || r.stats.elapsed_cycles != want[k].stats.elapsed_cycles)
              ++tally.wrong;
          });
        pending.clear();
      };
      for (;;) {
        const std::uint64_t roll = rng.next_u64();
        std::optional<Clock::time_point> deadline;
        if (roll % 4 == 2) deadline = Clock::now() - std::chrono::milliseconds(1);
        if (roll % 4 == 3) deadline = Clock::now() + std::chrono::microseconds(200);
        const SubmitOptions opts{static_cast<int>((roll >> 8) % 4), deadline};
        const std::size_t k = (roll >> 16) % 3;
        try {
          switch ((roll >> 24) % 3) {
            case 0: {
              auto fut = h.server.submit_forward(handles[c], x[c][k], opts);
              settle(fut, [&](const std::vector<OpResult>& rs) {
                for (std::size_t j = 0; j < rs.size(); ++j)
                  for (std::size_t i = 0; i < n; ++i)
                    if (rs[j].values[i] != w[c][j][i] * x[c][k][i]) ++tally.wrong;
              });
              break;
            }
            case 1:
              pending.emplace_back(k, h.server.submit(ops[k], opts));
              break;
            default:
              if (auto fut = h.server.try_submit(ops[k], opts))
                pending.emplace_back(k, std::move(*fut));
              else
                ++tally.rejected;
          }
        } catch (const ServerStopped&) {
          break;
        }
        if (pending.size() >= 4) settle_ops();
      }
      settle_ops();
    });
  }

  ServeStats at_stop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    h.server.stop();
    at_stop = h.server.stats();
    // The engine is idle once stop() returns: running on it here races any
    // dispatch still in flight, which TSan reports.
    const OpResult again = h.eng.run(ops[0]);
    EXPECT_EQ(again.values, want[0].values);
  });
  stopper.join();
  for (auto& t : clients) t.join();

  Tally sum;
  for (const Tally& t : tallies) {
    sum.completed += t.completed;
    sum.expired += t.expired;
    sum.rejected += t.rejected;
    sum.wrong += t.wrong;
    sum.other += t.other;
  }
  const ServeStats s = h.server.stats();
  EXPECT_EQ(sum.wrong, 0u);
  EXPECT_EQ(sum.other, 0u);
  EXPECT_GT(sum.completed, 0u);
  EXPECT_EQ(s.completed, sum.completed);
  EXPECT_EQ(s.expired, sum.expired);
  EXPECT_EQ(s.rejected, sum.rejected);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.submitted, s.completed + s.expired + s.failed);
  EXPECT_EQ(s.completed, at_stop.completed) << "a request settled after stop() returned";
  EXPECT_EQ(s.expired, at_stop.expired);
  EXPECT_EQ(s.failed, at_stop.failed);
}

TEST(Server, ConcurrentForwardsOnAFreshServerKeepOneDispatcher) {
  // Clients already waiting pin their weights and fire forwards the moment
  // a new server exists, racing each other and the scheduler's start-up for
  // the dispatch token. Only one may dispatch at a time (TSan reports any
  // overlap on the engine), every forward is exact, and the ledger settles.
  // The token's start-up rule itself is pinned down deterministically in
  // AdmissionQueue.DispatchTokenKeepsOneDispatcherAtATime.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kForwards = 3;
  constexpr std::size_t kWeights = 4;
  constexpr std::size_t n = 256;
  for (std::size_t round = 0; round < 6; ++round) {
    std::optional<Harness> h;
    const auto x = random_vec(n, 8, 500 + round);
    std::atomic<std::size_t> wrong{0};
    // Clients spin rather than block so they start within the scheduler
    // thread's start-up.
    std::atomic<Server*> server{nullptr};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<std::vector<std::uint64_t>> w;
        for (std::size_t j = 0; j < kWeights; ++j) w.push_back(random_vec(n, 8, 600 + 10 * c + j));
        Server* srv = nullptr;
        while ((srv = server.load(std::memory_order_acquire)) == nullptr) {
        }
        std::vector<engine::ResidentOperand> handles;
        for (const auto& wj : w) handles.push_back(srv->pin(wj, 8, engine::OperandLayout::MultUnit));
        for (std::size_t f = 0; f < kForwards; ++f) {
          const auto rs = srv->submit_forward(handles, x).get();
          for (std::size_t j = 0; j < rs.size(); ++j)
            for (std::size_t i = 0; i < n; ++i)
              if (rs[j].values[i] != w[j][i] * x[i]) wrong.fetch_add(1);
        }
      });
    }
    h.emplace(ServerConfig{}, /*threads=*/1);
    server.store(&h->server, std::memory_order_release);
    for (auto& t : clients) t.join();
    h->server.stop();
    EXPECT_EQ(wrong.load(), 0u);
    const ServeStats s = h->server.stats();
    EXPECT_EQ(s.submitted, kClients * kForwards);
    EXPECT_EQ(s.completed, kClients * kForwards);
  }
}

TEST(Server, MalformedOpsThrowAtSubmit) {
  Harness h;
  const auto a = random_vec(4, 8, 23);
  const auto b = random_vec(3, 8, 24);
  EXPECT_THROW((void)h.server.submit(VecOp{OpKind::Add, 8, periph::LogicFn::And, a, b}),
               std::invalid_argument);
  EXPECT_THROW((void)h.server.submit(VecOp{OpKind::Add, 3, periph::LogicFn::And, a, a}),
               std::invalid_argument);
  const auto big = random_vec(5000, 8, 25);  // 4 macros x 64 pairs x 16 words = 4096 max
  EXPECT_THROW((void)h.server.submit(VecOp{OpKind::Add, 8, periph::LogicFn::And, big, big}),
               std::invalid_argument);
  // Admission runs the engine's own checks: a handle whose precision or
  // layout does not fit the op is refused here, not on the future.
  VecOp wrong{OpKind::Add, 8, periph::LogicFn::And, a, {}};
  wrong.rb = h.server.pin(random_vec(4, 4, 26), 4, engine::OperandLayout::Word);
  EXPECT_THROW((void)h.server.submit(wrong), std::invalid_argument);
  wrong.rb = h.server.pin(a, 8, engine::OperandLayout::MultUnit);
  EXPECT_THROW((void)h.server.submit(wrong), std::invalid_argument);
  EXPECT_EQ(h.server.stats().submitted, 0u);
}

TEST(Server, VectorEngineRoutesThroughServer) {
  Harness h;
  app::VectorEngine ve(h.server, 8);
  EXPECT_EQ(&ve.engine(), &h.eng);

  const auto a = random_vec(200, 8, 26);
  const auto b = random_vec(200, 8, 27);
  const auto sum = ve.add(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(sum[i], (a[i] + b[i]) & 0xFF);
  // Serial seed semantics survive the queue: 200 adds on 64 words/layer.
  EXPECT_EQ(ve.last_run().elapsed_cycles, 4u);

  std::vector<std::pair<std::span<const std::uint64_t>, std::span<const std::uint64_t>>>
      pairs = {{a, b}, {a, b}, {a, b}};
  const auto results = ve.mult_batch(pairs);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results)
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(r.values[i], a[i] * b[i]);
  EXPECT_EQ(ve.last_run().elements, 600u);
}

TEST(Server, ExecutionFailureIsCountedAndSettlesTheLedger) {
  // Unpinning a handle that a queued op references makes the engine throw
  // at dispatch: the rider's future carries the error, and the ledger
  // counts it, so submitted == completed + expired + failed still holds.
  Harness h;
  obs::Counter& failed_counter = obs::MetricsRegistry::global().counter("serve.requests.failed");
  const std::uint64_t failed_before = failed_counter.value();
  const auto w = random_vec(64, 8, 41);
  const auto x = random_vec(64, 8, 42);
  VecOp op{OpKind::Mult, 8, periph::LogicFn::And, {}, x};
  op.ra = h.server.pin(w, 8, engine::OperandLayout::MultUnit);
  h.server.pause();
  auto fut = h.server.submit(op);
  ASSERT_TRUE(h.server.unpin(op.ra));
  h.server.resume();
  EXPECT_THROW((void)fut.get(), std::invalid_argument);

  const ServeStats s = h.server.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.submitted, s.completed + s.expired + s.failed);
  EXPECT_EQ(failed_counter.value() - failed_before, 1u);
}

TEST(Server, TracingOffRegistersNoTraceRing) {
  // Every scheduler thread names its trace row. With tracing off that must
  // not register a ring for the thread (8K slots the session keeps for good).
  obs::TraceSession& session = obs::TraceSession::global();
  session.disable();
  const std::size_t before = session.thread_count();
  for (std::uint64_t i = 0; i < 8; ++i) {
    Harness h;
    const auto a = random_vec(64, 8, 50 + i);
    (void)h.server.submit(VecOp{OpKind::Add, 8, periph::LogicFn::And, a, a}).get();
  }
  EXPECT_EQ(session.thread_count(), before);
}

}  // namespace
}  // namespace bpim::serve
