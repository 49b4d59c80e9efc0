// AdmissionQueue unit tests: FIFO drain, bounded backpressure, close, pause
// and dispatch-token semantics. Tickets here are empty shells (no ops) -- the queue only
// moves them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/admission_queue.hpp"

namespace bpim::serve {
namespace {

using detail::Ticket;

Ticket ticket(std::uint64_t seq) {
  Ticket t;
  t.seq = seq;
  return t;
}

std::vector<std::uint64_t> seqs(const std::vector<Ticket>& ts) {
  std::vector<std::uint64_t> out;
  for (const auto& t : ts) out.push_back(t.seq);
  return out;
}

constexpr std::chrono::microseconds kNoWindow{0};

TEST(AdmissionQueue, DrainsInFifoOrder) {
  AdmissionQueue q(8);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(q.push(ticket(i)));
  EXPECT_EQ(q.depth(), 5u);
  EXPECT_EQ(q.peak_depth(), 5u);

  std::vector<Ticket> out;
  ASSERT_TRUE(q.wait_pop_all(out, kNoWindow, 1));
  EXPECT_EQ(seqs(out), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.peak_depth(), 5u);  // high-water mark survives the drain
}

TEST(AdmissionQueue, TryPushFailsWhenFull) {
  AdmissionQueue q(2);
  EXPECT_TRUE(q.try_push(ticket(0)));
  EXPECT_TRUE(q.try_push(ticket(1)));
  EXPECT_FALSE(q.try_push(ticket(2)));
  std::vector<Ticket> out;
  q.try_pop_all(out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(q.try_push(ticket(3)));
}

TEST(AdmissionQueue, BlockingPushWaitsForRoom) {
  AdmissionQueue q(1);
  EXPECT_TRUE(q.push(ticket(0)));

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(ticket(1)));  // blocks until the consumer drains
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());

  std::vector<Ticket> out;
  ASSERT_TRUE(q.wait_pop_all(out, kNoWindow, 1));
  producer.join();
  EXPECT_TRUE(pushed.load());
  out.clear();
  ASSERT_TRUE(q.wait_pop_all(out, kNoWindow, 1));
  EXPECT_EQ(seqs(out), (std::vector<std::uint64_t>{1}));
}

TEST(AdmissionQueue, CloseWakesBlockedProducer) {
  AdmissionQueue q(1);
  EXPECT_TRUE(q.push(ticket(0)));
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    rejected.store(!q.push(ticket(1)));  // blocked on a full queue...
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();  // ...until close fails the admission
  producer.join();
  EXPECT_TRUE(rejected.load());

  // The accepted ticket still drains; only then does the queue report done.
  std::vector<Ticket> out;
  EXPECT_TRUE(q.wait_pop_all(out, kNoWindow, 1));
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  EXPECT_FALSE(q.wait_pop_all(out, kNoWindow, 1));
  EXPECT_TRUE(out.empty());
}

TEST(AdmissionQueue, PushAfterCloseFails) {
  AdmissionQueue q(4);
  q.close();
  EXPECT_FALSE(q.push(ticket(0)));
  EXPECT_FALSE(q.try_push(ticket(1)));
  EXPECT_TRUE(q.closed());
}

TEST(AdmissionQueue, PauseFreezesConsumerNotProducers) {
  AdmissionQueue q(4);
  q.set_paused(true);
  EXPECT_TRUE(q.push(ticket(0)));  // admission stays open
  std::vector<Ticket> out;
  q.try_pop_all(out);
  EXPECT_TRUE(out.empty());  // consumer side is frozen

  q.set_paused(false);
  q.try_pop_all(out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(AdmissionQueue, CloseOverridesPause) {
  AdmissionQueue q(4);
  q.set_paused(true);
  EXPECT_TRUE(q.push(ticket(0)));
  q.close();
  // Shutdown must drain even a paused queue.
  std::vector<Ticket> out;
  EXPECT_TRUE(q.wait_pop_all(out, kNoWindow, 1));
  EXPECT_EQ(out.size(), 1u);
}

TEST(AdmissionQueue, PauseDuringLingerFreezesDrain) {
  AdmissionQueue q(8);
  EXPECT_TRUE(q.push(ticket(0)));
  std::atomic<bool> drained{false};
  std::vector<Ticket> out;
  std::thread consumer([&] {
    // Generous window, unreachable fill target: the consumer lingers.
    EXPECT_TRUE(q.wait_pop_all(out, std::chrono::microseconds(50000), 100));
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.set_paused(true);  // freeze mid-linger: nothing may drain while staged
  EXPECT_TRUE(q.push(ticket(1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(70));  // window long expired
  EXPECT_FALSE(drained.load());
  q.set_paused(false);  // release: both tickets drain as one decision
  consumer.join();
  EXPECT_EQ(seqs(out), (std::vector<std::uint64_t>{0, 1}));
}

TEST(AdmissionQueue, CoalesceWindowCollectsLateArrivals) {
  AdmissionQueue q(8);
  EXPECT_TRUE(q.push(ticket(0)));
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(q.push(ticket(1)));
    EXPECT_TRUE(q.push(ticket(2)));
  });
  // A generous window with fill target 3: the consumer lingers until the
  // two late arrivals land, then drains all three as one decision.
  std::vector<Ticket> out;
  ASSERT_TRUE(q.wait_pop_all(out, std::chrono::microseconds(500000), 3));
  late.join();
  EXPECT_EQ(out.size(), 3u);
}

TEST(AdmissionQueue, DispatchTokenKeepsOneDispatcherAtATime) {
  AdmissionQueue q(4);
  // A producer may take the token before the consumer has ever waited, and
  // the consumer's first wait must leave it with the producer.
  ASSERT_TRUE(q.try_take_token());
  std::atomic<bool> drained{false};
  std::vector<Ticket> out;
  std::thread first([&] {
    EXPECT_TRUE(q.wait_pop_all(out, kNoWindow, 1));
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(q.try_take_token()) << "one holder at a time";
  EXPECT_TRUE(q.push(ticket(0)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load()) << "nothing drains while a producer holds the token";
  q.give_token();
  first.join();
  EXPECT_EQ(seqs(out), (std::vector<std::uint64_t>{0}));

  // The consumer holds the token from its drain to its next wait, which
  // lends it out again; a close then waits for the producer to give it back.
  EXPECT_FALSE(q.try_take_token());
  std::atomic<bool> ended{false};
  std::thread second([&] {
    std::vector<Ticket> more;
    EXPECT_FALSE(q.wait_pop_all(more, kNoWindow, 1));
    ended.store(true);
  });
  bool taken = false;
  for (int i = 0; i < 2000 && !(taken = q.try_take_token()); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(taken);
  q.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ended.load() && taken) << "the drain ended while a producer held the token";
  if (taken) q.give_token();
  second.join();
  EXPECT_TRUE(ended.load());
  EXPECT_FALSE(q.try_take_token()) << "a closed queue lends no token";
}

}  // namespace
}  // namespace bpim::serve
