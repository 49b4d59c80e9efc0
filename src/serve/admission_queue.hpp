#pragma once
// Bounded MPSC admission queue between client threads and the scheduler.
//
// Producers (any thread): push() blocks while the queue is full -- that is
// the server's backpressure -- and try_push() fails fast instead. Both fail
// once the queue is closed.
//
// Consumer (the scheduler thread): wait_pop_all() parks until work is
// admitted, optionally lingers for a coalesce window so near-simultaneous
// requests land in one batch, then moves *everything* out in one swap;
// try_pop_all() is the non-blocking top-up between batches. Closing wakes
// everyone; the consumer keeps draining until the queue is empty, so
// accepted work is never dropped.
//
// A dispatch token keeps one dispatcher at a time: wait_pop_all() takes it
// with what it drains and gives it back on its next call; a producer may
// take it on an open, unpaused, empty queue (try_take_token()) to dispatch
// in place until give_token(), and wait_pop_all() waits that out.
//
// pause() freezes the consumer side only (admission stays open). It exists
// so tests and diagnostics can stage a known set of requests and then
// release them as one deterministic coalescing decision.

#include <chrono>
#include <deque>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serve/request.hpp"

namespace bpim::serve {

class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Block until there is room, then admit. Returns false (ticket left
  /// untouched) if the queue is or becomes closed.
  [[nodiscard]] bool push(detail::Ticket&& t) BPIM_EXCLUDES(mutex_);
  /// Admit only if there is room right now. Returns false (ticket left
  /// untouched) when full or closed.
  [[nodiscard]] bool try_push(detail::Ticket&& t) BPIM_EXCLUDES(mutex_);

  /// Consumer: give back the dispatch token if the last call took it, block
  /// until a ticket is queued (unpaused) and no producer holds the token,
  /// linger up to `coalesce_window` for the depth to reach `fill_target`,
  /// then take the token and append every queued ticket to `out`. Returns
  /// false -- with nothing appended -- only when the queue is closed and
  /// empty and no producer holds the token: the drain is complete.
  [[nodiscard]] bool wait_pop_all(std::vector<detail::Ticket>& out,
                                  std::chrono::microseconds coalesce_window,
                                  std::size_t fill_target) BPIM_EXCLUDES(mutex_);
  /// Consumer: append whatever is queued right now (nothing while paused).
  void try_pop_all(std::vector<detail::Ticket>& out) BPIM_EXCLUDES(mutex_);

  /// Producer: take the dispatch token (one dispatcher at a time) if the
  /// queue is open, unpaused, empty and the token free, to run in place.
  [[nodiscard]] bool try_take_token() BPIM_EXCLUDES(mutex_);
  /// Producer: hand back the token taken by try_take_token.
  void give_token() BPIM_EXCLUDES(mutex_);

  /// Stop admitting; wakes blocked producers (push fails) and the consumer
  /// (which drains the remainder). Idempotent.
  void close() BPIM_EXCLUDES(mutex_);
  [[nodiscard]] bool closed() const BPIM_EXCLUDES(mutex_);

  /// Freeze/unfreeze the consumer side; a close() overrides pause.
  void set_paused(bool paused) BPIM_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t depth() const BPIM_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t peak_depth() const BPIM_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  /// Move every queued ticket to `out` and wake blocked producers.
  void drain_locked(std::vector<detail::Ticket>& out) BPIM_REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_full_;   ///< producers park here
  CondVar not_empty_;  ///< the consumer parks here
  std::deque<detail::Ticket> queue_ BPIM_GUARDED_BY(mutex_);
  std::size_t peak_depth_ BPIM_GUARDED_BY(mutex_) = 0;
  bool closed_ BPIM_GUARDED_BY(mutex_) = false;
  bool paused_ BPIM_GUARDED_BY(mutex_) = false;
  enum class Holder : unsigned char { None, Consumer, Producer };  ///< of the dispatch token
  Holder holder_ BPIM_GUARDED_BY(mutex_) = Holder::None;
};

}  // namespace bpim::serve
