#include "serve/admission_queue.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace bpim::serve {

AdmissionQueue::AdmissionQueue(std::size_t capacity) : capacity_(capacity) {
  BPIM_REQUIRE(capacity > 0, "admission queue capacity must be positive");
}

bool AdmissionQueue::push(detail::Ticket&& t) {
  MutexLock lk(mutex_);
  while (!closed_ && queue_.size() >= capacity_) not_full_.wait(mutex_);
  if (closed_) return false;
  queue_.push_back(std::move(t));
  peak_depth_ = std::max(peak_depth_, queue_.size());
  lk.unlock();
  not_empty_.notify_one();
  return true;
}

bool AdmissionQueue::try_push(detail::Ticket&& t) {
  {
    MutexLock lk(mutex_);
    if (closed_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(t));
    peak_depth_ = std::max(peak_depth_, queue_.size());
  }
  not_empty_.notify_one();
  return true;
}

bool AdmissionQueue::wait_pop_all(std::vector<detail::Ticket>& out,
                                  std::chrono::microseconds coalesce_window,
                                  std::size_t fill_target) {
  MutexLock lk(mutex_);
  // The consumer's last drain is done; a producer's token stays its own.
  if (holder_ == Holder::Consumer) holder_ = Holder::None;
  for (;;) {
    // Closed overrides pause: shutdown must drain even a paused queue. A
    // producer dispatching in place holds off both the drain and the end.
    while (holder_ == Holder::Producer || (!closed_ && (paused_ || queue_.empty())))
      not_empty_.wait(mutex_);
    if (queue_.empty()) return false;  // closed and fully drained
    if (coalesce_window.count() > 0 && !closed_ && queue_.size() < fill_target) {
      const auto until = Clock::now() + coalesce_window;
      while (!closed_ && !paused_ && queue_.size() < fill_target) {
        if (not_empty_.wait_until(mutex_, until) == std::cv_status::timeout) break;
      }
    }
    // A pause landing mid-linger freezes the drain too: back to the outer
    // wait so the stage-then-release contract holds.
    if (paused_ && !closed_) continue;
    holder_ = Holder::Consumer;
    drain_locked(out);
    return true;
  }
}

void AdmissionQueue::try_pop_all(std::vector<detail::Ticket>& out) {
  MutexLock lk(mutex_);
  if (paused_ && !closed_) return;
  drain_locked(out);
}

bool AdmissionQueue::try_take_token() {
  MutexLock lk(mutex_);
  if (closed_ || paused_ || holder_ != Holder::None || !queue_.empty()) return false;
  holder_ = Holder::Producer;
  return true;
}

void AdmissionQueue::give_token() {
  MutexLock lk(mutex_);
  BPIM_REQUIRE(holder_ == Holder::Producer, "give_token without try_take_token");
  holder_ = Holder::None;
  // The consumer waits on the token only with work queued or a close.
  if (closed_ || !queue_.empty()) not_empty_.notify_one();
}

void AdmissionQueue::drain_locked(std::vector<detail::Ticket>& out) {
  if (queue_.empty()) return;
  out.reserve(out.size() + queue_.size());
  for (auto& t : queue_) out.push_back(std::move(t));
  queue_.clear();
  not_full_.notify_all();
}

void AdmissionQueue::close() {
  {
    MutexLock lk(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool AdmissionQueue::closed() const {
  MutexLock lk(mutex_);
  return closed_;
}

void AdmissionQueue::set_paused(bool paused) {
  {
    MutexLock lk(mutex_);
    paused_ = paused;
  }
  if (!paused) not_empty_.notify_all();
}

std::size_t AdmissionQueue::depth() const {
  MutexLock lk(mutex_);
  return queue_.size();
}

std::size_t AdmissionQueue::peak_depth() const {
  MutexLock lk(mutex_);
  return peak_depth_;
}

}  // namespace bpim::serve
