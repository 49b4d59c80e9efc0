#pragma once
// Low-overhead tracing: spans and instant events on per-thread lock-free
// rings, exported as Chrome/Perfetto trace-event JSON (open the file at
// ui.perfetto.dev).
//
// Design constraints, in order:
//   1. Disabled cost ~ one relaxed atomic load + branch per site. The
//      macros additionally compile out entirely under -DBPIM_OBS_ENABLED=0
//      (CMake option BPIM_OBS=OFF), leaving zero code at every site.
//   2. Enabled cost is one bounded SPSC ring write: each thread owns its
//      ring (single producer), export is the single consumer, so recording
//      never takes a lock and never allocates. A full ring drops the event
//      and counts it (TraceSession::dropped()) instead of blocking or
//      overwriting a slot the exporter may be reading.
//   3. Event names and arg keys must be string literals (or otherwise
//      outlive the session) -- the ring stores the pointers.
//
// Tracks: every thread gets its own timeline row automatically. Work that
// migrates across host threads (a lane whose batches run on pool workers,
// an engine shared by callers) records onto a *synthetic* track instead:
// `register_track("lane 0")` returns a TrackId, and any thread may stamp
// events onto it. Cross-track request lineage uses async begin/end pairs
// (one "request" bar per in-flight request) plus flow arrows
// (submit -> executing batch).
//
// Timestamps are steady-clock nanoseconds from one session epoch;
// the exporter converts to the microseconds Perfetto expects.

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

#ifndef BPIM_OBS_ENABLED
#define BPIM_OBS_ENABLED 1
#endif

namespace bpim::obs {

/// Timeline row an event lands on. 0 = the recording thread's own row;
/// values from TraceSession::register_track() name shared synthetic rows.
using TrackId = std::uint32_t;

/// Up to kMax numeric key/value annotations on one event. Keys must be
/// string literals (stored by pointer). Extra adds beyond kMax are dropped.
struct EventArgs {
  static constexpr int kMax = 4;
  struct KV {
    const char* key = nullptr;
    double value = 0.0;
  };

  EventArgs() = default;
  EventArgs(std::initializer_list<KV> list) {
    for (const KV& kv : list) add(kv.key, kv.value);
  }

  void add(const char* key, double value) {
    if (count < kMax) kv[count++] = {key, value};
  }

  KV kv[kMax];
  int count = 0;
};

enum class EventType : std::uint8_t {
  Complete,     ///< span: [begin_ns, end_ns] bar ("X")
  Instant,      ///< point-in-time marker ("i")
  AsyncBegin,   ///< start of an id-keyed async bar ("b")
  AsyncEnd,     ///< end of an id-keyed async bar ("e")
  FlowStart,    ///< arrow tail, binds to the enclosing span ("s")
  FlowFinish,   ///< arrow head ("f")
};

/// One fixed-size ring slot. POD on purpose: recording is a struct copy.
struct Event {
  EventType type = EventType::Instant;
  TrackId track = 0;
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;  ///< Complete only
  std::uint64_t id = 0;      ///< async / flow correlation key
  EventArgs args;
};

/// The process-wide trace collector. All recording goes through
/// TraceSession::global(); separate instances exist only for tests.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  static TraceSession& global();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Per-macro-program events are high volume; off unless a bench asks.
  void set_macro_events(bool on) { macro_events_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool macro_events_on() const {
    return enabled() && macro_events_.load(std::memory_order_relaxed);
  }

  /// Create a named synthetic timeline row (e.g. "lane 0", "engine 1").
  /// Any thread may then record events onto the returned id.
  [[nodiscard]] TrackId register_track(std::string name) BPIM_EXCLUDES(mutex_);

  /// Name the calling thread's own row in the exported timeline. Applied
  /// when the thread records its first event; a thread that never records
  /// registers no ring.
  void set_thread_name(std::string name) BPIM_EXCLUDES(mutex_);

  /// Nanoseconds since the session epoch (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  // ---- recording (no-ops while disabled) --------------------------------
  void complete_event(const char* name, TrackId track, std::uint64_t begin_ns,
                      std::uint64_t end_ns, const EventArgs& args = {})
      BPIM_EXCLUDES(mutex_);
  void instant(const char* name, TrackId track = 0, const EventArgs& args = {})
      BPIM_EXCLUDES(mutex_);
  void async_begin(const char* name, std::uint64_t id, const EventArgs& args = {})
      BPIM_EXCLUDES(mutex_);
  void async_end(const char* name, std::uint64_t id, const EventArgs& args = {})
      BPIM_EXCLUDES(mutex_);
  void flow_start(const char* name, std::uint64_t id, TrackId track = 0)
      BPIM_EXCLUDES(mutex_);
  void flow_finish(const char* name, std::uint64_t id, TrackId track = 0)
      BPIM_EXCLUDES(mutex_);

  // ---- export -----------------------------------------------------------
  /// Drain every ring into Chrome trace-event JSON. Consumes the drained
  /// events (a second export only sees what was recorded since); track and
  /// thread metadata is re-emitted every time so each export stands alone.
  void export_json(std::ostream& out) BPIM_EXCLUDES(mutex_);
  /// export_json to a file; false when the file cannot be written.
  bool export_file(const std::string& path) BPIM_EXCLUDES(mutex_);

  /// Events lost to full rings since construction.
  [[nodiscard]] std::uint64_t dropped() const BPIM_EXCLUDES(mutex_);
  /// Threads that have registered a ring (recorded at least one event).
  [[nodiscard]] std::size_t thread_count() const BPIM_EXCLUDES(mutex_);

 private:
  struct Ring;
  struct ThreadRow;

  ThreadRow& thread_row();
  Ring& local_ring() BPIM_EXCLUDES(mutex_);
  void emit(const Event& ev) BPIM_EXCLUDES(mutex_);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> macro_events_{false};
  const std::uint64_t epoch_ns_;

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_ BPIM_GUARDED_BY(mutex_);
  std::vector<std::string> track_names_ BPIM_GUARDED_BY(mutex_);
  std::uint32_t next_tid_ BPIM_GUARDED_BY(mutex_) = 2;  ///< 1 is reserved (pid row)
};

/// RAII span on the global session: the constructor samples the clock, the
/// destructor records one Complete event covering the scope. All work is
/// skipped when tracing is disabled at construction time.
class Span {
 public:
  explicit Span(const char* name, TrackId track = 0)
      : session_(TraceSession::global()) {
    if (session_.enabled()) {
      name_ = name;
      track_ = track;
      begin_ns_ = session_.now_ns();
    }
  }
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a numeric annotation (no-op when the span is inert).
  void arg(const char* key, double value) {
    if (name_ != nullptr) args_.add(key, value);
  }

  /// Close the span early (idempotent; the destructor then does nothing).
  void finish() {
    if (name_ == nullptr) return;
    session_.complete_event(name_, track_, begin_ns_, session_.now_ns(), args_);
    name_ = nullptr;
  }

 private:
  TraceSession& session_;
  const char* name_ = nullptr;
  TrackId track_ = 0;
  std::uint64_t begin_ns_ = 0;
  EventArgs args_;
};

/// Compile-out stand-in for Span under BPIM_OBS_ENABLED=0.
struct NullSpan {
  explicit NullSpan(const char*, TrackId = 0) {}
  void arg(const char*, double) {}
  void finish() {}
};

}  // namespace bpim::obs

// Instrumentation macros. `var` names the span variable so call sites can
// attach args / finish early. All of them vanish under BPIM_OBS_ENABLED=0.
#if BPIM_OBS_ENABLED
#define BPIM_TRACE_SPAN(var, ...) ::bpim::obs::Span var{__VA_ARGS__}
#define BPIM_TRACE_INSTANT(...)                                   \
  do {                                                            \
    auto& bpim_obs_s = ::bpim::obs::TraceSession::global();       \
    if (bpim_obs_s.enabled()) bpim_obs_s.instant(__VA_ARGS__);    \
  } while (0)
/// For blocks of direct TraceSession calls (async/flow events): constant
/// false when compiled out, so the guarded block folds away entirely.
#define BPIM_TRACE_ON() (::bpim::obs::TraceSession::global().enabled())
#else
#define BPIM_TRACE_SPAN(var, ...) ::bpim::obs::NullSpan var{__VA_ARGS__}
#define BPIM_TRACE_INSTANT(...) ((void)0)
#define BPIM_TRACE_ON() false
#endif
