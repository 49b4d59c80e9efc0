#include "obs/trace.hpp"

#include <chrono>
#include <fstream>
#include <ostream>

#include "common/json_writer.hpp"

namespace bpim::obs {

namespace {

/// Synthetic tracks export as tids in their own range so they can never
/// collide with real per-thread rows (which start at 2 and grow by one per
/// thread -- this process has tens of threads, not a thousand).
constexpr TrackId kSyntheticBase = 1000;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One thread's event ring. SPSC: the owning thread is the only writer
/// (head), export -- serialized by the session mutex -- the only reader
/// (tail). The slot payload is published by the release store of head and
/// reclaimed by the release store of tail, so neither side ever touches a
/// slot the other may be accessing; a full ring drops instead of wrapping.
struct TraceSession::Ring {
  static constexpr std::size_t kCapacity = std::size_t{1} << 13;
  static_assert((kCapacity & (kCapacity - 1)) == 0, "mask arithmetic below");

  std::vector<Event> slots{kCapacity};
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint32_t tid = 0;      ///< exported thread row; fixed at registration
  std::string name;           ///< row label; guarded by the session mutex

  void push(const Event& ev) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    const std::uint64_t t = tail.load(std::memory_order_acquire);
    if (h - t >= kCapacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots[h & (kCapacity - 1)] = ev;
    head.store(h + 1, std::memory_order_release);
  }
};

TraceSession::TraceSession() : epoch_ns_(steady_ns()) {}
TraceSession::~TraceSession() = default;

TraceSession& TraceSession::global() {
  static TraceSession session;
  return session;
}

std::uint64_t TraceSession::now_ns() const { return steady_ns() - epoch_ns_; }

/// The calling thread's ring in one session, and the row name it was given
/// before its first event. Cached per thread *per session*: a thread that
/// alternates between two sessions starts over (a fresh ring) on each
/// switch -- benign, and only test code ever holds more than the global
/// session.
struct TraceSession::ThreadRow {
  TraceSession* owner = nullptr;
  Ring* ring = nullptr;
  std::string name;
};

TraceSession::ThreadRow& TraceSession::thread_row() {
  thread_local ThreadRow row;
  if (row.owner != this) row = ThreadRow{this, nullptr, {}};
  return row;
}

TraceSession::Ring& TraceSession::local_ring() {
  ThreadRow& row = thread_row();
  if (row.ring == nullptr) {
    MutexLock lk(mutex_);
    auto ring = std::make_unique<Ring>();
    ring->tid = next_tid_++;
    ring->name = row.name.empty() ? "thread " + std::to_string(ring->tid) : std::move(row.name);
    row.ring = ring.get();
    rings_.push_back(std::move(ring));
  }
  return *row.ring;
}

void TraceSession::emit(const Event& ev) {
  if (!enabled()) return;
  local_ring().push(ev);
}

TrackId TraceSession::register_track(std::string name) {
  MutexLock lk(mutex_);
  track_names_.push_back(std::move(name));
  return kSyntheticBase + static_cast<TrackId>(track_names_.size() - 1);
}

void TraceSession::set_thread_name(std::string name) {
  // A thread without a ring keeps the name until its first event registers
  // one, so naming a thread that never records allocates nothing.
  ThreadRow& row = thread_row();
  if (row.ring == nullptr) {
    row.name = std::move(name);
    return;
  }
  MutexLock lk(mutex_);
  row.ring->name = std::move(name);
}

std::size_t TraceSession::thread_count() const {
  MutexLock lk(mutex_);
  return rings_.size();
}

void TraceSession::complete_event(const char* name, TrackId track,
                                  std::uint64_t begin_ns, std::uint64_t end_ns,
                                  const EventArgs& args) {
  Event ev;
  ev.type = EventType::Complete;
  ev.track = track;
  ev.name = name;
  ev.begin_ns = begin_ns;
  ev.end_ns = end_ns;
  ev.args = args;
  emit(ev);
}

void TraceSession::instant(const char* name, TrackId track, const EventArgs& args) {
  Event ev;
  ev.type = EventType::Instant;
  ev.track = track;
  ev.name = name;
  ev.begin_ns = now_ns();
  ev.args = args;
  emit(ev);
}

void TraceSession::async_begin(const char* name, std::uint64_t id,
                               const EventArgs& args) {
  Event ev;
  ev.type = EventType::AsyncBegin;
  ev.name = name;
  ev.begin_ns = now_ns();
  ev.id = id;
  ev.args = args;
  emit(ev);
}

void TraceSession::async_end(const char* name, std::uint64_t id,
                             const EventArgs& args) {
  Event ev;
  ev.type = EventType::AsyncEnd;
  ev.name = name;
  ev.begin_ns = now_ns();
  ev.id = id;
  ev.args = args;
  emit(ev);
}

void TraceSession::flow_start(const char* name, std::uint64_t id, TrackId track) {
  Event ev;
  ev.type = EventType::FlowStart;
  ev.track = track;
  ev.name = name;
  ev.begin_ns = now_ns();
  ev.id = id;
  emit(ev);
}

void TraceSession::flow_finish(const char* name, std::uint64_t id, TrackId track) {
  Event ev;
  ev.type = EventType::FlowFinish;
  ev.track = track;
  ev.name = name;
  ev.begin_ns = now_ns();
  ev.id = id;
  emit(ev);
}

std::uint64_t TraceSession::dropped() const {
  MutexLock lk(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_)
    total += ring->dropped.load(std::memory_order_relaxed);
  return total;
}

namespace {

/// Microseconds for the exporter: Perfetto's JSON ts/dur unit.
double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

void write_args(JsonWriter& w, const EventArgs& args) {
  w.key("args");
  w.begin_object();
  for (int i = 0; i < args.count; ++i) w.field(args.kv[i].key, args.kv[i].value);
  w.end_object();
}

void write_metadata(JsonWriter& w, const char* what, std::uint32_t tid,
                    const std::string& name) {
  w.begin_object();
  w.field("ph", "M");
  w.field("name", what);
  w.field("pid", 1);
  w.field("tid", tid);
  w.key("args");
  w.begin_object();
  w.field("name", name);
  w.end_object();
  w.end_object();
}

void write_event(JsonWriter& w, const Event& ev, std::uint32_t owner_tid) {
  const std::uint32_t tid = ev.track == 0 ? owner_tid : ev.track;
  w.begin_object();
  w.field("name", ev.name);
  w.field("cat", "bpim");
  w.field("pid", 1);
  w.field("tid", tid);
  w.field("ts", to_us(ev.begin_ns));
  switch (ev.type) {
    case EventType::Complete:
      w.field("ph", "X");
      w.field("dur", to_us(ev.end_ns - ev.begin_ns));
      write_args(w, ev.args);
      break;
    case EventType::Instant:
      w.field("ph", "i");
      w.field("s", "t");  // thread-scoped tick mark
      write_args(w, ev.args);
      break;
    case EventType::AsyncBegin:
    case EventType::AsyncEnd:
      w.field("ph", ev.type == EventType::AsyncBegin ? "b" : "e");
      w.field("id", ev.id);
      write_args(w, ev.args);
      break;
    case EventType::FlowStart:
      w.field("ph", "s");
      w.field("id", ev.id);
      break;
    case EventType::FlowFinish:
      w.field("ph", "f");
      w.field("bp", "e");  // bind to the enclosing slice
      w.field("id", ev.id);
      break;
  }
  w.end_object();
}

}  // namespace

void TraceSession::export_json(std::ostream& out) {
  // ts/dur carry 3 decimals of a microsecond -> full nanosecond resolution.
  JsonWriter w(out, 3);
  MutexLock lk(mutex_);
  w.begin_object();
  w.field("displayTimeUnit", "ns");
  w.key("traceEvents");
  w.begin_array();
  write_metadata(w, "process_name", 1, "bpim");
  for (std::size_t i = 0; i < track_names_.size(); ++i)
    write_metadata(w, "thread_name", kSyntheticBase + static_cast<TrackId>(i),
                   track_names_[i]);
  for (const auto& ring : rings_) {
    write_metadata(w, "thread_name", ring->tid, ring->name);
    const std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    for (std::uint64_t s = tail; s != head; ++s)
      write_event(w, ring->slots[s & (Ring::kCapacity - 1)], ring->tid);
    ring->tail.store(head, std::memory_order_release);
  }
  w.end_array();
  w.end_object();
}

bool TraceSession::export_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  export_json(out);
  return out.good();
}

}  // namespace bpim::obs
