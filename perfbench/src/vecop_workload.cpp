// vecop_stream: independent callers sending transient-operand element-wise
// ops -- ADD, SUB, MULT, XOR, ADD-Shift, NOT at 2/4/8/16 bits, 64 to 994
// elements -- to a 2-memory serve::MemoryPool (two engine threads per
// memory) with the default ServerConfig (coalesce window 0) and the
// adaptive policy off. Independent callers make it an open loop: one
// generator thread sends on a fixed schedule at kRate, a third of the ~4500
// ops/s the server saturates at on a quiet 4-vCPU VM, so the server stays
// below saturation when other tenants slow the host 2-3x; one collector
// thread receives. Per-request serve
// overhead, operand staging and extraction, op-program cache hits and short
// macro programs dominate; fusion, residency and the adaptive planner are
// bypassed.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "app/vector_engine.hpp"
#include "common/rng.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bpim;
using engine::OpKind;

constexpr double kRate = 1500.0;  ///< offered ops per second
constexpr std::size_t kMemories = 2;
constexpr std::size_t kThreadsPerMemory = 2;
constexpr std::array<OpKind, 6> kKinds = {OpKind::Add,  OpKind::Sub,      OpKind::Mult,
                                          OpKind::Logic, OpKind::AddShift, OpKind::Not};
constexpr std::array<unsigned, 4> kPrecisions = {2, 4, 8, 16};
/// Distinct ops per (kind, bits) class, their lengths evenly spaced over
/// [kMinElems, kMaxElems): every seed offers the same mix of work, and the
/// seed draws the operand values and the order.
constexpr std::size_t kPerClass = 32;
constexpr std::size_t kMinElems = 64, kMaxElems = 1024;
/// An untraced run is cut into open-loop slices of this length with one
/// timed rebuild of the system after each; a slice whose generator ran
/// later than kBehindUs at its p99 fell behind and is not counted.
constexpr double kSliceS = 1.0;
constexpr double kBehindUs = 5000.0;
/// Ops each replay path runs per cycle of a traced run, after
/// kReplayWarmup untimed ones.
constexpr std::size_t kReplayPerCycle = 384;
constexpr std::size_t kReplayWarmup = 64;

struct Op {
  OpKind kind = OpKind::Add;
  unsigned bits = 8;
  std::vector<std::uint64_t> a, b, expected;

  [[nodiscard]] engine::VecOp view() const {
    return engine::VecOp{kind, bits, periph::LogicFn::Xor, a, b};
  }
};

/// Scalar reference of one element.
std::uint64_t reference(OpKind kind, unsigned bits, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t mask = (1ull << bits) - 1;
  switch (kind) {
    case OpKind::Add:
      return (a + b) & mask;
    case OpKind::Sub:
      return (a - b) & mask;
    case OpKind::Mult:
      return a * b;
    case OpKind::AddShift:
      return ((a + b) << 1) & mask;
    case OpKind::Not:
      return ~a & mask;
    case OpKind::Logic:
      break;
  }
  return a ^ b;
}

std::vector<Op> generate(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  for (const OpKind kind : kKinds)
    for (const unsigned bits : kPrecisions)
      for (std::size_t j = 0; j < kPerClass; ++j) {
        Op op;
        op.kind = kind;
        op.bits = bits;
        const std::size_t n = kMinElems + j * (kMaxElems - kMinElems) / kPerClass;
        const std::uint64_t mask = (1ull << bits) - 1;
        op.a.resize(n);
        for (auto& x : op.a) x = rng.next_u64() & mask;
        if (kind != OpKind::Not) {
          op.b.resize(n);
          for (auto& x : op.b) x = rng.next_u64() & mask;
        }
        op.expected.resize(n);
        for (std::size_t i = 0; i < n; ++i)
          op.expected[i] = reference(kind, bits, op.a[i], kind == OpKind::Not ? 0 : op.b[i]);
        ops.push_back(std::move(op));
      }
  for (std::size_t i = ops.size() - 1; i > 0; --i) std::swap(ops[i], ops[rng.uniform_u64(i + 1)]);
  return ops;
}

serve::MemoryPoolConfig pool_config() {
  serve::MemoryPoolConfig cfg;
  cfg.memories = kMemories;
  cfg.threads_per_memory = kThreadsPerMemory;
  return cfg;
}

/// The system under test, or a replica of it for the layer replays.
struct Live {
  serve::MemoryPool pool{pool_config()};
  serve::Server server{pool};
};

std::unique_ptr<Live> build_live(const std::vector<Op>& ops) {
  auto live = std::make_unique<Live>();
  // Warm-up: one pass compiles every op program the stream will use.
  for (const Op& op : ops) (void)live->server.submit(op.view()).get();
  return live;
}

struct Sample {
  OpenLoopSample t;  ///< microseconds since the window started
  double submit_us = 0.0;  ///< inside Server::submit
  std::uint64_t insts = 0;
  bool ok = false;
  bool thrown = false;
};

struct Window {
  std::vector<Sample> samples;
  double wall_s = 0.0;  ///< window start to the last result
  std::size_t next = 0;
};

/// Open loop: ops `first`, `first`+1, ... due every 1/kRate seconds for
/// `secs`; the generator sends, the collector receives.
Window open_loop(Live& live, const std::vector<Op>& ops, std::size_t first, double secs,
                 SpanLog& spans) {
  struct InFlight {
    std::size_t n = 0;
    Clock::time_point due, sent, submitted;
    std::optional<std::future<engine::OpResult>> fut;
  };
  const auto count = static_cast<std::size_t>(kRate * secs);
  std::mutex mu;
  std::condition_variable sent_cv;
  std::vector<InFlight> queue;  ///< sent, not yet seen by the collector
  bool closed = false;

  Window win;
  win.samples.resize(count);
  win.next = first + count;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  Clock::time_point last_ready = start;

  std::thread generator([&] {
    for (std::size_t n = 0; n < count; ++n) {
      InFlight f;
      f.n = n;
      f.due = start + seconds(static_cast<double>(n) / kRate);
      // A plain sleep: spinning for a sharper send would take a core from
      // the server on a small host. The timer's lateness is charged to the
      // request, which is timed from its due time.
      std::this_thread::sleep_until(f.due);
      f.sent = Clock::now();
      try {
        f.fut = live.server.submit(ops[(first + n) % ops.size()].view());
      } catch (const std::exception&) {
      }
      f.submitted = Clock::now();
      {
        std::lock_guard lk(mu);
        queue.push_back(std::move(f));
      }
      sent_cv.notify_one();
    }
    {
      std::lock_guard lk(mu);
      closed = true;
    }
    sent_cv.notify_one();
  });
  // The collector sleeps until the oldest request in flight is ready, then
  // settles every ready one, so results that overtake it are timed on the
  // same wake-up rather than behind it. It never spins: on a small host a
  // polling client takes cores from the server it measures, which slows
  // service, keeps more requests in flight and so polls more.
  std::thread collector([&] {
    std::vector<InFlight> pending;
    for (;;) {
      bool done = false;
      {
        std::unique_lock lk(mu);
        while (pending.empty() && queue.empty() && !closed) sent_cv.wait(lk);
        for (auto& f : queue) pending.push_back(std::move(f));
        queue.clear();
        done = closed;
      }
      if (done && pending.empty()) return;
      if (pending.front().fut) pending.front().fut->wait();  // the oldest
      for (auto it = pending.begin(); it != pending.end();) {
        InFlight& f = *it;
        if (f.fut && f.fut->wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++it;
          continue;
        }
        const auto ready = Clock::now();
        last_ready = std::max(last_ready, ready);
        Sample& s = win.samples[f.n];
        try {
          if (!f.fut) throw std::runtime_error("not admitted");
          const engine::OpResult res = f.fut->get();
          s.insts = res.stats.instructions;
          s.ok = res.values == ops[(first + f.n) % ops.size()].expected;
        } catch (const std::exception&) {
          s.thrown = true;
        }
        s.t = {us_between(start, f.due), us_between(start, f.sent), us_between(start, ready)};
        s.submit_us = us_between(f.sent, f.submitted);
        spans.add("serve.submit", first + f.n, f.sent, f.submitted, 1);
        spans.add("serve.request", first + f.n, f.sent, ready, 2);
        it = pending.erase(it);
      }
    }
  });
  generator.join();
  collector.join();
  win.wall_s = s_between(start, last_ready);
  return win;
}

void append(Window& into, const Window& w) {
  into.samples.insert(into.samples.end(), w.samples.begin(), w.samples.end());
  into.wall_s += w.wall_s;
}

std::vector<const Sample*> all_samples(const Window& win) {
  std::vector<const Sample*> v;
  for (const Sample& s : win.samples) v.push_back(&s);
  return v;
}

std::vector<double> field(const std::vector<const Sample*>& ss, double (*f)(const Sample&)) {
  std::vector<double> v;
  v.reserve(ss.size());
  for (const Sample* s : ss) v.push_back(f(*s));
  return v;
}

/// The slices host-time figures are read from: those in which the
/// generator kept schedule, or every slice, with a note, if none did.
std::vector<const Window*> counted(const std::vector<Window>& slices, Report& report) {
  std::vector<const Window*> kept;
  for (const Window& w : slices)
    if (tail(field(all_samples(w), [](const Sample& s) { return s.t.late(); })).value <= kBehindUs)
      kept.push_back(&w);
  char buf[160];
  std::snprintf(buf, sizeof buf, "generator fell behind in %zu of %zu slices of %.1f s%s",
                slices.size() - kept.size(), slices.size(), kSliceS,
                kept.empty() ? " (all counted: no slice kept schedule)" : "");
  report.note(buf);
  if (kept.empty())
    for (const Window& w : slices) kept.push_back(&w);
  return kept;
}

/// The op through the app layer's vector route on a server.
std::vector<std::uint64_t> through_app(serve::Server& server, const Op& op) {
  app::VectorEngine ve(server, op.bits);
  switch (op.kind) {
    case OpKind::Add:
      return ve.add(op.a, op.b);
    case OpKind::Sub:
      return ve.sub(op.a, op.b);
    case OpKind::Mult:
      return ve.mult(op.a, op.b);
    case OpKind::AddShift:
      return ve.add_shift(op.a, op.b);
    case OpKind::Not:
      return ve.bit_not(op.a);
    case OpKind::Logic:
      break;
  }
  return ve.logic(periph::LogicFn::Xor, op.a, op.b);
}

/// Every engine of the pool; read after a window has drained.
EngineCounters engine_counters(const serve::MemoryPool& pool) {
  std::vector<const engine::ExecutionEngine*> engines;
  for (std::size_t m = 0; m < pool.size(); ++m) engines.push_back(&pool.engine(m));
  return EngineCounters::of(engines);
}

}  // namespace

void run_vecop(const Options& opt, Report& report, SpanLog& spans) {
  const std::vector<Op> ops = generate(opt.seed);

  std::vector<double> setup_s;
  const auto t_setup = Clock::now();
  std::unique_ptr<Live> live = build_live(ops);
  setup_s.push_back(s_between(t_setup, Clock::now()));
  note_table2_accuracy(report);
  std::vector<OpClass> classes;
  for (const OpKind kind : kKinds)
    for (const unsigned bits : kPrecisions) classes.push_back({kind, bits});

  const auto record = [&report](const Window& win) {
    for (const Sample& s : win.samples) report.request(s.ok);
  };
  const auto insts_of = [](const Window& win) {
    double n = 0;
    for (const Sample& s : win.samples) n += static_cast<double>(s.insts);
    return n;
  };

  if (!opt.trace) {
    const auto c0 = ServeCounters::of(live->server.stats());
    std::vector<Window> slices;
    double rss_mb = 0.0;  // before the first rebuild: see peak_rss_mb()
    std::size_t next = 0;
    const int n_slices = std::max(1, static_cast<int>(std::lround(opt.seconds / kSliceS)));
    for (int k = 0; k < n_slices; ++k) {
      slices.push_back(open_loop(*live, ops, next, kSliceS, spans));
      next = slices.back().next;
      record(slices.back());
      if (k == 0) rss_mb = peak_rss_mb();
      setup_s.push_back(time_setup([&] { return build_live(ops); }));
    }
    const ServeCounters c = ServeCounters::of(live->server.stats()) - c0;
    (void)MacroProbe(classes, report);
    const std::vector<const Window*> kept = counted(slices, report);
    std::vector<const Sample*> samples;
    std::vector<double> tails;
    double wall_s = 0.0;
    for (const Window* w : kept) {
      const auto ss = all_samples(*w);
      samples.insert(samples.end(), ss.begin(), ss.end());
      tails.push_back(tail(field(ss, [](const Sample& s) { return s.t.latency(); })).value);
      wall_s += w->wall_s;
    }
    const auto lat = field(samples, [](const Sample& s) { return s.t.latency(); });
    const auto ns_per_inst = field(samples, [](const Sample& s) {
      return s.insts == 0 ? 0.0 : 1e3 * s.t.round_trip() / static_cast<double>(s.insts);
    });
    char buf[256];
    std::snprintf(buf, sizeof buf, "open loop at %.0f ops/s: %zu ops in %d slices", kRate,
                  next, n_slices);
    report.note(buf);
    std::snprintf(buf, sizeof buf, "median over %zu counted slices of each slice's p99 of ~%zu",
                  kept.size(), kept.front()->samples.size());
    note_tail(report, median(tails), buf);
    report.note("failed_frac " + std::to_string(ratio(report.failed(), report.attempted())) +
                " fraction (failed / attempted)");
    report.metric("throughput_rps", ratio(static_cast<double>(samples.size()), wall_s), "1/s");
    report.metric("latency_p50_us", median(lat), "us");
    report.metric("host_ns_per_inst", median(ns_per_inst), "ns");
    report.metric("modeled_cycles_per_req", ratio(c.makespan, c.completed), "cycles");
    report.metric("modeled_pj_per_req", ratio(c.energy_pj, c.completed), "pJ");
    report_setup(report, setup_s, 1);
    report.metric("peak_rss_mb", rss_mb, "MB");
    return;
  }

  // Traced run: cycles of an untraced live slice, a traced live slice, the
  // same kReplayPerCycle ops replayed through the app route and as raw
  // submits on a replica server, then through ExecutionEngine::run on a
  // bare engine (warmed like the server), and the macro probe -- so every
  // figure compared below was taken under the same host conditions.
  auto replica = build_live(ops);
  macro::ImcMemory mem;
  engine::ExecutionEngine eng(mem, engine::EngineConfig{kThreadsPerMemory});
  for (const Op& op : ops) (void)eng.run(op.view());
  MacroProbe probe(classes, report);
  Window plain, traced;
  std::vector<double> app_us, raw_us, run_us;
  std::size_t next = 0, replayed = 0;
  // Each path first repeats the kReplayWarmup ops before the cycle's block,
  // untimed, so every path is measured with its memory warm in cache.
  const auto replay = [&](const char* name, int track, std::vector<double>& out,
                          const auto& run) {
    for (std::size_t i = replayed + ops.size() - kReplayWarmup;
         i < replayed + ops.size() + kReplayPerCycle; ++i) {
      const Op& op = ops[i % ops.size()];
      bool ok = false;
      const auto t0 = Clock::now();
      try {
        ok = run(op) == op.expected;
      } catch (const std::exception&) {
      }
      const auto t1 = Clock::now();
      spans.add(name, (1ull << 32) + i, t0, t1, track);  // apart from live request ids
      if (i >= replayed + ops.size()) out.push_back(us_between(t0, t1));
      report.request(ok);
    }
  };
  const auto c0 = ServeCounters::of(live->server.stats());
  const auto e0 = engine_counters(live->pool);
  for (int cycle = 0; cycle < std::max(1, static_cast<int>(opt.seconds)); ++cycle) {
    // The first slice of a cycle starts with a cold cache, so the traced and
    // untraced slices take turns going first.
    for (const bool on : {cycle % 2 == 1, cycle % 2 == 0}) {
      spans.enable(on);
      const Window slice = open_loop(*live, ops, next, 0.25, spans);
      next = slice.next;
      append(on ? traced : plain, slice);
    }
    spans.enable(true);

    replay("app.vector_op", 3, app_us,
           [&](const Op& op) { return through_app(replica->server, op); });
    replay("serve.replay_request", 4, raw_us,
           [&](const Op& op) { return replica->server.submit(op.view()).get().values; });
    replay("engine.run", 5, run_us, [&](const Op& op) { return eng.run(op.view()).values; });
    replayed += kReplayPerCycle;
    probe.run(0.2, spans);
  }
  const ServeCounters c = ServeCounters::of(live->server.stats()) - c0;
  const EngineCounters e = engine_counters(live->pool) - e0;
  record(plain);
  record(traced);
  const double ns_per_inst = probe.ns_per_inst();

  const double completed = c.completed;
  const auto traced_all = all_samples(traced);
  const double rtt_us = mean(field(traced_all, [](const Sample& x) { return x.t.round_trip(); }));
  const double lat_us = mean(field(traced_all, [](const Sample& x) { return x.t.latency(); }));
  const double plain_lat_us =
      mean(field(all_samples(plain), [](const Sample& x) { return x.t.latency(); }));
  const double engine_us = mean(run_us);
  const double insts_per_req = ratio(insts_of(plain) + insts_of(traced), completed);
  const double macro_us = 1e-3 * ns_per_inst * insts_per_req;
  const double serve_self = rtt_us - engine_us;
  std::vector<double> late =
      field(all_samples(plain), [](const Sample& x) { return x.t.late(); });
  for (const Sample* x : traced_all) late.push_back(x->t.late());
  double thrown = 0;
  for (const Window* w : {&plain, &traced})
    for (const Sample& x : w->samples) thrown += x.thrown ? 1 : 0;

  report.metric("app.forward_us", mean(app_us), "us");
  report.metric("app.self_us", mean(app_us) - mean(raw_us), "us");
  report.metric("serve.submit_us", mean(field(traced_all, [](const Sample& x) {
                  return x.submit_us;
                })),
                "us");
  report.metric("serve.rtt_us", rtt_us, "us");
  report.metric("serve.self_us", serve_self, "us");
  report.metric("engine.run_us", engine_us, "us");
  report_counters(report, c, e, completed, thrown);
  report.metric("macro.ns_per_inst", ns_per_inst, "ns");
  report.metric("macro.insts_per_req", insts_per_req, "count");
  report.metric("macro.fused_cycles_saved_per_req", ratio(c.fused_saved, completed), "cycles");
  report.metric("macro.adaptive_cycles_saved_per_req", ratio(c.adaptive_saved, completed),
                "cycles");
  report.metric("loadgen.late_p99_us", tail(late).value, "us");
  report.metric("trace.overhead_frac", ratio(lat_us - plain_lat_us, plain_lat_us), "fraction");
  // Layer self times measured on their own -- serve on the replica server
  // (raw round trip - bare run), engine (bare run - macro), macro from the
  // probe -- sum to the replica's raw round trip. What they leave of the
  // live due-time latency is unattributed: generator lateness, queueing
  // behind other requests, the collector's wake-up.
  const double attributed = (mean(raw_us) - engine_us) + (engine_us - macro_us) + macro_us;
  report.metric("trace.unattributed_frac", ratio(lat_us - attributed, lat_us), "fraction");
}

}  // namespace perfbench
