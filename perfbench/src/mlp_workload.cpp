// mlp_infer / mlp_multi_tenant: one closed-loop client runs a 256-32-16-10
// MLP at 8/4/2-bit per layer through app::Mlp on a serve::Server over one
// paper-sized 128 KB memory (one engine thread), adaptive policy on.
// mlp_infer serves one tenant whose pinned set fits the array (58 of 64 row
// pairs), so every forward stays fused and resident; mlp_multi_tenant
// round-robins three tenants whose pinned sets together need ~2.7x the
// array, so the same residency and fused-program caches miss and rewrite
// rows instead.
//
// Mlp::forward hides the three submit_forward round trips it makes, so the
// traced run replays the same layer requests -- same quantized weights
// pinned in the app layer's order, same layer inputs -- on a replica server
// (serve.*) and on a bare engine (engine.*), and redoes the app layer's host
// work around each (quantize, accumulate, dequantize, ReLU) with the public
// app::quantize, timed on its own. The bare-engine replica also
// supplies the executed instruction count per forward, which no public
// stats expose on the serving route.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "app/mlp.hpp"
#include "app/nn.hpp"
#include "common/rng.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bpim;

constexpr std::array<std::size_t, 4> kSizes = {256, 32, 16, 10};
constexpr std::array<unsigned, 3> kBits = {8, 4, 2};
constexpr std::size_t kLayers = kBits.size();
/// Distinct requests; the measured stream cycles through them, and the
/// modeled pass runs exactly one period so its figures repeat exactly.
constexpr std::size_t kPeriod = 96;
constexpr std::size_t kInputs = 32;
/// ReLU-style inputs: exactly this many zeros, the rest skewed small.
constexpr std::size_t kZeroInputs = 128;
/// An untraced run is cut into slices of this length with timed rebuilds
/// of the system after each, so setup_s samples the host all through the
/// run.
constexpr double kSliceS = 1.0;
constexpr int kRebuildsPerSlice = 4;
/// Forwards each replica replays per cycle of a traced run, after
/// kReplayWarmup untimed ones.
constexpr std::size_t kReplayPerCycle = 16;
constexpr std::size_t kReplayWarmup = 4;

/// Each layer's real-valued input in one forward.
using LayerInputs = std::array<std::vector<double>, kLayers>;
using Handles = std::array<std::vector<engine::ResidentOperand>, kLayers>;
using QWeights = std::array<std::vector<app::Quantized>, kLayers>;

struct Request {
  std::size_t tenant = 0;
  std::size_t input = 0;
};

/// Everything generated from the seed, plus what the serial reference
/// engine computed from it at setup.
struct Workload {
  std::vector<std::vector<app::MlpLayerSpec>> tenants;
  std::vector<QWeights> qweights;  ///< per tenant, as app::quantize codes them
  std::vector<std::vector<double>> inputs;
  std::vector<Request> seq;  ///< one period
  std::vector<std::vector<double>> expected;  ///< per seq entry
  std::vector<LayerInputs> layer_in;          ///< per seq entry
  std::vector<LayerInputs> warm_in;           ///< per tenant: the warm-up forward's
};

Workload generate(std::uint64_t seed, std::size_t tenants) {
  Workload w;
  Rng rng(seed);
  for (std::size_t t = 0; t < tenants; ++t) {
    std::vector<app::MlpLayerSpec> specs;
    QWeights q;
    for (std::size_t l = 0; l < kLayers; ++l) {
      app::MlpLayerSpec spec;
      spec.bits = kBits[l];
      spec.weights.assign(kSizes[l + 1], std::vector<double>(kSizes[l]));
      for (auto& row : spec.weights) {
        for (auto& v : row) v = rng.uniform();
        q[l].push_back(app::quantize(row, spec.bits));
      }
      specs.push_back(std::move(spec));
    }
    w.tenants.push_back(std::move(specs));
    w.qweights.push_back(std::move(q));
  }
  for (std::size_t k = 0; k < kInputs; ++k) {
    std::vector<double> x(kSizes[0], 0.0);
    for (std::size_t i = kZeroInputs; i < x.size(); ++i) {
      const double u = rng.uniform();
      x[i] = u * u * u;
    }
    for (std::size_t i = x.size() - 1; i > 0; --i)
      std::swap(x[i], x[rng.uniform_u64(i + 1)]);
    w.inputs.push_back(std::move(x));
  }
  // Round-robin in one seeded order, the same in every round, so every seed
  // makes the same residency traffic: an order that repeated a tenant
  // across a round boundary would hit where other seeds miss.
  std::vector<std::size_t> order(tenants);
  for (std::size_t t = 0; t < tenants; ++t) order[t] = t;
  for (std::size_t t = tenants - 1; t > 0; --t) std::swap(order[t], order[rng.uniform_u64(t + 1)]);
  for (std::size_t i = 0; i < kPeriod; ++i) w.seq.push_back({order[i % tenants], i % kInputs});
  return w;
}

/// Outputs of every request on a serial, single-memory, unpinned engine --
/// the documented serving contract every route must match bit for bit.
void compute_reference(Workload& w) {
  macro::ImcMemory mem;
  engine::ExecutionEngine eng(mem, engine::EngineConfig{1});
  std::vector<std::vector<app::QuantizedLinear>> nets(w.tenants.size());
  for (std::size_t t = 0; t < w.tenants.size(); ++t)
    for (const auto& spec : w.tenants[t]) nets[t].emplace_back(spec.weights, spec.bits);
  const auto run = [&](std::size_t t, std::vector<double> x, LayerInputs& in) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      in[l] = x;
      x = nets[t][l].forward(eng, x);
    }
    return x;
  };
  for (const Request& rq : w.seq) {
    LayerInputs in;
    w.expected.push_back(run(rq.tenant, w.inputs[rq.input], in));
    w.layer_in.push_back(std::move(in));
  }
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    LayerInputs in;
    (void)run(t, w.inputs[0], in);
    w.warm_in.push_back(std::move(in));
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One engine thread. With four, each forward waits on worker wake-ups,
/// and on a shared VM those wake-ups set its time: over six seeds, p50
/// spread 36% with four threads, 17% with two and 8% with one.
const engine::EngineConfig kEngine{1};

/// The system under test: every tenant pinned through app::Mlp.
struct Live {
  macro::ImcMemory mem;
  engine::ExecutionEngine eng{mem, kEngine};
  serve::Server server{eng};
  std::vector<app::Mlp> nets;
};

std::unique_ptr<Live> build_live(const Workload& w) {
  auto live = std::make_unique<Live>();
  live->server.set_adaptive_policy(macro::AdaptivePolicy{true, true});
  for (const auto& specs : w.tenants) live->nets.emplace_back(specs, live->server);
  // Warm-up: materialize each tenant's weights and compile its programs.
  for (auto& net : live->nets) (void)net.forward(live->server, w.inputs[0]);
  return live;
}

/// The benchmark's copy of the tenants' weights, pinned in the app layer's
/// order (tenant, layer, neuron) on its own memory -- through a server, or
/// on the bare engine -- so Mlp::forward's layer requests can be replayed.
struct Replica {
  macro::ImcMemory mem;
  engine::ExecutionEngine eng{mem, kEngine};
  std::optional<serve::Server> server;
  std::vector<Handles> handles;

  Replica(const Workload& w, bool serving) {
    if (serving) server.emplace(eng);
    const macro::AdaptivePolicy on{true, true};
    if (server) server->set_adaptive_policy(on);
    else eng.set_adaptive_policy(on);
    for (const auto& q : w.qweights) {
      Handles h;
      for (std::size_t l = 0; l < kLayers; ++l)
        for (const auto& row : q[l])
          h[l].push_back(server ? server->pin(row.values, kBits[l], engine::OperandLayout::MultUnit)
                                : eng.pin(row.values, kBits[l], engine::OperandLayout::MultUnit));
      handles.push_back(std::move(h));
    }
    for (std::size_t t = 0; t < w.tenants.size(); ++t)
      for (std::size_t l = 0; l < kLayers; ++l)
        (void)layer(t, l, app::quantize(w.warm_in[t][l], kBits[l]).values, nullptr);
  }

  struct Timing {
    double submit_us = 0.0;  ///< inside submit_forward (server only)
    double call_us = 0.0;    ///< call to results in hand
  };

  std::vector<engine::OpResult> layer(std::size_t t, std::size_t l,
                                      const std::vector<std::uint64_t>& act, Timing* tm) {
    const auto t0 = Clock::now();
    if (!server) {
      auto res = eng.run_forward(handles[t][l], act);
      if (tm != nullptr) tm->call_us = us_between(t0, Clock::now());
      return res;
    }
    auto fut = server->submit_forward(handles[t][l], act);
    const auto t1 = Clock::now();
    auto res = fut.get();
    if (tm != nullptr) {
      tm->submit_us = us_between(t0, t1);
      tm->call_us = us_between(t0, Clock::now());
    }
    return res;
  }
};

/// Element-wise products of one replayed layer against its weight codes.
bool products_ok(const std::vector<engine::OpResult>& res, const std::vector<app::Quantized>& weights,
                 const std::vector<std::uint64_t>& act) {
  if (res.size() != weights.size()) return false;
  for (std::size_t j = 0; j < res.size(); ++j) {
    if (res[j].values.size() != act.size()) return false;
    for (std::size_t i = 0; i < act.size(); ++i)
      if (res[j].values[i] != weights[j].values[i] * act[i]) return false;
  }
  return true;
}

/// The app layer's host work once a layer's products return, as
/// QuantizedLinear does it: accumulate each neuron, dequantize, ReLU.
std::vector<double> dequantize(const std::vector<engine::OpResult>& res,
                               const std::vector<app::Quantized>& weights, double act_scale) {
  std::vector<double> y;
  if (res.size() != weights.size()) return y;
  y.reserve(res.size());
  for (std::size_t j = 0; j < res.size(); ++j) {
    std::uint64_t acc = 0;
    for (const auto p : res[j].values) acc += p;
    y.push_back(std::max(0.0, static_cast<double>(acc) * weights[j].scale * act_scale));
  }
  return y;
}

struct Window {
  std::vector<double> lat_us;    ///< call to return, per forward
  std::vector<double> think_us;  ///< previous return to this call
  double wall_s = 0.0;
  std::uint64_t thrown = 0;
  std::size_t next = 0;  ///< request index to continue from
};

/// Closed loop through app::Mlp: from request `first`, until `max_count`
/// forwards or `secs` seconds, whichever comes first.
Window closed_loop(Live& live, const Workload& w, std::size_t first, std::size_t max_count,
                   double secs, Report& report, SpanLog& spans) {
  Window win;
  const auto start = Clock::now();
  const auto stop = start + seconds(secs);
  auto prev = start;
  std::size_t i = first;
  do {
    const std::size_t k = i % kPeriod;
    const Request& rq = w.seq[k];
    std::vector<double> y;
    const auto t0 = Clock::now();
    try {
      y = live.nets[rq.tenant].forward(live.server, w.inputs[rq.input]);
    } catch (const std::exception&) {
      ++win.thrown;
    }
    const auto t1 = Clock::now();
    spans.add("app.forward", i, t0, t1, 0);
    win.lat_us.push_back(us_between(t0, t1));
    win.think_us.push_back(us_between(prev, t0));
    prev = t1;
    report.request(same_bits(y, w.expected[k]));
    ++i;
  } while (i - first < max_count && prev < stop);
  win.wall_s = s_between(start, prev);
  win.next = i;
  return win;
}

struct Replay {
  std::vector<double> submit_us, call_us;  ///< per layer request
  std::vector<double> fwd_us;              ///< per forward: sum of its layer calls
  std::vector<double> app_us;              ///< per forward: its app-side host work
  std::vector<double> insts, pipelined;    ///< per forward (bare engine only)
};

void append(Window& into, const Window& w) {
  into.lat_us.insert(into.lat_us.end(), w.lat_us.begin(), w.lat_us.end());
  into.think_us.insert(into.think_us.end(), w.think_us.begin(), w.think_us.end());
  into.wall_s += w.wall_s;
  into.thrown += w.thrown;
}

void append(Replay& into, const Replay& r) {
  const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(into.submit_us, r.submit_us);
  cat(into.call_us, r.call_us);
  cat(into.fwd_us, r.fwd_us);
  cat(into.app_us, r.app_us);
  cat(into.insts, r.insts);
  cat(into.pipelined, r.pipelined);
}

/// Replay forwards `first` .. `first` + `count` - 1 on a replica, one layer
/// at a time: the app-side host work around each layer request is redone
/// and timed apart from the request, and every layer's output is checked
/// bit for bit.
Replay replay(Replica& r, const Workload& w, std::size_t first, std::size_t count,
              Report& report, SpanLog& spans) {
  Replay out;
  for (std::size_t i = first; i < first + count; ++i) {
    const std::size_t k = i % kPeriod;
    const std::size_t t = w.seq[k].tenant;
    double fwd = 0.0, app_us = 0.0, insts = 0.0, pipelined = 0.0;
    bool ok = true;
    for (std::size_t l = 0; l < kLayers; ++l) {
      Replica::Timing tm;
      const auto t0 = Clock::now();
      const app::Quantized act = app::quantize(w.layer_in[k][l], kBits[l]);
      const auto t1 = Clock::now();
      std::vector<engine::OpResult> res;
      try {
        res = r.layer(t, l, act.values, &tm);
      } catch (const std::exception&) {
        ok = false;
      }
      const auto t2 = Clock::now();
      const std::vector<double> y = dequantize(res, w.qweights[t][l], act.scale);
      const auto t3 = Clock::now();
      spans.add(r.server ? "serve.submit_forward" : "engine.run_forward", i, t1, t2,
                r.server ? 1 : 2);
      ok = ok && products_ok(res, w.qweights[t][l], act.values) &&
           same_bits(y, l + 1 < kLayers ? w.layer_in[k][l + 1] : w.expected[k]);
      out.submit_us.push_back(tm.submit_us);
      out.call_us.push_back(tm.call_us);
      fwd += tm.call_us;
      app_us += us_between(t0, t1) + us_between(t2, t3);
      if (!r.server) {
        insts += static_cast<double>(r.eng.last_batch().instructions);
        pipelined += static_cast<double>(r.eng.last_batch().pipelined_cycles);
      }
    }
    report.request(ok);
    out.fwd_us.push_back(fwd);
    out.app_us.push_back(app_us);
    out.insts.push_back(insts);
    out.pipelined.push_back(pipelined);
  }
  return out;
}

}  // namespace

void run_mlp(const Options& opt, std::size_t tenants, Report& report, SpanLog& spans) {
  Workload w = generate(opt.seed, tenants);

  // Set-up, timed apart from the runs: memory, engine, server, pinning and
  // the warm-up forwards. An untraced run adds one rebuild per slice.
  std::vector<double> setup_s;
  const auto t_setup = Clock::now();
  std::unique_ptr<Live> live = build_live(w);
  setup_s.push_back(s_between(t_setup, Clock::now()));
  compute_reference(w);

  // Modeled pass: exactly one period, so modeled figures repeat exactly.
  const auto m0 = ServeCounters::of(live->server.stats());
  const Window modeled_win = closed_loop(*live, w, 0, kPeriod, 1e9, report, spans);
  const ServeCounters modeled = ServeCounters::of(live->server.stats()) - m0;
  const double n_modeled = static_cast<double>(kPeriod);

  Replica bare(w, false);
  const Replay bare_modeled = replay(bare, w, 0, kPeriod, report, spans);
  double insts_period = 0.0, pipelined_period = 0.0;
  for (std::size_t i = 0; i < kPeriod; ++i) {
    insts_period += bare_modeled.insts[i];
    pipelined_period += bare_modeled.pipelined[i];
  }
  if (pipelined_period != modeled.pipelined)
    report.note("warning: bare-engine replica modeled " + std::to_string(pipelined_period) +
                " cycles per period, the live server " + std::to_string(modeled.pipelined));
  note_table2_accuracy(report);

  const std::vector<OpClass> classes = {{engine::OpKind::Mult, 8},
                                        {engine::OpKind::Mult, 4},
                                        {engine::OpKind::Mult, 2}};

  if (!opt.trace) {
    // Slices run back to back, so sample j of the run is request
    // modeled_win.next + j.
    Window win;
    double rss_mb = 0.0;  // before the first rebuild: see peak_rss_mb()
    std::size_t next = modeled_win.next;
    const int slices = std::max(1, static_cast<int>(std::lround(opt.seconds / kSliceS)));
    for (int k = 0; k < slices; ++k) {
      const Window slice = closed_loop(*live, w, next, SIZE_MAX, kSliceS, report, spans);
      next = slice.next;
      append(win, slice);
      if (k == 0) rss_mb = peak_rss_mb();
      for (int r = 0; r < kRebuildsPerSlice; ++r)
        setup_s.push_back(time_setup([&] { return build_live(w); }));
    }
    (void)MacroProbe(classes, report);

    // A closed loop of one client completes a forward every call-to-call
    // time (the gap before the call plus its latency).
    std::vector<double> ns_per_inst, cycle_us;
    for (std::size_t j = 0; j < win.lat_us.size(); ++j) {
      ns_per_inst.push_back(1e3 * win.lat_us[j] /
                            bare_modeled.insts[(modeled_win.next + j) % kPeriod]);
      cycle_us.push_back(win.think_us[j] + win.lat_us[j]);
    }
    const Tail p99 = tail(win.lat_us);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "closed loop, 1 client: %zu forwards in %d slices of %.1f s: %.6g forwards/s "
                  "by wall time; throughput_rps is 1 / the median call-to-call time",
                  win.lat_us.size(), slices, kSliceS,
                  ratio(static_cast<double>(win.lat_us.size()), win.wall_s));
    report.note(buf);
    std::snprintf(buf, sizeof buf, "p%.2f of %zu samples", 100 * p99.percentile, p99.count);
    note_tail(report, p99.value, buf);
    report.note("failed_frac " + std::to_string(ratio(report.failed(), report.attempted())) +
                " fraction (failed / attempted)");
    report.metric("throughput_rps", 1e6 / median(cycle_us), "1/s");
    report.metric("latency_p50_us", median(win.lat_us), "us");
    report.metric("host_ns_per_inst", median(ns_per_inst), "ns");
    report.metric("modeled_cycles_per_req", modeled.makespan / n_modeled, "cycles");
    report.metric("modeled_pj_per_req", modeled.energy_pj / n_modeled, "pJ");
    report_setup(report, setup_s, kRebuildsPerSlice);
    report.metric("peak_rss_mb", rss_mb, "MB");
    return;
  }

  // Traced run: cycles of an untraced live slice, a traced live slice, the
  // same kReplayPerCycle forwards replayed on the replica server and then
  // on the bare engine, and the macro probe -- so every figure compared
  // below was taken under the same host conditions, each path with its own
  // memory warm in cache.
  Replica served_replica(w, true);
  MacroProbe probe(classes, report);
  Window plain, traced;
  Replay served, engine_runs;
  std::size_t next = modeled_win.next, replayed = 0;
  // Engine counters are read between forwards, when the scheduler that
  // writes them is idle.
  const auto c0 = ServeCounters::of(live->server.stats());
  const auto e0 = EngineCounters::of({&live->eng});
  for (int cycle = 0; cycle < std::max(1, static_cast<int>(opt.seconds)); ++cycle) {
    // The first slice of a cycle starts with a cold cache, so the traced and
    // untraced slices take turns going first.
    for (const bool on : {cycle % 2 == 1, cycle % 2 == 0}) {
      spans.enable(on);
      const Window slice = closed_loop(*live, w, next, SIZE_MAX, 0.25, report, spans);
      next = slice.next;
      append(on ? traced : plain, slice);
    }
    spans.enable(true);
    // Repeating the previous requests, untimed, first brings each replica's
    // memory back into cache without reordering its request sequence.
    for (Replica* r : {&served_replica, &bare}) {
      (void)replay(*r, w, replayed + kPeriod - kReplayWarmup, kReplayWarmup, report, spans);
      append(r == &bare ? engine_runs : served,
             replay(*r, w, replayed, kReplayPerCycle, report, spans));
    }
    replayed += kReplayPerCycle;
    probe.run(0.2, spans);
  }
  const ServeCounters c = ServeCounters::of(live->server.stats()) - c0;
  const EngineCounters e = EngineCounters::of({&live->eng}) - e0;
  const double ns_per_inst = probe.ns_per_inst();

  const double forwards = static_cast<double>(plain.lat_us.size() + traced.lat_us.size());
  const double insts_per_req = insts_period / n_modeled;
  const double forward_us = mean(traced.lat_us);
  const double rtt_us = mean(served.call_us);
  const double run_us = mean(engine_runs.call_us);
  const double app_self = forward_us - mean(served.fwd_us);
  const double serve_self = rtt_us - run_us;
  const double macro_us = 1e-3 * ns_per_inst * insts_per_req / kLayers;
  const double engine_self = run_us - macro_us;
  // Each layer's self time measured on its own: the app-side host work
  // redone outside the server, serve and engine from the replicas, macro
  // from the probe. What they leave of the live forward is unattributed.
  const double attributed =
      mean(served.app_us) + kLayers * (serve_self + engine_self + macro_us);
  std::vector<double> think = plain.think_us;
  think.insert(think.end(), traced.think_us.begin(), traced.think_us.end());

  report.metric("app.forward_us", forward_us, "us");
  report.metric("app.self_us", app_self, "us");
  report.metric("serve.submit_us", mean(served.submit_us), "us");
  report.metric("serve.rtt_us", rtt_us, "us");
  report.metric("serve.self_us", serve_self, "us");
  report.metric("engine.run_us", run_us, "us");
  report_counters(report, c, e, forwards, static_cast<double>(plain.thrown + traced.thrown));
  report.metric("macro.ns_per_inst", ns_per_inst, "ns");
  report.metric("macro.insts_per_req", insts_per_req, "count");
  report.metric("macro.fused_cycles_saved_per_req", modeled.fused_saved / n_modeled, "cycles");
  report.metric("macro.adaptive_cycles_saved_per_req", modeled.adaptive_saved / n_modeled,
                "cycles");
  report.metric("loadgen.late_p99_us", tail(think).value, "us");
  report.metric("trace.overhead_frac", ratio(forward_us - mean(plain.lat_us), mean(plain.lat_us)),
                "fraction");
  report.metric("trace.unattributed_frac", ratio(forward_us - attributed, forward_us), "fraction");
}

}  // namespace perfbench
