#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "energy/calibration.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) throw std::logic_error("metric " + name + " is not finite");
  metrics_.push_back({name, value, unit});
}

void Report::print() const {
  for (const auto& n : notes_) std::printf("# %s\n", n.c_str());
  for (const auto& m : metrics_)
    std::printf("%-34s %s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
  std::ostringstream js;
  js << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    js << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

void SpanLog::write(const std::string& path) const {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  if (spans_.empty()) {
    out << "{\"traceEvents\": []}\n";
    return;
  }
  const Clock::time_point origin = spans_.front().begin;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.track
        << ", \"ts\": " << number(us_between(origin, s.begin))
        << ", \"dur\": " << number(us_between(s.begin, s.end)) << ", \"args\": {\"req\": " << s.req
        << "}}";
  }
  out << "\n]}\n";
}

ServeCounters ServeCounters::of(const bpim::serve::ServeStats& s) {
  ServeCounters c;
  c.completed = static_cast<double>(s.completed);
  c.batches = static_cast<double>(s.batches);
  c.expired = static_cast<double>(s.expired);
  c.rejected = static_cast<double>(s.rejected);
  c.pipelined = static_cast<double>(s.modeled_pipelined_cycles);
  c.serial = static_cast<double>(s.modeled_serial_cycles);
  c.makespan = static_cast<double>(s.modeled_makespan_cycles);
  c.load = static_cast<double>(s.modeled_load_cycles);
  c.fused_saved = static_cast<double>(s.modeled_fused_cycles_saved);
  c.adaptive_saved = static_cast<double>(s.modeled_adaptive_cycles_saved);
  c.energy_pj = s.energy.si() * 1e12;
  c.peak_queue_depth = static_cast<double>(s.peak_queue_depth);
  return c;
}

ServeCounters operator-(ServeCounters a, const ServeCounters& b) {
  a.completed -= b.completed;
  a.batches -= b.batches;
  a.expired -= b.expired;
  a.rejected -= b.rejected;
  a.pipelined -= b.pipelined;
  a.serial -= b.serial;
  a.makespan -= b.makespan;
  a.load -= b.load;
  a.fused_saved -= b.fused_saved;
  a.adaptive_saved -= b.adaptive_saved;
  a.energy_pj -= b.energy_pj;
  return a;  // peak_queue_depth is a high-water mark: keep the later one
}

EngineCounters EngineCounters::of(
    const std::vector<const bpim::engine::ExecutionEngine*>& engines) {
  EngineCounters c;
  for (const auto* e : engines) {
    const auto& f = e->fusion_stats();
    const auto r = e->residency_stats();
    const auto o = e->op_program_cache_stats();
    c.fused += static_cast<double>(f.fused_runs);
    c.fallback += static_cast<double>(f.fallback_runs);
    c.recompiles += static_cast<double>(f.recompiles);
    c.materializations += static_cast<double>(r.materializations);
    c.evictions += static_cast<double>(r.evictions);
    c.op_hits += static_cast<double>(o.hits);
    c.op_compiled += static_cast<double>(o.compiled);
  }
  return c;
}

EngineCounters operator-(EngineCounters a, const EngineCounters& b) {
  a.fused -= b.fused;
  a.fallback -= b.fallback;
  a.recompiles -= b.recompiles;
  a.materializations -= b.materializations;
  a.evictions -= b.evictions;
  a.op_hits -= b.op_hits;
  a.op_compiled -= b.op_compiled;
  return a;
}

void report_counters(Report& report, const ServeCounters& serve, const EngineCounters& eng,
                     double requests, double thrown) {
  report.metric("serve.batch_occupancy", ratio(serve.completed, serve.batches), "ratio");
  report.metric("serve.peak_queue_depth", serve.peak_queue_depth, "count");
  report.metric("serve.failed", serve.expired + serve.rejected + thrown, "count");
  report.metric("engine.op_cache_hit_ratio", ratio(eng.op_hits, eng.op_hits + eng.op_compiled),
                "ratio");
  report.metric("engine.fused_ratio", ratio(eng.fused, eng.fused + eng.fallback), "ratio");
  report.metric("engine.recompiles_per_req", ratio(eng.recompiles, requests), "count");
  report.metric("engine.materializations_per_req", ratio(eng.materializations, requests),
                "count");
  report.metric("engine.evictions_per_req", ratio(eng.evictions, requests), "count");
  report.metric("engine.load_cycles_per_req", ratio(serve.load, requests), "cycles");
  report.metric("engine.overlap_speedup", ratio(serve.serial, serve.pipelined), "ratio");
}

void note_tail(Report& report, double value_us, const std::string& how) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "latency_p99_us %.6g us (", value_us);
  report.note(buf + how + "; printed, not bounded: host stalls set it on a shared VM)");
}

void report_setup(Report& report, const std::vector<double>& builds, std::size_t per_slice) {
  std::vector<double> fastest;
  for (std::size_t i = 1; i < builds.size(); i += per_slice)
    fastest.push_back(*std::min_element(builds.begin() + static_cast<std::ptrdiff_t>(i),
                                        builds.begin() + static_cast<std::ptrdiff_t>(
                                                             std::min(i + per_slice, builds.size()))));
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "setup_s: median over %zu slices of the fastest of %zu rebuilds; first build "
                "%.6g s; all %zu builds: median %.6g s, quartile spread %.1f%%",
                fastest.size(), per_slice, builds.front(), builds.size(), median(builds),
                100.0 * quartile_spread(builds));
  report.note(buf);
  report.metric("setup_s", median(fastest), "s");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void note_table2_accuracy(Report& report) {
  const auto cal = bpim::energy::check_table2(bpim::energy::EnergyModel{});
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "model accuracy: Table 2 energy/op over %zu entries: max |err| %.2f%%, "
                "mean |err| %.2f%%",
                cal.rows.size(), 100.0 * cal.max_abs_rel_error, 100.0 * cal.mean_abs_rel_error);
  report.note(buf);
  report.note("host-time metrics (us, ns, 1/s, s, MB) have no reference: they measure the "
              "simulator on this host");
}

}  // namespace perfbench
