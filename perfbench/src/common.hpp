#pragma once
// Shared plumbing of the benchmark: options, the report it prints, the
// in-memory span log of traced runs, and a few clock helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve_stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
[[nodiscard]] inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run prints: human-readable notes, every metric by name with its
/// unit, and as the last line the JSON object the contract asks for.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes_.push_back(line); }
  /// Count one checked request; a wrong output, expiry, rejection or throw
  /// is a failure.
  void request(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<std::string> notes_;
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans recorded around the benchmark's calls into each layer. Kept in
/// memory while the run measures and written out once, at exit, as a
/// Chrome/Perfetto trace. Spans of one request share its id.
class SpanLog {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void add(const char* name, std::uint64_t req, Clock::time_point begin, Clock::time_point end,
           int track) {
    if (enabled_) spans_.push_back({name, req, begin, end, track});
  }
  /// Write every span to `path` (directories created as needed).
  void write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::uint64_t req;
    Clock::time_point begin, end;
    int track;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
};

[[nodiscard]] inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// The ServeStats fields the benchmark differences between two instants.
struct ServeCounters {
  double completed = 0, batches = 0, expired = 0, rejected = 0;
  double pipelined = 0, serial = 0, makespan = 0, load = 0;
  double fused_saved = 0, adaptive_saved = 0, energy_pj = 0;
  double peak_queue_depth = 0;

  static ServeCounters of(const bpim::serve::ServeStats& s);
  friend ServeCounters operator-(ServeCounters a, const ServeCounters& b);
};

/// Fusion, residency and op-program-cache counters summed over engines.
/// Read them only while the engines are idle: between a closed-loop
/// client's requests, or after an open loop has drained.
struct EngineCounters {
  double fused = 0, fallback = 0, recompiles = 0, materializations = 0, evictions = 0;
  double op_hits = 0, op_compiled = 0;

  static EngineCounters of(const std::vector<const bpim::engine::ExecutionEngine*>& engines);
  friend EngineCounters operator-(EngineCounters a, const EngineCounters& b);
};

/// The serve.* and engine.* counter metrics of a traced run, over the
/// `requests` requests of its live windows; `thrown` counts the requests
/// whose call threw.
void report_counters(Report& report, const ServeCounters& serve, const EngineCounters& eng,
                     double requests, double thrown);

/// The human-readable line for latency_p99_us, which every run prints but
/// BENCHMARK.json does not bound: host stalls set it on a shared VM.
void note_tail(Report& report, double value_us, const std::string& how);

/// Seconds one throwaway rebuild of the system under test takes: `build()`
/// returns it constructed, pinned and warmed up; it is torn down after the
/// clock stops.
template <class Build>
[[nodiscard]] double time_setup(Build&& build) {
  const auto t0 = Clock::now();
  auto system = build();
  const double s = s_between(t0, Clock::now());
  system.reset();
  return s;
}

/// Report setup_s from a run's build times: the first build, then
/// `per_slice` rebuilds after each slice. setup_s is the median over the
/// slices of each slice's fastest rebuild: the builds of one slice see the
/// same host, and the fastest is the one least slowed by other tenants.
void report_setup(Report& report, const std::vector<double>& builds, std::size_t per_slice);

/// Peak resident set of this process (VmHWM), in MB. Untraced runs read
/// it after the first slice, before the first timed rebuild: every
/// serve::Server built keeps about 0.9 MB after it is destroyed (the trace
/// ring its scheduler thread registers with the global TraceSession, even
/// with tracing off), so the rebuilds would otherwise set it.
[[nodiscard]] double peak_rss_mb();

/// Paper references for the modeled metrics: Table 2 energy error of the
/// calibrated model, printed beside every modeled figure.
void note_table2_accuracy(Report& report);

}  // namespace perfbench
