#include "serve/serve_stats.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace bpim::serve {

namespace {

LatencySummary summarize(const SampleSet& samples) {
  // SampleSet is total on degenerate sets (empty -> 0.0, one sample -> that
  // sample), so no count guard is needed here.
  LatencySummary s;
  s.count = samples.count();
  s.mean = samples.mean();
  s.p50 = samples.percentile(0.50);
  s.p90 = samples.percentile(0.90);
  s.p99 = samples.percentile(0.99);
  s.p999 = samples.percentile(0.999);
  s.max = samples.max();
  return s;
}

}  // namespace

ServeLedger::ServeLedger(std::size_t memories)
    : metrics_{obs::MetricsRegistry::global().counter(
                   "serve.requests.submitted", "requests admitted into the queue"),
               obs::MetricsRegistry::global().counter(
                   "serve.requests.rescinded", "admissions undone by a racing stop"),
               obs::MetricsRegistry::global().counter(
                   "serve.requests.rejected", "try_submit refusals (queue full)"),
               obs::MetricsRegistry::global().counter(
                   "serve.requests.expired", "requests failed with DeadlineExceeded"),
               obs::MetricsRegistry::global().counter(
                   "serve.requests.completed", "futures fulfilled with a result"),
               obs::MetricsRegistry::global().counter(
                   "serve.requests.failed", "futures failed because execution threw"),
               obs::MetricsRegistry::global().counter("serve.batches",
                                                      "run_batch calls issued"),
               obs::MetricsRegistry::global().histogram(
                   "serve.latency.host_us", "per-request wall latency, microseconds"),
               obs::MetricsRegistry::global().histogram(
                   "serve.batch.ops", "requests coalesced per executed batch"),
               obs::MetricsRegistry::global().histogram(
                   "serve.latency.modeled_cycles",
                   "per-request share of its batch's pipelined cycles")} {
  BPIM_REQUIRE(memories > 0, "ledger needs at least one memory lane");
  totals_.per_memory.resize(memories);
}

void ServeLedger::on_submitted() {
  metrics_.submitted.add();
  MutexLock lk(mutex_);
  ++totals_.submitted;
}

void ServeLedger::on_submit_rescinded() {
  metrics_.rescinded.add();
  MutexLock lk(mutex_);
  --totals_.submitted;
}

void ServeLedger::on_rejected() {
  metrics_.rejected.add();
  MutexLock lk(mutex_);
  ++totals_.rejected;
}

void ServeLedger::on_expired(std::size_t n) {
  metrics_.expired.add(n);
  MutexLock lk(mutex_);
  totals_.expired += n;
}

void ServeLedger::on_failed(std::size_t n) {
  metrics_.failed.add(n);
  MutexLock lk(mutex_);
  totals_.failed += n;
}

void ServeLedger::on_batch(const BatchRecord& rec, const engine::BatchStats& bs,
                           const std::vector<double>& host_us_samples,
                           const std::vector<std::size_t>& op_layers) {
  metrics_.completed.add(rec.ops);
  metrics_.batches.add();
  metrics_.batch_ops.observe(rec.ops);
  MutexLock lk(mutex_);
  BPIM_REQUIRE(rec.memory < totals_.per_memory.size(), "batch memory out of range");
  ++totals_.batches;
  totals_.completed += rec.ops;
  // Per-memory BatchStats merge into the aggregate serial account; the
  // parallel (makespan) view comes from the per-memory lanes at snapshot.
  aggregate_ += bs;
  MemoryLaneStats& lane = totals_.per_memory[rec.memory];
  ++lane.batches;
  lane.ops += rec.ops;
  lane.layers += rec.layers;
  lane.modeled_pipelined_cycles += bs.pipelined_cycles;
  for (const double us : host_us_samples) {
    host_us_.add(us);
    metrics_.host_us.observe(static_cast<std::uint64_t>(us < 0.0 ? 0.0 : us));
  }
  // Attribute the batch cost once across its riders: each op's modeled
  // latency is its layer-weighted share, so the samples of a batch sum to
  // its cost and p50/p99 neither overcount under coalescing nor charge a
  // one-layer rider for a 32-layer neighbour. Equal split when per-op
  // layers are unknown.
  std::size_t layer_sum = 0;
  if (op_layers.size() == rec.ops)
    for (const std::size_t l : op_layers) layer_sum += l;
  const double pipelined = static_cast<double>(bs.pipelined_cycles);
  for (std::size_t i = 0; i < rec.ops; ++i) {
    const double weight = layer_sum > 0 ? static_cast<double>(op_layers[i]) /
                                              static_cast<double>(layer_sum)
                                        : 1.0 / static_cast<double>(rec.ops);
    const double share = pipelined * weight;
    modeled_cycles_.add(share);
    metrics_.modeled_cycles.observe(static_cast<std::uint64_t>(share));
  }
  if (recent_.size() < kRecentBatches) {
    recent_.push_back(rec);
  } else {
    recent_[recent_begin_] = rec;
    recent_begin_ = (recent_begin_ + 1) % kRecentBatches;
  }
}

std::vector<MemoryLaneStats> ServeLedger::lanes() const {
  MutexLock lk(mutex_);
  return totals_.per_memory;
}

ServeStats ServeLedger::snapshot(std::size_t queue_depth,
                                 std::size_t peak_queue_depth) const {
  MutexLock lk(mutex_);
  ServeStats s = totals_;
  s.queue_depth = queue_depth;
  s.peak_queue_depth = peak_queue_depth;
  s.modeled_pipelined_cycles = aggregate_.pipelined_cycles;
  s.modeled_serial_cycles = aggregate_.serial_cycles;
  s.modeled_load_cycles = aggregate_.load_cycles;
  s.modeled_load_cycles_saved = aggregate_.load_cycles_saved;
  s.modeled_fused_cycles_saved = aggregate_.fused_cycles_saved;
  s.modeled_adaptive_cycles_saved = aggregate_.adaptive_cycles_saved;
  s.energy = aggregate_.energy;
  s.modeled_makespan_cycles = 0;
  for (const MemoryLaneStats& lane : s.per_memory)
    s.modeled_makespan_cycles =
        std::max(s.modeled_makespan_cycles, lane.modeled_pipelined_cycles);
  s.host_us = summarize(host_us_);
  s.modeled_cycles = summarize(modeled_cycles_);
  s.recent_batches.reserve(recent_.size());
  for (std::size_t i = 0; i < recent_.size(); ++i)
    s.recent_batches.push_back(recent_[(recent_begin_ + i) % recent_.size()]);
  return s;
}

}  // namespace bpim::serve
