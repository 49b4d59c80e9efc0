#pragma once
// Serving-side accounting: what the macro pool did on behalf of clients.
//
// ServeStats is an immutable snapshot (Server::stats()); ServeLedger is the
// mutex-guarded accumulator the server writes to. Latency is recorded per
// request on two clocks:
//   host      submit() to result-ready, microseconds of wall time -- queueing
//             plus simulator execution, what a client actually waited;
//   modeled   the request's share of its batch's pipelined cycles, weighted
//             by its row-pair layers (layers_i / sum layers): the batch cost
//             is attributed once across its riders, so per-op p50/p99 do not
//             overcount under coalescing and the samples of a batch sum to
//             its cost.
// Every sample is kept (~8 bytes per completed request at model scale);
// quantiles come from the common SampleSet helper, linearly interpolated
// between order statistics.
//
// With a multi-memory pool the ledger also keeps one lane per memory
// (NUMA node). Memories run in parallel in the cycle model, so the
// aggregate makespan is the busiest lane's total, not the sum. The lanes
// are also the server's only placement input (Server::place).

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "engine/execution_engine.hpp"
#include "obs/metrics.hpp"

namespace bpim::serve {

/// Quantile summary of one latency distribution (SampleSet semantics:
/// linear interpolation between order statistics).
struct LatencySummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;  ///< p99.9 -- tail resolution for overload work
  double max = 0.0;
};

/// One executed batch, as the scheduler shaped it. With a memory pool this
/// is one per-memory sub-batch of a dispatch group.
struct BatchRecord {
  engine::OpKind kind = engine::OpKind::Add;
  unsigned bits = 0;
  std::size_t ops = 0;      ///< requests coalesced into the batch
  std::size_t layers = 0;   ///< summed row-pair layers (residency)
  std::size_t memory = 0;   ///< pool memory (NUMA node) it ran on
  std::uint64_t pipelined_cycles = 0;
  std::uint64_t serial_cycles = 0;
};

/// Aggregate account of one pool memory (NUMA node).
struct MemoryLaneStats {
  std::uint64_t batches = 0;  ///< sub-batches dispatched to this memory
  std::uint64_t ops = 0;
  std::uint64_t layers = 0;
  std::uint64_t modeled_pipelined_cycles = 0;  ///< this memory's busy cycles
};

struct ServeStats {
  std::uint64_t submitted = 0;  ///< admitted: queued, or dispatched in place
  std::uint64_t rejected = 0;   ///< try_submit() refused: queue full
  std::uint64_t expired = 0;    ///< failed with DeadlineExceeded
  std::uint64_t completed = 0;  ///< futures fulfilled with a result
  /// Futures failed because execution threw (a defect: validation happens
  /// at submit). Settles the ledger: submitted == completed + expired +
  /// failed once the server has drained.
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;    ///< run_batch calls issued

  std::size_t queue_depth = 0;       ///< at snapshot time
  std::size_t peak_queue_depth = 0;  ///< high-water mark since construction

  /// Modeled-cycle totals over every batch: pipelined is what the coalesced
  /// schedule cost, serial what one-op-at-a-time submission would have.
  std::uint64_t modeled_pipelined_cycles = 0;
  std::uint64_t modeled_serial_cycles = 0;
  /// Operand-load traffic: what the batches actually spent writing rows,
  /// and what resident operands (Server::pin) saved against re-poking.
  std::uint64_t modeled_load_cycles = 0;
  std::uint64_t modeled_load_cycles_saved = 0;
  /// Compute cycles fused program execution (submit_forward, chained-MAC
  /// datapath) saved vs running op-at-a-time at Table 1 cost; the
  /// pipelined/serial totals are already net of this.
  std::uint64_t modeled_fused_cycles_saved = 0;
  /// Compute cycles the adaptive policy (MULT operand narrowing / zero
  /// skipping, Server::set_adaptive_policy) saved across every batch; the
  /// pipelined/serial totals are already net of this.
  std::uint64_t modeled_adaptive_cycles_saved = 0;
  /// Busiest memory's pipelined total: the modeled finish line when the
  /// pool's memories run in parallel. Equals modeled_pipelined_cycles on a
  /// single-memory server.
  std::uint64_t modeled_makespan_cycles = 0;
  Joule energy{0.0};

  LatencySummary host_us;         ///< per request, microseconds of wall time
  LatencySummary modeled_cycles;  ///< per request, its share of its batch's cycles

  /// One lane per pool memory, index == memory id.
  std::vector<MemoryLaneStats> per_memory;

  /// The most recent batches, oldest first (bounded ring; see kRecentBatches).
  std::vector<BatchRecord> recent_batches;

  [[nodiscard]] double mean_batch_occupancy() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(completed) / static_cast<double>(batches);
  }
  [[nodiscard]] double modeled_cycles_per_op() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(modeled_pipelined_cycles) /
                                static_cast<double>(completed);
  }
  /// Cycle-model win of coalescing over one-op-at-a-time submission.
  [[nodiscard]] double coalescing_speedup() const {
    return modeled_pipelined_cycles == 0
               ? 1.0
               : static_cast<double>(modeled_serial_cycles) /
                     static_cast<double>(modeled_pipelined_cycles);
  }
  /// Cycle-model win of spreading batches across parallel memories: total
  /// pipelined work over the busiest memory's share. 1.0 on a pool of one.
  [[nodiscard]] double scaleout_speedup() const {
    return modeled_makespan_cycles == 0
               ? 1.0
               : static_cast<double>(modeled_pipelined_cycles) /
                     static_cast<double>(modeled_makespan_cycles);
  }
  /// Fraction of the makespan memory `m` was busy, in [0,1].
  [[nodiscard]] double memory_occupancy(std::size_t m) const {
    if (m >= per_memory.size() || modeled_makespan_cycles == 0) return 0.0;
    return static_cast<double>(per_memory[m].modeled_pipelined_cycles) /
           static_cast<double>(modeled_makespan_cycles);
  }
};

/// Thread-safe accumulator behind Server::stats().
class ServeLedger {
 public:
  static constexpr std::size_t kRecentBatches = 64;

  /// `memories` sizes the per-memory lanes (>= 1).
  explicit ServeLedger(std::size_t memories = 1);

  void on_submitted() BPIM_EXCLUDES(mutex_);
  /// Undo one on_submitted(): the push raced a close and was never admitted.
  void on_submit_rescinded() BPIM_EXCLUDES(mutex_);
  void on_rejected() BPIM_EXCLUDES(mutex_);
  void on_expired(std::size_t n) BPIM_EXCLUDES(mutex_);
  /// `n` requests whose execution threw; their futures carry the error.
  void on_failed(std::size_t n) BPIM_EXCLUDES(mutex_);
  /// Record one executed batch: its shape (rec.memory selects the lane), the
  /// engine's BatchStats, the per-request latency samples (host
  /// microseconds, one per request) and per-request row-pair layers. Each
  /// request's modeled latency sample is its layer-weighted share of the
  /// batch's pipelined cycles (equal split when the layers are unknown or
  /// sum to zero).
  void on_batch(const BatchRecord& rec, const engine::BatchStats& bs,
                const std::vector<double>& host_us_samples,
                const std::vector<std::size_t>& op_layers = {}) BPIM_EXCLUDES(mutex_);

  [[nodiscard]] ServeStats snapshot(std::size_t queue_depth,
                                    std::size_t peak_queue_depth) const BPIM_EXCLUDES(mutex_);
  /// The per-memory lanes alone, index == memory id: one lock and no
  /// sample copy, cheap enough for the dispatcher to read per group.
  [[nodiscard]] std::vector<MemoryLaneStats> lanes() const BPIM_EXCLUDES(mutex_);

 private:
  /// Global obs instruments mirroring the ledger (resolved once at
  /// construction; updates are lock-free atomics). The ledger stays the
  /// source of truth for stats(); these exist for exposition (metrics
  /// snapshot / Prometheus scrape) without a Server handle.
  struct Metrics {
    obs::Counter& submitted;
    obs::Counter& rescinded;  ///< counters are monotonic: rescinds count up
    obs::Counter& rejected;
    obs::Counter& expired;
    obs::Counter& completed;
    obs::Counter& failed;
    obs::Counter& batches;
    obs::Histogram& host_us;
    obs::Histogram& batch_ops;
    obs::Histogram& modeled_cycles;
  };

  Metrics metrics_;
  mutable Mutex mutex_;
  /// Counter and lane fields only: the cycle/energy aggregates
  /// (modeled_pipelined/serial/makespan, energy) are derived from
  /// aggregate_ and the lanes at snapshot() and stay zero in here.
  ServeStats totals_ BPIM_GUARDED_BY(mutex_);
  engine::BatchStats aggregate_ BPIM_GUARDED_BY(mutex_);  ///< every sub-batch's BatchStats, merged
  SampleSet host_us_ BPIM_GUARDED_BY(mutex_);             ///< per-request samples
  SampleSet modeled_cycles_ BPIM_GUARDED_BY(mutex_);      ///< per-request samples
  std::vector<BatchRecord> recent_ BPIM_GUARDED_BY(mutex_);  ///< ring, oldest at recent_begin_
  std::size_t recent_begin_ BPIM_GUARDED_BY(mutex_) = 0;
};

}  // namespace bpim::serve
