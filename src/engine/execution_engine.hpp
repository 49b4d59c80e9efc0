#pragma once
// ExecutionEngine: sharded, multi-threaded dispatch of vector workloads
// across the macros of an ImcMemory.
//
// One dispatch core. run()/run_batch() (one op at a time) and
// run_forward() (fused) each validate their request, then build an
// ExecPlan: per active macro, the operand rows to stage, the
// macro::VerifiedPrograms to run (cached single-instruction programs from
// macro::OpCompiler, or one fused program from macro::FusionCompiler) and
// one retire record (macro::Extract) per instruction, naming where its
// values go (a fused forward's records are its shape's cached plan, see
// engine/fusion.hpp; run() builds its own per op). execute() resets the
// memory ledger and, per macro on the thread pool, stages and runs one
// MacroController, which writes each instruction's values and its ledger
// entry through its record as it retires; after the join it publishes the
// program-path instruments (macro.program.cycles, engine.adaptive.*, the
// macro.program instant) from the programs' stats alone, whose adaptive
// tallies (MULTs, skips, executed depths) the controller counted as each
// MULT retired -- it walks no instruction or record again, and the
// controller publishes nothing. The entry points keep only their plan
// building and their accounting; RunStats come from the memory ledger,
// the one runtime account, split per op from the records' ledger entries.
// The engine never calls the macro row-op datapath directly (a CI grep
// gate enforces this).
//
// Chunk c of a vector goes to macro c % M at row-pair layer c / M, so every
// macro sees the same chunk sequence at any thread count. Each macro is an
// independent object (SRAM state, RNG stream, energy ledger), so the
// parallel walk is bit-identical to a serial one; stats merge after the
// join as lock-step max (cycles) and fixed-order sum (energy). Staging
// every chunk before running is safe: no engine-dispatched program writes a
// main row -- single-op programs write only dummy rows (see OpKind) and a
// fused forward's MULTs only D1/D2 -- so no chunk's operands are overwritten
// before they are read.
//
// run_batch() models a double-buffered schedule: operands of op k+1 load
// into ping-pong row pairs while op k computes, so the batch costs load(0)
// + sum max(compute(k), load(k+1)) + compute(last). Overlap is credited
// only when consecutive ops fit in the array together (transient layers
// plus the materialized resident set) and never between two ops sharing a
// resident handle. Per-op RunStats stay compute-only; the overlap shows up
// in BatchStats. pin() (engine/residency.hpp) keeps an operand's rows in
// the array across calls, and ops referencing the handle skip its loads.
//
// ExecutionEngine is the direct engine::Executor (engine/executor.hpp), the
// interface the app layer dispatches through; serve::Server is the other.
//
// Validation: one validate() per request shape, judged from spans and
// ResidentOperand metadata alone; every entry point runs it before its
// first side effect, and serve::Server runs the same checks at admission.

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "engine/executor.hpp"
#include "engine/fusion.hpp"
#include "engine/residency.hpp"
#include "engine/run_stats.hpp"
#include "engine/thread_pool.hpp"
#include "macro/memory.hpp"
#include "obs/trace.hpp"
#include "periph/falogics.hpp"

namespace bpim::engine {

struct EngineConfig {
  /// Worker parallelism including the submitting thread; 0 means
  /// std::thread::hardware_concurrency(). Capped at the memory's macro
  /// count (the unit of parallelism). Results and stats are identical at
  /// every value -- this only changes host wall-clock.
  std::size_t threads = 0;
};

class ExecutionEngine : public Executor {
 public:
  explicit ExecutionEngine(macro::ImcMemory& mem, EngineConfig cfg = {});

  [[nodiscard]] macro::ImcMemory& memory() { return mem_; }
  [[nodiscard]] std::size_t thread_count() const { return pool_.thread_count(); }

  /// Elements one macro op processes at a given precision.
  [[nodiscard]] std::size_t words_per_row(unsigned bits) const;
  [[nodiscard]] std::size_t mult_units_per_row(unsigned bits) const;
  /// Elements per op for `op`'s kind and precision.
  [[nodiscard]] std::size_t elements_per_chunk(const VecOp& op) const;
  /// Chunk geometry by (bits, layout) -- the single source for span ops,
  /// pins, and materialization, so a handle's layer count can never
  /// disagree with the ops that use it.
  [[nodiscard]] std::size_t elements_per_chunk(unsigned bits, OperandLayout layout) const;
  [[nodiscard]] std::size_t layers_for_elements(std::size_t elements, unsigned bits,
                                                OperandLayout layout) const;
  /// Max elements resident at once across all macros (one row-pair layer).
  [[nodiscard]] std::size_t layer_capacity(unsigned bits) const;
  /// Row-pair layers `op` occupies per macro (the residency unit the batch
  /// scheduler packs against row_pair_capacity()).
  [[nodiscard]] std::size_t layers_for(const VecOp& op) const;
  /// Row pairs available per macro -- the residency budget of one batch.
  [[nodiscard]] std::size_t row_pair_capacity() const;

  // ---- persistent operand residency (engine/residency.hpp) ----------------
  /// Pin an operand resident: packs the values into one row image per
  /// chunk, registers them with the memory's ResidencyManager and returns a
  /// handle usable as VecOp::ra / rb. The one materializing write -- a row
  /// copy per chunk -- happens on first use inside run()/run_batch()
  /// and is charged to that batch's load cycles; later uses load nothing.
  /// Thread-safe (may race run_batch on a serving engine).
  /// One memory: `colocate_key` (pool homing) has nothing to place and is
  /// ignored; run_forward() places each forward's weights as one block.
  [[nodiscard]] ResidentOperand pin(std::span<const std::uint64_t> values, unsigned bits,
                                    OperandLayout layout,
                                    std::optional<std::uint64_t> colocate_key =
                                        std::nullopt) override;
  /// Drop a pinned operand (false when unknown). Must not race ops that
  /// still reference the handle.
  bool unpin(const ResidentOperand& handle) override;
  /// Row-pair layers currently materialized -- what batch schedulers
  /// subtract from row_pair_capacity() to budget transient operands.
  [[nodiscard]] std::size_t resident_layers() const { return residency_.resident_layers(); }
  [[nodiscard]] ResidencyStats residency_stats() const { return residency_.stats(); }

  /// Execute one vector op, sharded across macros on the thread pool.
  [[nodiscard]] OpResult run(const VecOp& op);

  /// Execute a batch of independent ops (double-buffered in the cycle
  /// model, see file header). Results are in submission order.
  [[nodiscard]] std::vector<OpResult> run_batch(std::span<const VecOp> ops) override;

  /// Accounting of the last dispatch that returned (a lone run() counts as
  /// a batch of one); a call that throws leaves it unchanged.
  [[nodiscard]] const BatchStats& last_batch() const { return batch_; }
  [[nodiscard]] const BatchStats* private_batch() const override { return &batch_; }
  [[nodiscard]] const ExecutionEngine& shape() const override { return *this; }

  // ---- adaptive execution (macro::AdaptivePolicy) -------------------------
  /// Set the sparsity/precision-adaptive policy every subsequent dispatch
  /// (run / run_batch / run_forward) executes under. Outputs are
  /// bit-identical at any setting; only the modeled cycle account moves
  /// (the win lands in RunStats/BatchStats::adaptive_cycles_saved).
  /// Thread-safe: may race in-flight dispatches, each of which snapshots
  /// the policy once at entry.
  void set_adaptive_policy(macro::AdaptivePolicy policy) {
    adaptive_policy_.store(
        static_cast<std::uint8_t>((policy.narrow_precision ? 1u : 0u) |
                                  (policy.skip_zero ? 2u : 0u)),
        std::memory_order_relaxed);
  }
  [[nodiscard]] macro::AdaptivePolicy adaptive_policy() const {
    const std::uint8_t v = adaptive_policy_.load(std::memory_order_relaxed);
    macro::AdaptivePolicy p;
    p.narrow_precision = (v & 1u) != 0;
    p.skip_zero = (v & 2u) != 0;
    return p;
  }

  // ---- fusion (engine/fusion.hpp; compiler in macro/compiler.hpp) ---------

  /// Execute a whole forward -- every weight handle against one shared
  /// activation -- as one fused macro program on each macro. The activation
  /// is staged once in the bottom transient pairs [0, L) and every MULT
  /// reads it in place, so consecutive ops run on the chained datapath (D1
  /// staging skipped within a layer, FF load pipelined across all of them)
  /// and the activation loads once instead of once per op. The weights
  /// materialize above that reserved region as one block, evicting other
  /// handles LRU first, so the fused layout survives residency churn. The
  /// programs are cached per forward shape and rebound to wherever the
  /// weights sit, so a moved weight or another forward of the same shape
  /// compiles nothing; macros holding the same number of chunks share one
  /// program. Values are bit-identical to the op-at-a-time path (the
  /// product is exact, so swapping multiplicand and multiplier roles
  /// changes nothing). Falls back
  /// to run_batch() only when the shape cannot fit: (weights + 1) x L row
  /// pairs exceed row_pair_capacity(). Results are in `weights` order;
  /// last_batch() covers the whole forward. An op's cycles are its share of
  /// the makespan macro's retire records, so the ops' elapsed cycles sum to
  /// last_batch().compute_cycles.
  [[nodiscard]] std::vector<OpResult> run_forward(
      std::span<const ResidentOperand> weights,
      std::span<const std::uint64_t> activation) override;

  [[nodiscard]] const FusionStats& fusion_stats() const { return fusion_stats_; }

  /// Single-op program cache traffic (macro::OpCompiler): compiled = verified
  /// emissions, hits = dispatches served from the cache.
  [[nodiscard]] macro::OpCompiler::CacheStats op_program_cache_stats() const {
    return op_compiler_.cache_stats();
  }

 private:
  /// Main row `index` of a macro, staged from `values` in `layout` at `bits`.
  struct StageRow {
    std::size_t index;
    unsigned bits;
    OperandLayout layout;
    std::span<const std::uint64_t> values;
  };
  /// One macro's share of a dispatch: one retire record per instruction of
  /// `programs`, in order (the plan sets where values go, execute() the
  /// ledger entry) -- `extract`, rebuilt per call for a run() op, or the
  /// shape's cached `sealed` ones (ForwardPlan::records) for a fused
  /// forward's one program. `ran` is an output: each program's stats.
  struct MacroPlan {
    std::vector<StageRow> stage;
    std::vector<const macro::VerifiedProgram*> programs;
    std::vector<macro::Extract> extract;
    macro::CheckedRecords* sealed = nullptr;
    std::vector<macro::ProgramStats> ran;
  };
  /// What one dispatch does on macros [0, active). Engine-owned scratch:
  /// the vectors keep their capacity across calls, so a dispatch whose
  /// shape repeats allocates nothing here.
  struct ExecPlan {
    std::vector<MacroPlan> macros;
    std::size_t active = 0;
  };

  /// Clear the scratch plan for a dispatch over `active` macros.
  ExecPlan& begin_plan(std::size_t active);
  /// The dispatch core: reset the memory ledger, then per active macro (on
  /// the pool) stage, run on the chained datapath and retire every
  /// instruction into its record (values and ledger entry; run_forward's
  /// per-op accounting reads the entries); after the join, publish the
  /// program-path instruments from the programs' stats and their tallies.
  /// Returns the lock-step cycles the adaptive policy took off the makespan.
  std::uint64_t execute(ExecPlan& plan);

  /// Execute one validated op of a batch.
  OpResult run_one(const VecOp& op);
  /// Resolve a handle to its live entry (null for "no handle").
  ResidencyManager::Entry* resolve(const ResidentOperand& handle);
  /// The cached single-instruction program for `op` at one concrete row
  /// placement (compiled + verified on first use).
  const macro::VerifiedProgram& program_for(const VecOp& op, std::size_t r_a, std::size_t r_b);
  /// Copy a pinned operand's row images into its allocated rows.
  void materialize(ResidencyManager::Entry& entry);
  [[nodiscard]] Second cycles_to_time(std::uint64_t cycles) const;
  /// Publish a fused dispatch's account: one program per macro leaves no op
  /// boundary to ping-pong loads across, so pipelined == serial == load +
  /// compute.
  void publish_fused(BatchStats b);

  /// Residency state of one run_forward() call: the resolved weight
  /// entries, the shared chunk geometry, and whether the shape fits the
  /// fused layout (then every weight is materialized above the activation's
  /// transient region, at `bases`). Engine-owned scratch, like ExecPlan.
  struct ForwardLayout {
    std::vector<ResidencyManager::Entry*> entries;
    unsigned bits = 0;
    std::size_t elements = 0;  ///< per op
    std::size_t per_op = 0;
    std::size_t chunks = 0;
    std::size_t layers = 0;            ///< L, per handle and for the activation
    std::vector<std::uint8_t> loaded;  ///< per weight: materialized this call
    std::vector<std::size_t> bases;    ///< per weight: first row pair
    bool fusable = false;
  };
  /// Resolve the (validated) weights into the scratch layout and, when the
  /// shape fits, place them as one block above the activation region and
  /// write the ones placed.
  const ForwardLayout& prepare_forward(std::span<const ResidentOperand> weights);
  /// The layout's shape-keyed programs (compiled on the shape's first
  /// forward), bound to the layout's weight rows, and the shape's dispatch
  /// plan for the layout's element count (built on that count's first
  /// forward).
  std::pair<const FusedForward&, ForwardPlan&> fused_program_for(const ForwardLayout& fl);

  macro::ImcMemory& mem_;
  ThreadPool pool_;
  ResidencyManager residency_;
  /// Single-op program compiler/cache; thread-safe, shared by all workers.
  /// Single-op programs write only dummy rows, so no residency change can
  /// make a cached program clobber a resident row.
  macro::OpCompiler op_compiler_;
  /// Synthetic trace track "engine N": batch/forward spans render on
  /// one timeline row whichever host thread drives the engine.
  obs::TrackId trace_track_ = 0;
  BatchStats batch_{};
  FusionStats fusion_stats_{};
  /// Packed AdaptivePolicy (bit 0 narrow_precision, bit 1 skip_zero):
  /// relaxed atomic so a serving thread can flip the policy while workers
  /// dispatch -- each run snapshots it once.
  std::atomic<std::uint8_t> adaptive_policy_{0};
  std::map<ForwardShape, FusedForward> fused_;
  ExecPlan plan_;
  ForwardLayout layout_;
};

// ---- request validation -----------------------------------------------------
// One check per request shape, shared by the engine entry points and
// serve::Server admission. Each judges the request from its spans and
// ResidentOperand metadata alone (no residency lookup, no side effect) and
// throws std::invalid_argument when it is malformed.

/// Returns the row-pair layers `op` occupies per macro of `shape`.
std::size_t validate(const VecOp& op, const ExecutionEngine& shape);
/// Fused-forward weights (one precision, MULT-unit layout, one length)
/// against an activation of `activation_elements`; returns the weights'
/// per-handle layers.
std::size_t validate_forward(std::span<const ResidentOperand> weights,
                             std::size_t activation_elements);

}  // namespace bpim::engine
