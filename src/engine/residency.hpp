#pragma once
// Persistent operand residency: pin an operand's rows into the array once
// and let every later op reference it by handle instead of re-poking the
// same values (the weight-stationary organization SRAM IMC is built for --
// the NN layers re-loaded identical weight rows on every forward pass).
//
// The ResidencyManager owns the pinned set of one ExecutionEngine (one
// ImcMemory). Each handle occupies `layers` row pairs *per macro*,
// allocated top-down from the array so they stay clear of the transient
// region ops stage through at the bottom (pairs [0, layers)). An op that
// references a handle computes directly on the handle's pairs -- its
// activation side is poked into the odd row of each pair -- so it consumes
// no transient pairs at all, and the cycle model charges only the
// activation load (1 row write per layer instead of 2).
//
// pin() only registers: the single materializing write happens on first
// use inside run()/run_batch() (on the engine's run thread, so clients of a
// serve::Server may pin concurrently with dispatch) and is charged to that
// batch's load cycles. When the pinned set plus a batch's transient
// operands exceed row_pair_capacity(), materialized handles are evicted --
// least-recently-used first among those whose rows conflict -- and
// transparently re-materialized (and re-charged) on their next use.
//
// One reservation concept: a caller that keeps a transient region live
// while it materializes handles (a fused forward's activation pairs)
// passes that region's size as the floor, and no handle is placed below
// it. The allocator reads an occupancy map -- the owning entry of every
// row pair -- plus a running resident-layer count, so gap search, LRU
// eviction and the budget queries neither allocate nor sort.
//
// A fused forward is one block: ensure_block() resolves all of its weight
// handles and places every one without rows as a single contiguous run
// above the floor, under one lock. One gap search; when nothing fits, one
// walk collects the other handles, and they are evicted LRU first until
// the free run their pairs join is long enough -- exactly the victims of
// "evict the LRU non-member until a gap fits". Members still resident stay
// where they are. ensure_rows() places the one or two handles of a single
// op.
//
// Thread-safety: every method locks the manager's mutex. Entries live
// behind stable unique_ptrs, so an Entry* held by the run thread survives
// concurrent pin() calls. Do not unpin a handle while ops referencing it
// are still in flight.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"

namespace bpim::engine {

/// Row layout of a pinned operand: plain precision words (ADD/SUB/LOGIC
/// rows) or 2N-bit MULT units with the operand in each unit's low half.
enum class OperandLayout { Word, MultUnit };

[[nodiscard]] const char* to_string(OperandLayout layout);

/// Client-side handle to a pinned operand. A cheap value type: the id
/// resolves the entry, the rest is cached geometry so schedulers can do
/// budget math without touching the owning engine. Ids are process-unique,
/// so a handle also identifies which engine of a pool holds the operand.
struct ResidentOperand {
  std::uint64_t id = 0;  ///< 0 = "no handle"
  std::uint64_t elements = 0;
  unsigned bits = 0;
  OperandLayout layout = OperandLayout::Word;
  std::size_t layers = 0;  ///< row-pair layers per macro

  [[nodiscard]] explicit operator bool() const { return id != 0; }
};

/// Observability counters for one manager (Engine::residency_stats()).
struct ResidencyStats {
  std::size_t pinned = 0;           ///< live handles (materialized or not)
  std::size_t pinned_layers = 0;    ///< summed layers of live handles
  std::size_t resident_layers = 0;  ///< layers currently holding rows
  std::uint64_t materializations = 0;  ///< loads, including re-loads after eviction
  std::uint64_t evictions = 0;
  std::uint64_t load_cycles_saved = 0;  ///< cumulative, vs. re-poking every op
};

class ResidencyManager {
 public:
  explicit ResidencyManager(std::size_t row_pair_capacity);

  ResidencyManager(const ResidencyManager&) = delete;
  ResidencyManager& operator=(const ResidencyManager&) = delete;

  /// Register a pinned operand (values are copied; no SRAM traffic here --
  /// materialization is lazy, see file header). `layers` must fit the
  /// array on its own.
  [[nodiscard]] ResidentOperand pin(std::span<const std::uint64_t> values, unsigned bits,
                                    OperandLayout layout, std::size_t layers)
      BPIM_EXCLUDES(mutex_);
  /// Drop a handle (false when unknown). The rows are simply freed; the
  /// data is abandoned in place like any other stale SRAM content.
  bool unpin(std::uint64_t id) BPIM_EXCLUDES(mutex_);

  /// Draw the next handle id from the process-wide stream. Ids stay unique
  /// across every engine of a multi-memory pool, so a serve-layer registry
  /// can route by id alone. Class-scope (not a function-local static) so
  /// the thread-safety analysis and tests can name it.
  [[nodiscard]] static std::uint64_t next_operand_id() {
    return id_counter_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] ResidencyStats stats() const BPIM_EXCLUDES(mutex_);
  /// Row-pair layers currently materialized (the budget batch schedulers
  /// subtract from row_pair_capacity()).
  [[nodiscard]] std::size_t resident_layers() const BPIM_EXCLUDES(mutex_);

  // ---- run-thread side (the engine, inside run()/run_batch()) -------------

  /// One pinned operand's live state. Fields other than `values` are
  /// guarded by the manager's mutex; the run thread reads them between
  /// manager calls under the single-run_batch-at-a-time engine contract.
  struct Entry {
    ResidentOperand handle;
    std::vector<std::uint64_t> values;
    bool materialized = false;
    std::size_t base_pair = 0;  ///< first row pair (per macro) when materialized
    std::uint64_t last_use = 0;
  };

  /// Resolve a handle for execution and bump its LRU clock. Null if the id
  /// is unknown (unpinned, or pinned on a different engine).
  [[nodiscard]] Entry* touch(std::uint64_t id) BPIM_EXCLUDES(mutex_);

  /// Free the bottom `transient_layers` row pairs for a fully-transient op:
  /// materialized handles whose rows conflict are evicted, LRU first.
  void reserve_transient(std::size_t transient_layers) BPIM_EXCLUDES(mutex_);

  /// Give `e` rows if it has none: the highest free run at or above pair
  /// `floor` (the transient region the caller keeps reserved below it),
  /// evicting LRU handles as needed (never `keep`, the other side of the
  /// same op). Returns true when the caller must write the values into the
  /// rows.
  [[nodiscard]] bool ensure_rows(Entry& e, std::size_t floor, const Entry* keep = nullptr)
      BPIM_EXCLUDES(mutex_);

  /// Place a fused forward's weights as one block, under one lock. Resolves
  /// `group` into `entries` (bumping each LRU clock in order, as touch()
  /// does; an unknown id throws). Returns false, placing nothing, when
  /// `floor` plus the group's layers exceed the array. Otherwise evicts the
  /// handles below `floor` and gives every member without rows pairs of one
  /// contiguous run at or above it, first member on top: the highest gap
  /// that fits, else the run that evicting other handles LRU first opens.
  /// When the resident members leave no such run even with every other
  /// handle gone, the array is cleared and the whole group placed again.
  /// Sets `loaded[j]` when member j was placed here and the caller must
  /// write its values. Both spans hold one slot per member.
  [[nodiscard]] bool ensure_block(std::span<const ResidentOperand> group, std::size_t floor,
                                  std::span<Entry*> entries, std::span<std::uint8_t> loaded)
      BPIM_EXCLUDES(mutex_);

  /// Accumulate the load cycles an op avoided by referencing handles.
  void note_saved(std::uint64_t cycles) BPIM_EXCLUDES(mutex_);

  /// Snapshot of the materialized intervals as (base_pair, layers) pairs --
  /// the pinned-row map a fusion compiler verifies emitted programs
  /// against (macro::PinnedRows, after the pair->row conversion).
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> materialized_intervals() const
      BPIM_EXCLUDES(mutex_);

 private:
  /// Base of the highest free run of `layers` pairs at or above `floor`,
  /// or capacity_ when none fits: one top-down walk of the occupancy map.
  [[nodiscard]] std::size_t find_gap(std::size_t layers, std::size_t floor) const
      BPIM_REQUIRES(mutex_);
  /// Point the occupancy map's pairs of `e` at `owner` (e or null) and keep
  /// the resident-layer count in step.
  void occupy(Entry& e, Entry* owner) BPIM_REQUIRES(mutex_);
  /// Free `e`'s pairs and count the eviction.
  void evict(Entry& e) BPIM_REQUIRES(mutex_);
  /// Evict the LRU materialized entry based below pair `below` that
  /// satisfies `victim_ok`; false if none.
  template <class Pred>
  bool evict_lru(std::size_t below, Pred&& victim_ok) BPIM_REQUIRES(mutex_);
  /// Evict every materialized entry based below pair `pairs`, LRU first.
  void evict_below(std::size_t pairs) BPIM_REQUIRES(mutex_);
  /// ensure_block's sweep: evict entries last used at or before tick
  /// `members_after` (the non-members) LRU first until a free run of
  /// `need` pairs opens at or above `floor`; its base, or capacity_ when
  /// the victims run out first.
  [[nodiscard]] std::size_t evict_for_run(std::size_t need, std::size_t floor,
                                          std::uint64_t members_after) BPIM_REQUIRES(mutex_);

  static std::atomic<std::uint64_t> id_counter_;  ///< next_operand_id() stream

  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Entry>> entries_ BPIM_GUARDED_BY(mutex_);
  /// Occupancy map: the materialized entry holding each row pair, or null.
  std::vector<Entry*> owner_ BPIM_GUARDED_BY(mutex_);
  /// evict_for_run scratch: each maximal free run [a, b) is tagged at its
  /// ends, run_end_[a] == b and run_begin_[b - 1] == a, so freeing a
  /// victim's pairs merges its neighbour runs in O(1).
  std::vector<std::size_t> run_begin_ BPIM_GUARDED_BY(mutex_);
  std::vector<std::size_t> run_end_ BPIM_GUARDED_BY(mutex_);
  std::vector<Entry*> victims_ BPIM_GUARDED_BY(mutex_);
  std::size_t resident_layers_ BPIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t tick_ BPIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t materializations_ BPIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ BPIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t load_cycles_saved_ BPIM_GUARDED_BY(mutex_) = 0;
};

}  // namespace bpim::engine
