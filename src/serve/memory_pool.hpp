#pragma once
// Multi-memory scale-out: N independent ImcMemory + ExecutionEngine pairs
// behind one placement policy -- the NUMA-style tier the ROADMAP called for.
//
// Each memory models one NUMA node: its own SRAM arrays, RNG streams,
// energy ledgers, and engine thread pool. Nodes never share mutable state,
// so sub-batches dispatched to distinct memories may execute concurrently
// on the host, and in the cycle model the memories always run in parallel
// (the serving makespan is the busiest memory's cycle total).
//
// The pool does not schedule; serve::Server's scheduler coalesces requests
// exactly as on a single memory, then asks place() which memory each
// per-memory sub-batch of the dispatch group should run on:
//
//   RoundRobin        rotate through the memories; oblivious but fair.
//   LeastLoaded       pick the memory with the fewest modeled cycles
//                     dispatched so far (in-group assignments are charged an
//                     estimate immediately, so one group spreads out).
//   StickyByOperand   hash of the sub-batch head's operand bytes; repeated
//                     weight rows land on the same memory, the affinity a
//                     persistent-residency tier needs.
//
// Placement never changes results: every op runs the same chunk walk on
// whichever memory it lands on, and the nodes are configuration-identical.
// Disturb injection would break that (per-node RNG streams diverge), so the
// pool refuses it at construction; run injected-disturb experiments on a
// single memory. Bit-identity to serial single-memory execution is asserted
// by tests/test_memory_pool.cpp.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.hpp"
#include "engine/execution_engine.hpp"
#include "macro/memory.hpp"

namespace bpim::serve {

enum class Placement { RoundRobin, LeastLoaded, StickyByOperand };

[[nodiscard]] const char* to_string(Placement p);

struct MemoryPoolConfig {
  std::size_t memories = 1;
  /// Per-node memory shape; every node is built from this config (node i
  /// additionally gets seed_offset = i * 1'000'000 to decorrelate disturb
  /// streams across nodes).
  macro::MemoryConfig memory{};
  /// Engine worker threads per node; 0 divides the hardware threads evenly
  /// across the nodes (at least one each).
  std::size_t threads_per_memory = 0;
  Placement placement = Placement::LeastLoaded;
};

class MemoryPool {
 public:
  /// Owning: build `memories` identical nodes from the config.
  explicit MemoryPool(const MemoryPoolConfig& cfg);
  /// Non-owning: wrap caller-owned engines (which must outlive the pool and
  /// be shape-identical -- same macro count and rows).
  MemoryPool(std::vector<engine::ExecutionEngine*> engines, Placement placement);

  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  [[nodiscard]] std::size_t size() const { return engines_.size(); }
  [[nodiscard]] engine::ExecutionEngine& engine(std::size_t i) const;
  [[nodiscard]] Placement placement() const { return placement_; }

  /// Row pairs available per memory -- the residency budget of one
  /// sub-batch (identical across nodes; enforced at construction).
  [[nodiscard]] std::size_t row_pair_capacity() const;
  /// Row-pair layers pinned operands currently hold on memory `m` (what
  /// the coalescer subtracts from row_pair_capacity() when budgeting
  /// transient operands).
  [[nodiscard]] std::size_t resident_layers(std::size_t m) const;
  /// The largest resident set across the pool: the conservative per-memory
  /// transient budget for sub-batches whose placement is still open.
  [[nodiscard]] std::size_t max_resident_layers() const;

  /// One sub-batch of a dispatch group, as the placement policy sees it.
  struct Slot {
    std::size_t layers = 0;        ///< summed row-pair layers
    std::uint64_t operand_hash = 0;  ///< hash of the head op's operands
    /// Memory holding the sub-batch's resident operands; when set the
    /// placement policy has no choice -- the requests must run there.
    std::optional<std::size_t> home;
  };

  /// Assign each slot of one dispatch group a memory index. Deterministic
  /// for a given pool history. Scheduler-thread only.
  [[nodiscard]] std::vector<std::size_t> place(const std::vector<Slot>& group)
      BPIM_EXCLUDES(mutex_);

  /// Completion feedback: `pipelined_cycles` ran on memory `mem`. Keeps the
  /// least-loaded account honest. Called concurrently from the server's
  /// lane workers as each sub-batch finishes; the load account is
  /// mutex-guarded (unlike rr_next_: one dispatcher at a time, the scheduler
  /// or a submitting thread holding the token).
  void on_batch_done(std::size_t mem, std::size_t layers, std::uint64_t pipelined_cycles)
      BPIM_EXCLUDES(mutex_);

  /// Cumulative modeled pipelined cycles dispatched per memory (snapshot;
  /// callable from any thread).
  [[nodiscard]] std::vector<std::uint64_t> dispatched_cycles() const BPIM_EXCLUDES(mutex_);

 private:
  /// One NUMA node. Owning pools populate memory/owned_engine; non-owning
  /// pools only set engine.
  struct Node {
    std::unique_ptr<macro::ImcMemory> memory;
    std::unique_ptr<engine::ExecutionEngine> owned_engine;
    engine::ExecutionEngine* engine = nullptr;
  };

  void check_homogeneous() const;

  std::vector<Node> nodes_;
  std::vector<engine::ExecutionEngine*> engines_;  ///< flat view, index == memory id
  Placement placement_ = Placement::LeastLoaded;
  std::size_t rr_next_ = 0;  ///< RoundRobin cursor (one dispatcher at a time)
  /// Guards the load account (written by the dispatcher and lane workers,
  /// read by stats).
  mutable Mutex mutex_;
  /// Completed pipelined cycles per memory.
  std::vector<std::uint64_t> load_cycles_ BPIM_GUARDED_BY(mutex_);
  /// Across memories, for the in-flight estimate.
  std::uint64_t total_cycles_ BPIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t total_layers_ BPIM_GUARDED_BY(mutex_) = 0;
};

}  // namespace bpim::serve
