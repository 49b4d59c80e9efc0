#pragma once
// Multi-memory scale-out: N independent, shape-identical ImcMemory +
// ExecutionEngine pairs -- the NUMA-style tier the ROADMAP called for.
//
// Each memory models one NUMA node: its own SRAM arrays, RNG streams,
// energy ledgers, and engine thread pool. Nodes never share mutable state,
// so sub-batches dispatched to distinct memories may execute concurrently
// on the host, and in the cycle model the memories always run in parallel
// (the serving makespan is the busiest memory's cycle total).
//
// The pool is a plain container: it neither schedules nor places. Its
// server (serve::Server) coalesces requests exactly as on a single memory
// and puts each per-memory sub-batch of a dispatch group on a memory from
// its own ledger (the least-loaded rule, see Server::dispatch).
//
// Placement never changes results: every op runs the same chunk walk on
// whichever memory it lands on, and the nodes are configuration-identical
// (geometry, WL scheme, supply, cycle time and MULT pricing; checked at
// construction). Disturb injection would break that (per-node RNG streams
// diverge), so the pool refuses it; run injected-disturb experiments on a
// single memory. Bit-identity to serial single-memory execution is asserted
// by tests/test_memory_pool.cpp.

#include <memory>
#include <vector>

#include "engine/execution_engine.hpp"
#include "macro/memory.hpp"

namespace bpim::serve {

struct MemoryPoolConfig {
  std::size_t memories = 1;
  /// Per-node memory shape; every node is built from this config (node i
  /// additionally gets seed_offset = i * 1'000'000 to decorrelate disturb
  /// streams across nodes).
  macro::MemoryConfig memory{};
  /// Engine worker threads per node; 0 divides the hardware threads evenly
  /// across the nodes (at least one each).
  std::size_t threads_per_memory = 0;
};

class MemoryPool {
 public:
  /// Owning: build `memories` identical nodes from the config.
  explicit MemoryPool(const MemoryPoolConfig& cfg);
  /// Non-owning: wrap caller-owned engines (which must outlive the pool and
  /// be configuration-identical; checked here).
  explicit MemoryPool(std::vector<engine::ExecutionEngine*> engines);

  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  [[nodiscard]] std::size_t size() const { return engines_.size(); }
  [[nodiscard]] engine::ExecutionEngine& engine(std::size_t i) const;

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
};

}  // namespace bpim::serve
