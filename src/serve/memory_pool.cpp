#include "serve/memory_pool.hpp"

#include <algorithm>
#include <thread>

#include "common/require.hpp"

namespace bpim::serve {

MemoryPool::MemoryPool(const MemoryPoolConfig& cfg) {
  BPIM_REQUIRE(cfg.memories > 0, "pool needs at least one memory");
  std::size_t threads = cfg.threads_per_memory;
  if (threads == 0) {
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    threads = std::max<std::size_t>(1, hw / cfg.memories);
  }
  nodes_.reserve(cfg.memories);
  engines_.reserve(cfg.memories);
  for (std::size_t i = 0; i < cfg.memories; ++i) {
    Node node;
    macro::MemoryConfig mcfg = cfg.memory;
    // Outside the per-memory bank stride (b * 1000): every node gets its own
    // disturb-RNG streams without overlapping a sibling's.
    mcfg.seed_offset += i * 1'000'000;
    node.memory = std::make_unique<macro::ImcMemory>(mcfg);
    node.owned_engine =
        std::make_unique<engine::ExecutionEngine>(*node.memory, engine::EngineConfig{threads});
    node.engine = node.owned_engine.get();
    engines_.push_back(node.engine);
    nodes_.push_back(std::move(node));
  }
  check_homogeneous();
}

MemoryPool::MemoryPool(std::vector<engine::ExecutionEngine*> engines)
    : engines_(std::move(engines)) {
  BPIM_REQUIRE(!engines_.empty(), "pool needs at least one engine");
  for (engine::ExecutionEngine* e : engines_)
    BPIM_REQUIRE(e != nullptr, "pool engine must not be null");
  check_homogeneous();
}

void MemoryPool::check_homogeneous() const {
  // Placement must be free to put any sub-batch on any memory, so every
  // node has to agree on the residency geometry an op maps to (macro count,
  // rows, columns) and on the result-affecting config knobs (WL scheme,
  // supply, cycle time, disturb mode, MULT pricing).
  const macro::MacroConfig& head = engines_.front()->memory().config().macro;
  const macro::MultPrices::Pricing pricing = macro::MultPrices::pricing_of(head);
  const std::size_t macros = engines_.front()->memory().macro_count();
  const std::size_t capacity = engines_.front()->row_pair_capacity();
  const double cycle_time = engines_.front()->memory().macro(0).cycle_time().si();
  for (engine::ExecutionEngine* e : engines_) {
    const macro::MacroConfig& c = e->memory().config().macro;
    BPIM_REQUIRE(e->memory().macro_count() == macros,
                 "pool memories must have identical macro counts");
    BPIM_REQUIRE(e->row_pair_capacity() == capacity,
                 "pool memories must have identical row-pair capacity");
    BPIM_REQUIRE(c.geometry.cols == head.geometry.cols,
                 "pool memories must have identical column counts");
    BPIM_REQUIRE(c.wl_scheme == head.wl_scheme,
                 "pool memories must use the same WL scheme");
    BPIM_REQUIRE(c.vdd.si() == head.vdd.si(),
                 "pool memories must run at the same supply voltage");
    // Per-component prices at vdd, activities and the write-back component:
    // equal pricings charge every op the same energy on every node.
    BPIM_REQUIRE(macro::MultPrices::pricing_of(c) == pricing,
                 "pool memories must price energy identically");
    // With injection on, per-node RNG streams (and their histories) make
    // results depend on which memory a sub-batch landed on -- the bit-identity
    // guarantee cannot hold, so refuse rather than silently break it. A
    // pool of one has no placement choice, so a single disturb-injected
    // memory (the seed's experiment setup) stays servable.
    BPIM_REQUIRE(engines_.size() == 1 || !c.inject_disturb,
                 "disturb injection breaks placement-independent results; "
                 "run injected-disturb experiments on a single memory");
    BPIM_REQUIRE(e->memory().macro(0).cycle_time().si() == cycle_time,
                 "pool memories must have identical cycle time");
  }
}

engine::ExecutionEngine& MemoryPool::engine(std::size_t i) const {
  BPIM_REQUIRE(i < engines_.size(), "pool memory index out of range");
  return *engines_[i];
}

std::size_t MemoryPool::row_pair_capacity() const {
  return engines_.front()->row_pair_capacity();
}

std::size_t MemoryPool::resident_layers(std::size_t m) const {
  BPIM_REQUIRE(m < engines_.size(), "pool memory index out of range");
  return engines_[m]->resident_layers();
}

std::size_t MemoryPool::max_resident_layers() const {
  std::size_t worst = 0;
  for (const engine::ExecutionEngine* e : engines_)
    worst = std::max(worst, e->resident_layers());
  return worst;
}

}  // namespace bpim::serve
