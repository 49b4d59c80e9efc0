#include "serve/memory_pool.hpp"

#include <algorithm>
#include <thread>

#include "common/require.hpp"

namespace bpim::serve {

const char* to_string(Placement p) {
  switch (p) {
    case Placement::RoundRobin:
      return "round-robin";
    case Placement::LeastLoaded:
      return "least-loaded";
    case Placement::StickyByOperand:
      return "sticky-by-operand";
  }
  return "?";
}

MemoryPool::MemoryPool(const MemoryPoolConfig& cfg) : placement_(cfg.placement) {
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
  load_cycles_.assign(engines_.size(), 0);
  check_homogeneous();
}

MemoryPool::MemoryPool(std::vector<engine::ExecutionEngine*> engines, Placement placement)
    : engines_(std::move(engines)), placement_(placement) {
  BPIM_REQUIRE(!engines_.empty(), "pool needs at least one engine");
  for (engine::ExecutionEngine* e : engines_)
    BPIM_REQUIRE(e != nullptr, "pool engine must not be null");
  load_cycles_.assign(engines_.size(), 0);
  check_homogeneous();
}

void MemoryPool::check_homogeneous() const {
  // Placement must be free to put any sub-batch on any memory, so every
  // node has to agree on the residency geometry an op maps to (macro count,
  // rows, columns) and on the result-affecting config knobs (WL scheme,
  // supply, cycle time, disturb mode). Energy-parameter equality is the
  // caller's responsibility on a non-owning pool; the owning constructor
  // builds every node from one config.
  const macro::MacroConfig& head = engines_.front()->memory().config().macro;
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
    // With injection on, per-node RNG streams (and their histories) make
    // results depend on which memory place() chose -- the bit-identity
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

std::vector<std::size_t> MemoryPool::place(const std::vector<Slot>& group) {
  // Residency overrides policy: a sub-batch whose requests reference
  // pinned operands runs on the memory that holds them. Only the free
  // slots go through the configured policy.
  std::vector<std::size_t> where;
  where.reserve(group.size());
  const std::size_t n = engines_.size();
  switch (placement_) {
    case Placement::RoundRobin:
      for (const Slot& s : group) {
        if (s.home) {
          where.push_back(*s.home);
          continue;
        }
        where.push_back(rr_next_);
        rr_next_ = (rr_next_ + 1) % n;
      }
      break;
    case Placement::StickyByOperand:
      // Pure function of the operands: the same weight rows always land on
      // the same memory, whatever ran before. Handle-backed sub-batches
      // are stickier still -- their home memory holds the rows.
      for (const Slot& s : group) where.push_back(s.home ? *s.home : s.operand_hash % n);
      break;
    case Placement::LeastLoaded: {
      MutexLock lk(mutex_);
      // Charge each assignment an in-flight estimate right away, so the
      // sub-batches of one concurrent dispatch group spread across
      // memories instead of all chasing the same minimum. Homed slots are
      // charged too -- their load is just as real to later free slots.
      const std::uint64_t cycles_per_layer =
          total_layers_ == 0 ? 1 : std::max<std::uint64_t>(1, total_cycles_ / total_layers_);
      std::vector<std::uint64_t> load = load_cycles_;
      for (const Slot& s : group) {
        const std::size_t m = s.home ? *s.home
                                     : static_cast<std::size_t>(std::min_element(
                                           load.begin(), load.end()) -
                                       load.begin());
        where.push_back(m);
        load[m] += std::max<std::uint64_t>(1, s.layers * cycles_per_layer);
      }
      break;
    }
  }
  return where;
}

void MemoryPool::on_batch_done(std::size_t mem, std::size_t layers,
                               std::uint64_t pipelined_cycles) {
  MutexLock lk(mutex_);
  BPIM_REQUIRE(mem < load_cycles_.size(), "pool memory index out of range");
  load_cycles_[mem] += pipelined_cycles;
  total_cycles_ += pipelined_cycles;
  total_layers_ += layers;
}

std::vector<std::uint64_t> MemoryPool::dispatched_cycles() const {
  MutexLock lk(mutex_);
  return load_cycles_;
}

}  // namespace bpim::serve
