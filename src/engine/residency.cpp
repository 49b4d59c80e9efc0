#include "engine/residency.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bpim::engine {

namespace {

/// Process-wide residency counters (all managers aggregate; per-manager
/// numbers stay in ResidencyStats). Function-local static so first use
/// orders construction after the registry.
struct ResidencyMetrics {
  obs::Counter& pins;
  obs::Counter& unpins;
  obs::Counter& evictions;
  obs::Counter& materializations;
};

ResidencyMetrics& residency_metrics() {
  static ResidencyMetrics m{
      obs::MetricsRegistry::global().counter(
          "residency.pins", "Operands pinned resident (all managers)"),
      obs::MetricsRegistry::global().counter(
          "residency.unpins", "Pinned operands dropped"),
      obs::MetricsRegistry::global().counter(
          "residency.evictions", "Materialized handles evicted LRU-first"),
      obs::MetricsRegistry::global().counter(
          "residency.materializations",
          "Handle loads into array rows, including re-loads after eviction"),
  };
  return m;
}

}  // namespace

std::atomic<std::uint64_t> ResidencyManager::id_counter_{1};

const char* to_string(OperandLayout layout) {
  switch (layout) {
    case OperandLayout::Word:
      return "word";
    case OperandLayout::MultUnit:
      return "mult-unit";
  }
  return "?";
}

ResidencyManager::ResidencyManager(std::size_t row_pair_capacity)
    : capacity_(row_pair_capacity),
      owner_(row_pair_capacity, nullptr),
      run_begin_(row_pair_capacity),
      run_end_(row_pair_capacity) {
  BPIM_REQUIRE(capacity_ > 0, "residency needs at least one row pair");
}

ResidentOperand ResidencyManager::pin(std::span<const std::uint64_t> values, unsigned bits,
                                      OperandLayout layout, std::size_t layers) {
  BPIM_REQUIRE(!values.empty(), "cannot pin an empty operand");
  BPIM_REQUIRE(layers > 0 && layers <= capacity_,
               "pinned operand exceeds the array's row-pair capacity");
  ResidentOperand h;
  h.id = next_operand_id();
  h.elements = values.size();
  h.bits = bits;
  h.layout = layout;
  h.layers = layers;

  auto entry = std::make_unique<Entry>();
  entry->handle = h;
  entry->values.assign(values.begin(), values.end());

  residency_metrics().pins.add();
  BPIM_TRACE_INSTANT("residency.pin", 0,
                     {{"handle", static_cast<double>(h.id)},
                      {"layers", static_cast<double>(h.layers)},
                      {"bits", static_cast<double>(h.bits)}});

  MutexLock lk(mutex_);
  entry->last_use = ++tick_;
  entries_.emplace(h.id, std::move(entry));
  return h;
}

bool ResidencyManager::unpin(std::uint64_t id) {
  MutexLock lk(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  if (it->second->materialized) occupy(*it->second, nullptr);
  entries_.erase(it);
  residency_metrics().unpins.add();
  BPIM_TRACE_INSTANT("residency.unpin", 0, {{"handle", static_cast<double>(id)}});
  return true;
}

ResidencyStats ResidencyManager::stats() const {
  MutexLock lk(mutex_);
  ResidencyStats s;
  s.pinned = entries_.size();
  for (const auto& [id, e] : entries_) s.pinned_layers += e->handle.layers;
  s.resident_layers = resident_layers_;
  s.materializations = materializations_;
  s.evictions = evictions_;
  s.load_cycles_saved = load_cycles_saved_;
  return s;
}

std::size_t ResidencyManager::resident_layers() const {
  MutexLock lk(mutex_);
  return resident_layers_;
}

ResidencyManager::Entry* ResidencyManager::touch(std::uint64_t id) {
  MutexLock lk(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  it->second->last_use = ++tick_;
  return it->second.get();
}

void ResidencyManager::occupy(Entry& e, Entry* owner) {
  std::fill_n(owner_.begin() + static_cast<std::ptrdiff_t>(e.base_pair), e.handle.layers, owner);
  if (owner != nullptr)
    resident_layers_ += e.handle.layers;
  else
    resident_layers_ -= e.handle.layers;
  e.materialized = owner != nullptr;
}

void ResidencyManager::evict(Entry& e) {
  occupy(e, nullptr);
  ++evictions_;
  residency_metrics().evictions.add();
  BPIM_TRACE_INSTANT("residency.evict", 0,
                     {{"handle", static_cast<double>(e.handle.id)},
                      {"layers", static_cast<double>(e.handle.layers)}});
}

template <class Pred>
bool ResidencyManager::evict_lru(std::size_t below, Pred&& victim_ok) {
  // Walk the map bottom-up one entry (not one pair) at a time. Ticks are
  // unique, so the victim does not depend on the walk order.
  Entry* victim = nullptr;
  for (std::size_t p = 0; p < below;) {
    Entry* e = owner_[p];
    if (e == nullptr) {
      ++p;
      continue;
    }
    if (victim_ok(*e) && (victim == nullptr || e->last_use < victim->last_use)) victim = e;
    p = e->base_pair + e->handle.layers;
  }
  if (victim == nullptr) return false;
  evict(*victim);
  return true;
}

void ResidencyManager::reserve_transient(std::size_t transient_layers) {
  MutexLock lk(mutex_);
  BPIM_REQUIRE(transient_layers <= capacity_, "vector exceeds memory capacity");
  // Handles allocate top-down, so a conflict with the bottom transient
  // region is exactly the "pinned + transient exceeds capacity" overflow;
  // evict the handles based inside the region LRU-first until it is clear.
  evict_below(transient_layers);
}

void ResidencyManager::evict_below(std::size_t pairs) {
  while (evict_lru(pairs, [](const Entry&) { return true; })) {
  }
}

std::size_t ResidencyManager::find_gap(std::size_t layers, std::size_t floor) const {
  // The first run to reach `layers` free pairs on the way down is the top
  // of the highest gap that fits; an occupied pair skips its whole entry.
  std::size_t run = 0;
  for (std::size_t p = capacity_; p-- > floor;) {
    if (const Entry* e = owner_[p]; e != nullptr) {
      run = 0;
      p = e->base_pair;
    } else if (++run == layers) {
      return p;
    }
  }
  return capacity_;
}

bool ResidencyManager::ensure_rows(Entry& e, std::size_t floor, const Entry* keep) {
  MutexLock lk(mutex_);
  if (e.materialized) return false;
  BPIM_REQUIRE(floor + e.handle.layers <= capacity_,
               "pinned operand does not fit above the reserved transient region");
  for (;;) {
    const std::size_t base = find_gap(e.handle.layers, floor);
    if (base < capacity_) {
      e.base_pair = base;
      occupy(e, &e);
      e.last_use = ++tick_;
      ++materializations_;
      residency_metrics().materializations.add();
      return true;
    }
    const bool evicted = evict_lru(
        capacity_, [&](const Entry& victim) { return &victim != &e && &victim != keep; });
    // The floor check above leaves room for `e` in an otherwise empty
    // array; running out of victims here would be a bookkeeping defect.
    BPIM_REQUIRE(evicted, "residency allocator found no gap and no victim");
  }
}

std::size_t ResidencyManager::evict_for_run(std::size_t need, std::size_t floor,
                                            std::uint64_t members_after) {
  // One walk above the floor (nothing is left below it): collect the
  // non-members and tag the ends of every free run.
  victims_.clear();
  for (std::size_t p = floor; p < capacity_;) {
    if (Entry* e = owner_[p]; e != nullptr) {
      if (e->last_use <= members_after) victims_.push_back(e);
      p = e->base_pair + e->handle.layers;
      continue;
    }
    std::size_t end = p;
    while (end < capacity_ && owner_[end] == nullptr) ++end;
    run_end_[p] = end;
    run_begin_[end - 1] = p;
    p = end;
  }
  std::sort(victims_.begin(), victims_.end(),
            [](const Entry* a, const Entry* b) { return a->last_use < b->last_use; });
  // Before any eviction no run fits, and each eviction changes only the run
  // its pairs join, so the first run to reach `need` is the one
  // find_gap(need, floor) would return -- the only one that fits.
  for (Entry* v : victims_) {
    std::size_t lo = v->base_pair;
    std::size_t hi = lo + v->handle.layers;
    evict(*v);
    if (lo > floor && owner_[lo - 1] == nullptr) lo = run_begin_[lo - 1];
    if (hi < capacity_ && owner_[hi] == nullptr) hi = run_end_[hi];
    run_end_[lo] = hi;
    run_begin_[hi - 1] = lo;
    if (hi - lo >= need) return hi - need;
  }
  return capacity_;
}

bool ResidencyManager::ensure_block(std::span<const ResidentOperand> group, std::size_t floor,
                                    std::span<Entry*> entries, std::span<std::uint8_t> loaded) {
  MutexLock lk(mutex_);
  // Every member's clock ticks past `before`; no other entry's does, so
  // "last used after `before`" is membership, and a member's last
  // occurrence in the group is the one whose tick matches its position.
  const std::uint64_t before = tick_;
  std::size_t layers = 0;
  for (std::size_t j = 0; j < group.size(); ++j) {
    const auto it = entries_.find(group[j].id);
    BPIM_REQUIRE(it != entries_.end(),
                 "unknown resident operand (unpinned, or pinned on another engine)");
    entries[j] = it->second.get();
    entries[j]->last_use = ++tick_;
    layers += entries[j]->handle.layers;
  }
  if (floor + layers > capacity_) return false;
  evict_below(floor);

  std::size_t need = 0;   // pairs of the distinct members without rows
  std::size_t whole = 0;  // pairs of all distinct members
  for (std::size_t j = 0; j < group.size(); ++j) {
    const Entry& e = *entries[j];
    if (e.last_use != before + 1 + j) continue;
    whole += e.handle.layers;
    if (!e.materialized) need += e.handle.layers;
  }
  if (need == 0) return true;
  std::size_t base = find_gap(need, floor);
  if (base == capacity_) base = evict_for_run(need, floor, before);
  if (base == capacity_) {
    // The resident members fragment the pairs above the floor. The group
    // fits an empty array: clear it and place every member again.
    evict_below(capacity_);
    need = whole;
    base = capacity_ - need;
  }
  std::size_t top = base + need;
  for (std::size_t j = 0; j < group.size(); ++j) {
    Entry& e = *entries[j];
    if (e.materialized) continue;
    top -= e.handle.layers;
    e.base_pair = top;
    occupy(e, &e);
    e.last_use = ++tick_;
    ++materializations_;
    residency_metrics().materializations.add();
    loaded[j] = 1;
  }
  return true;
}

void ResidencyManager::note_saved(std::uint64_t cycles) {
  MutexLock lk(mutex_);
  load_cycles_saved_ += cycles;
}

std::vector<std::pair<std::size_t, std::size_t>> ResidencyManager::materialized_intervals()
    const {
  MutexLock lk(mutex_);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t p = 0; p < capacity_;) {
    const Entry* e = owner_[p];
    if (e == nullptr) {
      ++p;
      continue;
    }
    out.emplace_back(e->base_pair, e->handle.layers);
    p += e->handle.layers;
  }
  return out;
}

}  // namespace bpim::engine
