#include "macro/memory.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace bpim::macro {

Bank::Bank(const MacroConfig& macro_cfg, std::size_t macro_count, std::uint64_t seed_base,
           const std::shared_ptr<const MultPrices>& mult_prices) {
  BPIM_REQUIRE(macro_count > 0, "bank needs at least one macro");
  macros_.reserve(macro_count);
  for (std::size_t i = 0; i < macro_count; ++i) {
    MacroConfig c = macro_cfg;
    c.seed = seed_base + i;  // decorrelate disturb injection across macros
    macros_.push_back(std::make_unique<ImcMacro>(c, mult_prices));
  }
}

ImcMacro& Bank::macro(std::size_t i) {
  BPIM_REQUIRE(i < macros_.size(), "macro index out of range");
  return *macros_[i];
}

const ImcMacro& Bank::macro(std::size_t i) const {
  BPIM_REQUIRE(i < macros_.size(), "macro index out of range");
  return *macros_[i];
}

Joule Bank::total_energy() const {
  Joule e;
  for (const auto& m : macros_) e += m->total_energy();
  return e;
}

std::uint64_t Bank::elapsed_cycles() const {
  std::uint64_t c = 0;
  for (const auto& m : macros_) c = std::max(c, m->total_cycles());
  return c;
}

void Bank::reset_counters() {
  for (auto& m : macros_) m->reset_counters();
}

ImcMemory::ImcMemory(const MemoryConfig& cfg) : cfg_(cfg) {
  BPIM_REQUIRE(cfg.banks > 0, "memory needs at least one bank");
  banks_.reserve(cfg.banks);
  // The macros differ only in their seeds, so they price identically and
  // share one MULT price table.
  const auto mult_prices = std::make_shared<const MultPrices>(MultPrices::pricing_of(cfg.macro));
  for (std::size_t b = 0; b < cfg.banks; ++b) {
    banks_.push_back(std::make_unique<Bank>(cfg.macro, cfg.macros_per_bank,
                                            cfg.macro.seed + cfg.seed_offset + b * 1000,
                                            mult_prices));
    for (std::size_t i = 0; i < cfg.macros_per_bank; ++i)
      macros_.push_back(&banks_.back()->macro(i));
  }
}

Bank& ImcMemory::bank(std::size_t b) {
  BPIM_REQUIRE(b < banks_.size(), "bank index out of range");
  return *banks_[b];
}

const Bank& ImcMemory::bank(std::size_t b) const {
  BPIM_REQUIRE(b < banks_.size(), "bank index out of range");
  return *banks_[b];
}

std::size_t ImcMemory::capacity_bytes() const {
  const auto& g = cfg_.macro.geometry;
  return macro_count() * g.rows * g.cols / 8;
}

Joule ImcMemory::total_energy() const {
  Joule e;
  for (const auto& b : banks_) e += b->total_energy();
  return e;
}

std::uint64_t ImcMemory::elapsed_cycles() const {
  std::uint64_t c = 0;
  for (const auto& b : banks_) c = std::max(c, b->elapsed_cycles());
  return c;
}

void ImcMemory::reset_counters() {
  for (auto& b : banks_) b->reset_counters();
}

}  // namespace bpim::macro
