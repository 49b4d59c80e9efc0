#pragma once
// Bank / memory hierarchy: the paper's 128 KB configuration is 4 banks of
// bit-parallel IMC macros (Table 3: "4 x 128 x 128"). Each 128x128 macro
// stores 2 KB, so the 128 KB part aggregates 64 macros, 16 per bank. Banks
// operate independently; macros within a bank share command sequencing and
// can execute the same row-level operation in lock-step (the vector engine
// in app/ exploits this).

#include <cstddef>
#include <memory>
#include <vector>

#include "common/require.hpp"
#include "macro/imc_macro.hpp"

namespace bpim::macro {

struct MemoryConfig {
  MacroConfig macro{};
  std::size_t banks = 4;
  std::size_t macros_per_bank = 16;
  /// Added to every macro's RNG seed. Lets a multi-memory deployment give
  /// each ImcMemory instance (NUMA node) a decorrelated disturb-injection
  /// stream while sharing one MacroConfig. Op results and RunStats do not
  /// depend on it unless `macro.inject_disturb` is enabled.
  std::uint64_t seed_offset = 0;
};

class Bank {
 public:
  /// `mult_prices` is shared by every macro (see ImcMacro's constructor).
  Bank(const MacroConfig& macro_cfg, std::size_t macro_count, std::uint64_t seed_base,
       const std::shared_ptr<const MultPrices>& mult_prices);

  [[nodiscard]] std::size_t macro_count() const { return macros_.size(); }
  [[nodiscard]] ImcMacro& macro(std::size_t i);
  [[nodiscard]] const ImcMacro& macro(std::size_t i) const;

  /// Energy summed over macros; elapsed cycles = max (lock-step execution).
  [[nodiscard]] Joule total_energy() const;
  [[nodiscard]] std::uint64_t elapsed_cycles() const;
  void reset_counters();

 private:
  std::vector<std::unique_ptr<ImcMacro>> macros_;
};

class ImcMemory {
 public:
  explicit ImcMemory(const MemoryConfig& cfg = {});

  [[nodiscard]] const MemoryConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t bank_count() const { return banks_.size(); }
  [[nodiscard]] Bank& bank(std::size_t b);
  [[nodiscard]] const Bank& bank(std::size_t b) const;
  /// Macro by flat index across banks: one lookup in a table built at
  /// construction.
  [[nodiscard]] ImcMacro& macro(std::size_t flat) {
    BPIM_REQUIRE(flat < macros_.size(), "macro index out of range");
    return *macros_[flat];
  }
  [[nodiscard]] std::size_t macro_count() const { return macros_.size(); }

  /// Storage capacity in bytes (main arrays only, dummy rows excluded).
  [[nodiscard]] std::size_t capacity_bytes() const;

  [[nodiscard]] Joule total_energy() const;
  /// Elapsed cycles assuming banks run fully in parallel.
  [[nodiscard]] std::uint64_t elapsed_cycles() const;
  void reset_counters();

 private:
  MemoryConfig cfg_;
  std::vector<std::unique_ptr<Bank>> banks_;
  std::vector<ImcMacro*> macros_;  ///< every bank's macros in flat order
};

}  // namespace bpim::macro
