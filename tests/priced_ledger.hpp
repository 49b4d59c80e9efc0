#pragma once
// The conservation law between the two accountants: the static CostModel
// prices every executed instruction, under the MULT plan it resolved to, to
// exactly the macro ledger's entry for it -- cycles as integers, energy as
// bitwise-identical doubles. MacroController reads its account off the
// ledger alone and writes each instruction's entry into its retire record,
// so the tests hold the law on every retired instruction. RowCapture sizes
// those records to the row, so a test also sees each result row whole.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "macro/cost_model.hpp"
#include "macro/program.hpp"

namespace bpim::macro {

/// One retire record per instruction of a program, each sized to capture
/// its whole result row: a MULT's every 2N-bit product unit at its
/// precision, any other op's row as gcd(cols, 64)-bit words.
class RowCapture {
 public:
  RowCapture(const Program& p, std::size_t cols) : cols_(cols) {
    const auto word = static_cast<unsigned>(std::gcd(cols, std::size_t{64}));
    for (const Instruction& i : p.instructions()) {
      const bool mult = i.op == Op::Mult;
      fields_.push_back(mult ? 2 * i.bits : word);
      values_.emplace_back(cols / fields_.back());
      records_.push_back({.bits = mult ? i.bits : word, .values = values_.back()});
    }
  }
  RowCapture(const RowCapture&) = delete;
  RowCapture& operator=(const RowCapture&) = delete;

  [[nodiscard]] std::span<Extract> records() { return records_; }
  [[nodiscard]] const Extract& operator[](std::size_t k) const { return records_[k]; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Instruction k's result row (a MULT's: the product row D2), reassembled
  /// from its record.
  [[nodiscard]] BitVector row(std::size_t k) const {
    BitVector r(cols_);
    for (std::size_t i = 0; i < values_[k].size(); ++i)
      r.deposit_bits(i * fields_[k], fields_[k], values_[k][i]);
    return r;
  }

 private:
  std::size_t cols_;
  std::vector<unsigned> fields_;
  std::vector<std::vector<std::uint64_t>> values_;
  std::vector<Extract> records_;
};

inline void expect_priced_as_executed(const MacroConfig& cfg, const Program& p,
                                      std::span<const Extract> records,
                                      const std::string& what = {}) {
  ASSERT_EQ(records.size(), p.size()) << what;
  const CostModel cost(cfg);
  for (std::size_t k = 0; k < records.size(); ++k) {
    const Instruction& inst = p.instructions()[k];
    const InstructionCost priced = cost.instruction_cost(inst, records[k].plan);
    EXPECT_EQ(priced.cycles, records[k].cycles) << what << " #" << k << " " << to_string(inst);
    EXPECT_EQ(priced.energy.si(), records[k].op_energy.si())
        << what << " #" << k << " " << to_string(inst);
  }
}

}  // namespace bpim::macro
