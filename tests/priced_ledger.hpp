#pragma once
// The conservation law between the two accountants: the static CostModel
// prices every executed instruction, under the MULT plan it resolved to, to
// exactly the macro ledger's entry for it -- cycles as integers, energy as
// bitwise-identical doubles. MacroController reads its account off the
// ledger alone, so the tests hold the law on every traced instruction.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "macro/cost_model.hpp"
#include "macro/program.hpp"

namespace bpim::macro {

inline void expect_priced_as_executed(const MacroConfig& cfg,
                                      const std::vector<TraceEntry>& trace,
                                      const std::string& what = {}) {
  const CostModel cost(cfg);
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const TraceEntry& e = trace[k];
    const InstructionCost priced = cost.instruction_cost(e.inst, e.plan);
    EXPECT_EQ(priced.cycles, e.cycles) << what << " #" << k << " " << to_string(e.inst);
    EXPECT_EQ(priced.energy.si(), e.op_energy.si())
        << what << " #" << k << " " << to_string(e.inst);
  }
}

}  // namespace bpim::macro
