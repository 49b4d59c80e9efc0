#pragma once
// The three workloads and the macro-level probe they share.

#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "engine/execution_engine.hpp"
#include "macro/compiler.hpp"
#include "macro/program.hpp"

namespace perfbench {

/// mlp_infer (tenants = 1) and mlp_multi_tenant (tenants = 3).
void run_mlp(const Options& opt, std::size_t tenants, Report& report, SpanLog& spans);
/// vecop_stream: open-loop element-wise ops on a 2-memory pool.
void run_vecop(const Options& opt, Report& report, SpanLog& spans);

/// One op class of a workload: what the engine dispatches as a single
/// OpCompiler program.
struct OpClass {
  bpim::engine::OpKind kind = bpim::engine::OpKind::Add;
  unsigned bits = 8;
};

/// Runs the OpCompiler programs of a workload's op classes through a
/// VerifyFirst MacroController on one paper-sized macro.
class MacroProbe {
 public:
  /// Runs each class once and notes its cycles against the paper's Table 1.
  MacroProbe(std::vector<OpClass> classes, Report& report);
  /// Time the programs, round-robin over the classes, for `budget_s`.
  void run(double budget_s, SpanLog& spans);
  /// Host ns per executed instruction over every run() so far.
  [[nodiscard]] double ns_per_inst() const;

 private:
  void load_operands(const OpClass& c);
  const bpim::macro::Program& program_for(const OpClass& c);

  std::vector<OpClass> classes_;
  bpim::macro::ImcMacro macro_;
  bpim::macro::OpCompiler compiler_;
  bpim::macro::MacroController ctrl_;
  bpim::Rng rng_{0x7AB1E1};
  double ns_ = 0.0;
  std::uint64_t insts_ = 0;
  std::uint64_t blocks_ = 0;
};

}  // namespace perfbench
