// Sparsity sweep: modeled cycles/op of the adaptive MULT path (operand
// narrowing + zero skipping, macro::AdaptivePolicy) against the dense
// Table-1 schedule, at 4/8-bit precision over activation sparsity 0..95%.
//
// Operands model a ReLU'd activation stream: each multiplier unit is zero
// with probability `sparsity`, and nonzero values have geometrically
// distributed bit width (ratio 0.5) -- small magnitudes dominate, the way
// post-ReLU activations do. Multiplicands (weights) are dense and nonzero.
// Every adaptive run is checked bit-identical against its dense twin and
// the per-op cycle split is checked exact (dense == adaptive + saved) --
// a bench result that fails either check exits nonzero.
//
// Results land in BENCH_sparsity.json (schema bpim.sparsity.v1); the CI
// release-bench job runs the smoke mode and uploads the JSON. The sweep
// drives bare MacroControllers, which publish no instruments: the
// engine.adaptive.* metrics and macro.program instants come from engine
// dispatches only, so --metrics and --trace-macros record none here.
//
// Usage: sparsity_bench [--smoke] [--out <path>] [--trace <path>]
//                       [--metrics <path>] [--trace-macros]

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs_flags.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

using namespace bpim;
using array::RowRef;

namespace {

constexpr std::size_t kCols = 256;

macro::MacroConfig bench_macro_cfg() {
  macro::MacroConfig cfg;
  cfg.geometry.cols = kCols;
  return cfg;
}

/// ReLU-style activation value: zero w.p. `sparsity`, else a nonzero whose
/// bit width is geometric (ratio 0.5, capped at `bits`).
std::uint64_t relu_activation(Rng& rng, unsigned bits, double sparsity) {
  if (rng.uniform() < sparsity) return 0;
  unsigned w = 1;
  while (w < bits && (rng.next_u64() & 1)) ++w;
  const std::uint64_t msb = 1ull << (w - 1);
  return msb | (rng.next_u64() & (msb - 1));
}

struct SweepPoint {
  unsigned bits = 0;
  int sparsity_pct = 0;
  std::size_t ops = 0;
  double dense_cycles_per_op = 0.0;
  double adaptive_cycles_per_op = 0.0;
  std::uint64_t adaptive_cycles_saved = 0;
  [[nodiscard]] double modeled_speedup() const {
    return adaptive_cycles_per_op > 0 ? dense_cycles_per_op / adaptive_cycles_per_op : 0;
  }
};

SweepPoint run_point(unsigned bits, int sparsity_pct, std::size_t ops) {
  SweepPoint pt;
  pt.bits = bits;
  pt.sparsity_pct = sparsity_pct;
  pt.ops = ops;

  Rng rng(0x5BA5 + bits * 1000 + static_cast<std::uint64_t>(sparsity_pct));
  macro::ImcMacro dense_m{bench_macro_cfg()};
  macro::ImcMacro adapt_m{bench_macro_cfg()};
  macro::MacroController dense_ctl(dense_m);
  macro::MacroController adapt_ctl(adapt_m);
  const macro::AdaptivePolicy policy{true, true};
  const std::size_t units = dense_m.mult_units_per_row(bits);
  const std::uint64_t mask = (1ull << bits) - 1;

  // Verified once; every op then runs it without re-verification.
  macro::Program mult;
  mult.mult(RowRef::main(0), RowRef::main(1), bits);
  const macro::VerifiedProgram prog =
      macro::VerifiedProgram::verify(std::move(mult), dense_m.config().geometry);

  // Each run retires every product of the row into its own vector.
  std::vector<std::uint64_t> dense_products(units), adapt_products(units);
  macro::Extract dense_rec{.bits = bits, .values = dense_products};
  macro::Extract adapt_rec{.bits = bits, .values = adapt_products};
  std::uint64_t dense_cycles = 0, adapt_cycles = 0;
  const double sparsity = static_cast<double>(sparsity_pct) / 100.0;
  for (std::size_t op = 0; op < ops; ++op) {
    for (std::size_t u = 0; u < units; ++u) {
      // Weight row (multiplicand, D1): dense, nonzero.
      const std::uint64_t w = 1 + (rng.next_u64() & mask & ~1ull);
      // Activation row (multiplier, FF): the sparse side the policy scans.
      const std::uint64_t x = relu_activation(rng, bits, sparsity);
      for (macro::ImcMacro* m : {&dense_m, &adapt_m}) {
        m->poke_mult_operand(0, u, bits, w);
        m->poke_mult_operand(1, u, bits, x);
      }
    }
    const macro::ProgramStats ds = dense_ctl.run(prog, {}, {&dense_rec, 1});
    const macro::ProgramStats as = adapt_ctl.run(prog, policy, {&adapt_rec, 1});
    if (adapt_products != dense_products) {
      std::cerr << "FATAL: adaptive result diverged from dense (bits=" << bits
                << " sparsity=" << sparsity_pct << "%)\n";
      std::exit(1);
    }
    if (as.cycles + as.adaptive_cycles_saved != ds.cycles) {
      std::cerr << "FATAL: cycle conservation violated (bits=" << bits
                << " sparsity=" << sparsity_pct << "%): dense " << ds.cycles
                << " != adaptive " << as.cycles << " + saved " << as.adaptive_cycles_saved
                << "\n";
      std::exit(1);
    }
    dense_cycles += ds.cycles;
    adapt_cycles += as.cycles;
    pt.adaptive_cycles_saved += as.adaptive_cycles_saved;
  }
  pt.dense_cycles_per_op = static_cast<double>(dense_cycles) / static_cast<double>(ops);
  pt.adaptive_cycles_per_op = static_cast<double>(adapt_cycles) / static_cast<double>(ops);
  return pt;
}

void write_json(const std::string& path, bool smoke, const std::vector<SweepPoint>& points) {
  JsonWriter w(path);
  w.begin_object();
  w.field("schema", "bpim.sparsity.v1");
  w.field("mode", smoke ? "smoke" : "full");
  w.field("cols", kCols);
  w.field("bit_identical", true);       // enforced per op above, or we exited
  w.field("conservation_exact", true);  // ditto
  w.key("sweep");
  w.begin_array();
  for (const auto& p : points) {
    w.begin_object();
    w.field("bits", p.bits);
    w.field("sparsity_pct", p.sparsity_pct);
    w.field("ops", p.ops);
    w.field("dense_cycles_per_op", p.dense_cycles_per_op);
    w.field("adaptive_cycles_per_op", p.adaptive_cycles_per_op);
    w.field("adaptive_cycles_saved", p.adaptive_cycles_saved);
    w.field("modeled_speedup", p.modeled_speedup());
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sparsity.json";
  bench::ObsFlags obs;
  for (int i = 1; i < argc; ++i) {
    if (obs.parse(argc, argv, i)) continue;
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: sparsity_bench [--smoke] [--out <path>]" << bench::ObsFlags::kUsage
                << "\n";
      return 2;
    }
  }
  const std::size_t ops = smoke ? 64 : 512;

  obs.arm();
  std::vector<SweepPoint> points;
  for (const unsigned bits : {4u, 8u})
    for (const int sparsity : {0, 25, 50, 75, 95})
      points.push_back(run_point(bits, sparsity, ops));
  obs.finish();

  print_banner(std::cout, "Adaptive vs dense MULT cycles/op (one 128x" +
                              std::to_string(kCols) + " macro, ReLU-style activations)");
  TextTable table({"bits", "sparsity", "dense cyc/op", "adaptive cyc/op", "speedup"});
  for (const auto& p : points)
    table.add_row({std::to_string(p.bits), std::to_string(p.sparsity_pct) + "%",
                   TextTable::num(p.dense_cycles_per_op, 2),
                   TextTable::num(p.adaptive_cycles_per_op, 2),
                   TextTable::ratio(p.modeled_speedup())});
  table.print(std::cout);

  write_json(out_path, smoke, points);
  std::cout << "\nwrote " << out_path << "\n";

  // Acceptance gates: every point bit-identical with exact conservation
  // (checked inline above), >=1.5x modeled speedup at 8-bit/75% sparsity,
  // and zero regression against dense at 0% sparsity.
  int rc = 0;
  for (const auto& p : points) {
    if (p.bits == 8 && p.sparsity_pct == 75 && p.modeled_speedup() < 1.5) {
      std::cerr << "WARNING: 8-bit/75% modeled speedup " << p.modeled_speedup()
                << " is below the 1.5x target\n";
      rc = 1;
    }
    if (p.sparsity_pct == 0 && p.adaptive_cycles_per_op > p.dense_cycles_per_op) {
      std::cerr << "WARNING: adaptive regresses dense cycles at 0% sparsity (bits="
                << p.bits << ")\n";
      rc = 1;
    }
  }
  return rc;
}
