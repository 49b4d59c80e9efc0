// Hot-path benchmark: ns/op of the word-parallel (SWAR) functional datapath
// against the seed's per-bit reference (baseline/naive_datapath), plus
// end-to-end MLP forward throughput through the ExecutionEngine.
//
// Kernels, at 4/8/16-bit precision on one 128x256 macro:
//   fa_add     FaLogics::add on a row-wide readout   vs naive per-bit ripple
//   add_rows   full macro ADD op (sense + FA + stats) -- no per-bit reference;
//              the pre-PR cost is fa_add's reference plus the same overheads
//   mult       ImcMacro::mult_rows (N+2-cycle sequence) vs the naive per-bit
//              add-and-shift datapath (reference excludes array/energy
//              traffic, so the reported speedup is conservative)
//   mult_program  the same MULT dispatched the way the engine issues every
//              op: a cached OpCompiler VerifiedProgram run by a
//              MacroController (no re-verification, ledger-only account).
//              The controller publishes no instruments (the engine does,
//              once per dispatch), so the ratio leaves their cost out.
//              Its reference is the direct mult_rows call, timed in
//              alternating blocks with it (median of 31 each), so
//              ns/ref-ns IS the unified-dispatch overhead (must stay within
//              5% at 8-bit).
//   mult_adaptive_dense  mult_rows with the adaptive policy enabled on
//              operands built so nothing can narrow or skip: the planner
//              scans and saves zero cycles, so ns/ref-ns (paired the same
//              way) is the pure host cost of the operand scan (must stay
//              within 5% at 8-bit).
//   logic      ImcMacro::logic_rows (word-parallel before and after this PR;
//              reported for the trajectory, no reference)
//
// Results land in BENCH_hotpath.json (schema bpim.hotpath.v1) so future PRs
// have a perf trajectory; see README "Performance".
//
// Usage: hot_path_bench [--smoke] [--out <path>]
//   --smoke   ~10x fewer iterations (CI-sized); same JSON shape
//   --out     output path (default BENCH_hotpath.json)

#include <chrono>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "app/mlp.hpp"
#include "common/json_writer.hpp"
#include "baseline/naive_datapath.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "engine/execution_engine.hpp"
#include "macro/compiler.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"

using namespace bpim;
using array::BlReadout;
using array::RowRef;

namespace {

constexpr std::size_t kCols = 256;

/// Average ns per call of fn() over one block of `iters` calls.
template <class F>
double block_ns(std::size_t iters, F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / static_cast<double>(iters);
}

/// Best-of-3 average ns per call of fn() over `iters` calls.
template <class F>
double time_ns(std::size_t iters, F&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) best = std::min(best, block_ns(iters, fn));
  return best;
}

/// Median ns per call of fn() and of its reference ref() over 31 rounds of
/// one block each, in alternating order, so both see the same host state
/// and neither always runs first: the measurement a ratio gate needs on a
/// shared machine.
template <class F, class R>
std::pair<double, double> time_pair_ns(std::size_t iters, F&& fn, R&& ref) {
  constexpr std::size_t kRounds = 31;
  std::vector<double> t(kRounds), t_ref(kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (r % 2 == 0) t_ref[r] = block_ns(iters, ref);
    t[r] = block_ns(iters, fn);
    if (r % 2 == 1) t_ref[r] = block_ns(iters, ref);
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return {median(t), median(t_ref)};
}

struct KernelResult {
  std::string name;
  unsigned bits = 0;
  double ns_per_op = 0.0;
  double ref_ns_per_op = 0.0;  ///< 0 when the kernel has no per-bit reference
  [[nodiscard]] double speedup() const { return ref_ns_per_op > 0 ? ref_ns_per_op / ns_per_op : 0; }
};

macro::MacroConfig bench_macro_cfg() {
  macro::MacroConfig cfg;
  cfg.geometry.cols = kCols;
  return cfg;
}

std::vector<KernelResult> bench_kernels(std::size_t iters) {
  std::vector<KernelResult> out;
  Rng rng(0xBE9C);

  for (const unsigned bits : {4u, 8u, 16u}) {
    macro::ImcMacro m{bench_macro_cfg()};
    BitVector a(kCols), b(kCols);
    a.randomize(rng);
    b.randomize(rng);
    m.poke_row(0, a);
    m.poke_row(1, b);
    const BlReadout readout{a & b, ~(a | b)};

    KernelResult fa{"fa_add", bits, 0, 0};
    fa.ns_per_op =
        time_ns(iters, [&] { (void)periph::FaLogics::add(readout, bits, false); });
    fa.ref_ns_per_op =
        time_ns(iters / 4 + 1, [&] { (void)baseline::naive_add(readout, bits, false); });
    out.push_back(fa);

    KernelResult add{"add_rows", bits, 0, 0};
    add.ns_per_op =
        time_ns(iters, [&] { (void)m.add_rows(RowRef::main(0), RowRef::main(1), bits); });
    out.push_back(add);

    // MULT operands live in the low half of each 2N-bit unit.
    const std::size_t units = m.mult_units_per_row(bits);
    for (std::size_t u = 0; u < units; ++u) {
      m.poke_mult_operand(0, u, bits, rng.next_u64() & ((1ull << bits) - 1));
      m.poke_mult_operand(1, u, bits, rng.next_u64() & ((1ull << bits) - 1));
    }
    const BitVector row_a = m.peek_row(0);
    const BitVector row_b = m.peek_row(1);
    KernelResult mult{"mult", bits, 0, 0};
    mult.ns_per_op = time_ns(iters / 4 + 1,
                             [&] { (void)m.mult_rows(RowRef::main(0), RowRef::main(1), bits); });
    mult.ref_ns_per_op = time_ns(iters / 16 + 1,
                                 [&] { (void)baseline::naive_mult_datapath(row_a, row_b, bits); });
    out.push_back(mult);

    // Adaptive planning on operands with every multiplier MSB set: the scan
    // finds nothing to narrow or skip (modeled cycles identical to plain
    // mult by construction), so the ratio to the plain call on the same
    // data is the planner's host overhead.
    const std::uint64_t top = 1ull << (bits - 1);
    for (std::size_t u = 0; u < units; ++u) {
      m.poke_mult_operand(0, u, bits, top | (rng.next_u64() & (top - 1)));
      m.poke_mult_operand(1, u, bits, top | (rng.next_u64() & (top - 1)));
    }
    const macro::AdaptivePolicy adaptive{true, true};
    const auto direct = [&] { (void)m.mult_rows(RowRef::main(0), RowRef::main(1), bits); };
    KernelResult ma{"mult_adaptive_dense", bits, 0, 0};
    std::tie(ma.ns_per_op, ma.ref_ns_per_op) = time_pair_ns(
        iters / 4 + 1,
        [&] { (void)m.mult_rows(RowRef::main(0), RowRef::main(1), bits, adaptive); }, direct);
    out.push_back(ma);

    // The unified execution model's dispatch cost: the same MULT through a
    // cached single-op program and a controller (the engine's hot path).
    // Reference = the direct call, so ns/ref-ns is the dispatch overhead
    // factor (close to 1.0 is good).
    macro::OpCompiler oc(m.config().geometry);
    const macro::VerifiedProgram& prog = oc.mult(RowRef::main(0), RowRef::main(1), bits);
    macro::MacroController ctl(m);
    KernelResult mp{"mult_program", bits, 0, 0};
    std::tie(mp.ns_per_op, mp.ref_ns_per_op) =
        time_pair_ns(iters / 4 + 1, [&] { (void)ctl.run(prog); }, direct);
    out.push_back(mp);
  }

  {
    macro::ImcMacro m{bench_macro_cfg()};
    BitVector a(kCols), b(kCols);
    a.randomize(rng);
    b.randomize(rng);
    m.poke_row(0, a);
    m.poke_row(1, b);
    KernelResult logic{"logic", 0, 0, 0};
    logic.ns_per_op = time_ns(iters, [&] {
      (void)m.logic_rows(periph::LogicFn::Xor, RowRef::main(0), RowRef::main(1));
    });
    out.push_back(logic);
  }
  return out;
}

struct MlpResult {
  std::vector<std::size_t> sizes;   ///< in, hidden..., out
  std::vector<unsigned> bits;       ///< per layer
  double ns_per_forward = 0.0;
  double forwards_per_sec = 0.0;
  double macs_per_sec = 0.0;
};

MlpResult bench_mlp(std::size_t forwards) {
  Rng rng(0x3170);
  MlpResult r;
  r.sizes = {64, 48, 32, 10};
  r.bits = {8, 8, 4};
  std::vector<app::MlpLayerSpec> specs;
  std::size_t macs = 0;
  for (std::size_t l = 0; l + 1 < r.sizes.size(); ++l) {
    app::MlpLayerSpec spec;
    spec.bits = r.bits[l];
    spec.weights.assign(r.sizes[l + 1], std::vector<double>(r.sizes[l]));
    for (auto& row : spec.weights)
      for (auto& w : row) w = rng.uniform();
    macs += r.sizes[l] * r.sizes[l + 1];
    specs.push_back(std::move(spec));
  }
  app::Mlp mlp(std::move(specs));

  macro::MemoryConfig mcfg;
  mcfg.banks = 1;
  mcfg.macros_per_bank = 8;
  macro::ImcMemory mem(mcfg);
  engine::ExecutionEngine eng(mem, engine::EngineConfig{1});  // single-thread: the SWAR win alone

  std::vector<double> x(r.sizes.front());
  for (auto& v : x) v = rng.uniform();
  r.ns_per_forward = time_ns(forwards, [&] { (void)mlp.forward(eng, x); });
  r.forwards_per_sec = 1e9 / r.ns_per_forward;
  r.macs_per_sec = r.forwards_per_sec * static_cast<double>(macs);
  return r;
}

void write_json(const std::string& path, bool smoke, const std::vector<KernelResult>& kernels,
                const MlpResult& mlp) {
  JsonWriter w(path);
  w.begin_object();
  w.field("schema", "bpim.hotpath.v1");
  w.field("mode", smoke ? "smoke" : "full");
  w.field("cols", kCols);
  w.key("kernels");
  w.begin_array();
  for (const auto& k : kernels) {
    w.begin_object();
    w.field("name", k.name);
    w.field("bits", k.bits);
    w.field("ns_per_op", k.ns_per_op);
    if (k.ref_ns_per_op > 0) {
      w.field("ref_ns_per_op", k.ref_ns_per_op);
      w.field("speedup", k.speedup());
    }
    w.end_object();
  }
  w.end_array();
  w.key("mlp");
  w.begin_object();
  w.field("sizes", mlp.sizes);
  w.field("bits", mlp.bits);
  w.field("ns_per_forward", mlp.ns_per_forward);
  w.field("forwards_per_sec", mlp.forwards_per_sec);
  w.field("macs_per_sec", mlp.macs_per_sec);
  w.end_object();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: hot_path_bench [--smoke] [--out <path>]\n";
      return 2;
    }
  }
  const std::size_t iters = smoke ? 200 : 2000;
  const std::size_t forwards = smoke ? 3 : 20;

#ifndef NDEBUG
  std::cout << "NOTE: assertions enabled (non-Release build) -- numbers are not "
               "representative; use -DCMAKE_BUILD_TYPE=Release.\n";
#endif

  const auto kernels = bench_kernels(iters);
  const auto mlp = bench_mlp(forwards);

  print_banner(std::cout, "Hot-path kernels (one 128x" + std::to_string(kCols) +
                              " macro, single thread)");
  TextTable table({"kernel", "bits", "ns/op", "naive ns/op", "speedup"});
  for (const auto& k : kernels) {
    table.add_row({k.name, k.bits ? std::to_string(k.bits) : "-", TextTable::num(k.ns_per_op, 1),
                   k.ref_ns_per_op > 0 ? TextTable::num(k.ref_ns_per_op, 1) : "-",
                   k.ref_ns_per_op > 0 ? TextTable::ratio(k.speedup()) : "-"});
  }
  table.print(std::cout);

  for (const auto& k : kernels)
    if (k.name == "mult_program" && k.bits == 8)
      std::cout << "  unified dispatch (cached verified program + controller) costs "
                << TextTable::num(k.ns_per_op / k.ref_ns_per_op, 2)
                << "x the direct 8-bit mult_rows call per op\n";

  print_banner(std::cout, "End-to-end MLP forward (ExecutionEngine, 1 thread, 8 macros)");
  std::cout << "  layers 64-48-32-10 @ 8/8/4 bit: " << TextTable::num(mlp.ns_per_forward / 1e3, 1)
            << " us/forward, " << TextTable::num(mlp.forwards_per_sec, 1) << " forwards/s, "
            << TextTable::num(mlp.macs_per_sec / 1e6, 2) << " M MAC/s\n";

  write_json(out_path, smoke, kernels, mlp);
  std::cout << "\nwrote " << out_path << "\n";

  // Acceptance bars: >=5x on the 8-bit MULT path, and both the adaptive
  // planner's dense-operand host overhead and the unified-dispatch overhead
  // within 5% of the direct call at 8-bit.
  for (const auto& k : kernels) {
    if (k.name == "mult" && k.bits == 8 && k.speedup() < 5.0) {
      std::cerr << "WARNING: 8-bit mult speedup " << k.speedup() << " is below the 5x target\n";
      return 1;
    }
    if (k.name == "mult_adaptive_dense" && k.bits == 8 &&
        k.ns_per_op > 1.05 * k.ref_ns_per_op) {
      std::cerr << "WARNING: adaptive planning costs "
                << TextTable::num(k.ns_per_op / k.ref_ns_per_op, 3)
                << "x the plain 8-bit mult on dense operands (>1.05x budget)\n";
      return 1;
    }
    if (k.name == "mult_program" && k.bits == 8 && k.ns_per_op > 1.05 * k.ref_ns_per_op) {
      std::cerr << "WARNING: unified dispatch costs "
                << TextTable::num(k.ns_per_op / k.ref_ns_per_op, 3)
                << "x the direct 8-bit mult_rows call (>1.05x budget)\n";
      return 1;
    }
  }
  return 0;
}
