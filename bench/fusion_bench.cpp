// Fusion benchmark: whole-forward MAC programs vs op-at-a-time issue.
//
// For each (precision, layer shape) point two identical memories run the
// same forward: one issues J independent MULT ops through run_batch() (the
// pre-fusion behavior -- every op re-pokes its operands and pays full
// Table-1 cycles), one pins the weights and runs the compiled fused macro
// program through run_forward() (activation staged once, consecutive MACs
// on the chained datapath). Outputs must be bit-identical op for op; the
// headline metric is modeled cycles per inference -- operand loads plus
// in-array compute -- in the steady state after the materializing first
// forward.
//
// Results land in BENCH_fusion.json (schema bpim.fusion.v1). The bench
// exits non-zero when any 8-bit point falls below a 1.3x cycles-per-
// inference win, or when any output diverges -- the acceptance gate the CI
// smoke run checks.
//
// Usage: fusion_bench [--forwards N] [--smoke] [--out <path>]
//   --forwards   inference passes per point (default 4; smoke 3; the first
//                is the materializing warm-up and is excluded from totals)
//   --smoke      CI-sized run; same JSON shape

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.hpp"
#include "obs_flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "engine/execution_engine.hpp"
#include "macro/memory.hpp"

using namespace bpim;

namespace {

constexpr std::size_t kMacros = 8;
constexpr double kGate = 1.3;  ///< minimum 8-bit cycles-per-inference win

struct Options {
  std::size_t forwards = 4;
  bool smoke = false;
  std::string out_path = "BENCH_fusion.json";
};

/// One sweep point: J output neurons of `elements` inputs each.
struct Shape {
  std::size_t ops;
  std::size_t elements;
};

struct ModeTotals {
  std::uint64_t load_cycles = 0;
  std::uint64_t compute_cycles = 0;
  std::uint64_t fused_cycles_saved = 0;

  [[nodiscard]] std::uint64_t cycles() const { return load_cycles + compute_cycles; }
};

macro::MemoryConfig node_memory() {
  macro::MemoryConfig cfg;
  cfg.banks = 1;
  cfg.macros_per_bank = kMacros;
  return cfg;
}

std::vector<std::uint64_t> random_codes(std::size_t n, unsigned bits, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.uniform_u64(1ull << bits);
  return v;
}

struct PointResult {
  unsigned bits = 0;
  Shape shape{};
  std::size_t layers = 0;
  ModeTotals plain;
  ModeTotals fused;
  double win = 0.0;
};

PointResult run_point(unsigned bits, const Shape& shape, std::size_t forwards) {
  // Op-at-a-time baseline: fresh engine, every operand re-poked per op.
  macro::ImcMemory plain_mem(node_memory());
  engine::ExecutionEngine plain_eng(plain_mem);

  // Fused: weights pinned up front; the first forward materializes them
  // and compiles the shape's program.
  macro::ImcMemory fused_mem(node_memory());
  engine::ExecutionEngine fused_eng(fused_mem);

  std::vector<std::vector<std::uint64_t>> w;
  std::vector<engine::ResidentOperand> handles;
  for (std::size_t j = 0; j < shape.ops; ++j) {
    w.push_back(random_codes(shape.elements, bits, 1000 * bits + 10 * shape.ops + j));
    handles.push_back(fused_eng.pin(w.back(), bits, engine::OperandLayout::MultUnit));
  }

  PointResult point;
  point.bits = bits;
  point.shape = shape;
  point.layers =
      fused_eng.layers_for_elements(shape.elements, bits, engine::OperandLayout::MultUnit);

  for (std::size_t f = 0; f < forwards; ++f) {
    const auto x = random_codes(shape.elements, bits, 7000 * bits + 100 * shape.ops + f);

    std::vector<engine::VecOp> ops(shape.ops);
    for (std::size_t j = 0; j < shape.ops; ++j) {
      ops[j].kind = engine::OpKind::Mult;
      ops[j].bits = bits;
      ops[j].a = w[j];
      ops[j].b = x;
    }
    const auto want = plain_eng.run_batch(ops);
    const engine::BatchStats plain_batch = plain_eng.last_batch();

    const auto got = fused_eng.run_forward(handles, x);
    const engine::BatchStats fused_batch = fused_eng.last_batch();

    for (std::size_t j = 0; j < shape.ops; ++j)
      if (got[j].values != want[j].values) {
        std::cerr << "FATAL: fused forward diverged from op-at-a-time at " << bits
                  << "-bit " << shape.ops << "x" << shape.elements << ", forward " << f
                  << ", op " << j << "\n";
        std::exit(1);
      }

    // Forward 0 is the warm-up that pays the materializing writes; the
    // steady state is what repeated inference sees.
    if (f == 0) continue;
    point.plain.load_cycles += plain_batch.load_cycles;
    point.plain.compute_cycles += plain_batch.compute_cycles;
    point.fused.load_cycles += fused_batch.load_cycles;
    point.fused.compute_cycles += fused_batch.compute_cycles;
    point.fused.fused_cycles_saved += fused_batch.fused_cycles_saved;
  }

  if (fused_eng.fusion_stats().fallback_runs != 0) {
    std::cerr << "FATAL: " << bits << "-bit " << shape.ops << "x" << shape.elements
              << " fell back to op-at-a-time execution\n";
    std::exit(1);
  }
  point.win = point.fused.cycles() == 0 ? 0.0
                                        : static_cast<double>(point.plain.cycles()) /
                                              static_cast<double>(point.fused.cycles());
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::ObsFlags obs;
  bool forwards_given = false;
  for (int i = 1; i < argc; ++i) {
    if (obs.parse(argc, argv, i)) continue;
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--forwards" && i + 1 < argc) {
      try {
        opt.forwards = std::stoul(argv[++i]);
      } catch (const std::exception&) {
        std::cerr << "bad value for --forwards\n";
        return 2;
      }
      forwards_given = true;
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out_path = argv[++i];
    } else {
      std::cerr << "usage: fusion_bench [--forwards N] [--smoke] [--out <path>]"
                << bench::ObsFlags::kUsage << "\n";
      return 2;
    }
  }
  if (opt.smoke && !forwards_given) opt.forwards = 3;
  if (opt.forwards < 2) {
    std::cerr << "--forwards must be at least 2 (warm-up plus one steady-state pass)\n";
    return 2;
  }

  // J >= 8 everywhere: single-MULT layers have no chain to discount, and
  // the paper's FC layers are wide. All shapes fit the array with room for
  // the staged activation (no eviction churn; tests cover that).
  const unsigned precisions[] = {2, 4, 8};
  const Shape shapes[] = {{8, 64}, {16, 128}, {32, 64}};

  obs.arm();
  std::vector<PointResult> points;
  for (const unsigned bits : precisions)
    for (const Shape& s : shapes) points.push_back(run_point(bits, s, opt.forwards));

  print_banner(std::cout, "Fused whole-forward MAC programs vs op-at-a-time issue");
  std::cout << "  " << kMacros << " macros, " << opt.forwards
            << " forwards per point (first pass excluded as warm-up)\n";
  TextTable table({"bits", "shape", "plain_cycles", "fused_cycles", "fused_saved", "win"});
  double min_win_8bit = 0.0;
  bool first_8bit = true;
  for (const PointResult& p : points) {
    table.add_row({std::to_string(p.bits),
                   std::to_string(p.shape.ops) + "x" + std::to_string(p.shape.elements),
                   std::to_string(p.plain.cycles()), std::to_string(p.fused.cycles()),
                   std::to_string(p.fused.fused_cycles_saved), TextTable::ratio(p.win)});
    if (p.bits == 8 && (first_8bit || p.win < min_win_8bit)) {
      min_win_8bit = p.win;
      first_8bit = false;
    }
  }
  table.print(std::cout);
  std::cout << "min 8-bit cycles-per-inference win: " << TextTable::ratio(min_win_8bit)
            << " (gate " << TextTable::ratio(kGate) << ")\n";

  obs.finish();
  JsonWriter w(opt.out_path);
  w.begin_object();
  w.field("schema", "bpim.fusion.v1");
  w.field("mode", opt.smoke ? "smoke" : "full");
  w.field("forwards", opt.forwards);
  w.field("macros", kMacros);
  w.key("sweep");
  w.begin_array();
  for (const PointResult& p : points) {
    w.begin_object();
    w.field("bits", p.bits);
    w.field("ops", p.shape.ops);
    w.field("elements", p.shape.elements);
    w.field("layers", p.layers);
    w.key("plain");
    w.begin_object();
    w.field("load_cycles", p.plain.load_cycles);
    w.field("compute_cycles", p.plain.compute_cycles);
    w.field("cycles", p.plain.cycles());
    w.end_object();
    w.key("fused");
    w.begin_object();
    w.field("load_cycles", p.fused.load_cycles);
    w.field("compute_cycles", p.fused.compute_cycles);
    w.field("cycles", p.fused.cycles());
    w.field("fused_cycles_saved", p.fused.fused_cycles_saved);
    w.end_object();
    w.field("cycle_win", p.win);
    w.end_object();
  }
  w.end_array();
  w.field("min_win_8bit", min_win_8bit);
  w.field("gate", kGate);
  w.end_object();
  std::cout << "wrote " << opt.out_path << "\n";

  // Acceptance gate: the fused program must reach the modeled win the
  // chained-MAC cycle model promises at the paper's 8-bit operating point.
  if (min_win_8bit < kGate) {
    std::cerr << "WARNING: 8-bit fused cycles-per-inference win " << min_win_8bit
              << "x is below the " << kGate << "x gate\n";
    return 1;
  }
  return 0;
}
