// Multi-memory scale-out benchmark: the same closed-loop multi-client load
// served by pools of 1, 2, and 4 ImcMemory instances (NUMA-style nodes)
// behind one serve::Server.
//
// Clients submit large MULT ops whose coalesced dispatch groups exceed a
// single array's residency budget, so the scheduler splits them into
// per-memory sub-batches. The headline metric is modeled throughput:
// ops per million modeled cycles of makespan, where the makespan is the
// busiest memory's pipelined-cycle total (memories run in parallel in the
// cycle model). Every result is verified against the scalar reference, and
// per-memory occupancy shows how evenly the server's least-loaded placement
// spread the load.
//
// Results land in BENCH_multimem.json (schema bpim.multimem.v1). The bench
// exits non-zero when the 4-memory pool fails to reach 2x the 1-memory
// modeled throughput -- the acceptance gate CI smoke runs check.
//
// Usage: multimem_bench [--clients C] [--ops K] [--layers L] [--bits B]
//                       [--window US] [--smoke] [--out <path>]
//   --clients    concurrent closed-loop clients         (default 16)
//   --ops        ops per client                         (default 24; smoke 6)
//   --layers     row-pair layers per op                 (default 16)
//   --bits       operand precision                      (default 8)
//   --window     scheduler coalesce window, us          (default 200)
//   --smoke      CI-sized run; same JSON shape

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.hpp"
#include "obs_flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "engine/execution_engine.hpp"
#include "macro/isa.hpp"
#include "serve/memory_pool.hpp"
#include "serve/server.hpp"

using namespace bpim;
using engine::OpKind;
using engine::OpResult;
using engine::VecOp;

namespace {

constexpr std::size_t kMacrosPerMemory = 4;

struct Options {
  std::size_t clients = 16;
  std::size_t ops_per_client = 24;
  std::size_t layers_per_op = 16;
  unsigned bits = 8;
  std::chrono::microseconds window{200};
  bool smoke = false;
  std::string out_path = "BENCH_multimem.json";
};

/// One client's scripted workload: operand storage plus the ops over it.
struct ClientLoad {
  std::vector<std::vector<std::uint64_t>> a, b;
  std::vector<VecOp> ops;
};

std::vector<std::uint64_t> random_vec(std::size_t n, unsigned bits, Rng& rng) {
  const std::uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_u64() & mask;
  return v;
}

macro::MemoryConfig node_memory() {
  macro::MemoryConfig cfg;
  cfg.banks = 1;
  cfg.macros_per_bank = kMacrosPerMemory;
  return cfg;
}

std::vector<ClientLoad> make_loads(const Options& opt, std::size_t elements) {
  std::vector<ClientLoad> loads(opt.clients);
  for (std::size_t c = 0; c < opt.clients; ++c) {
    Rng rng(0x4E0DE + c);
    ClientLoad& load = loads[c];
    for (std::size_t i = 0; i < opt.ops_per_client; ++i) {
      load.a.push_back(random_vec(elements, opt.bits, rng));
      load.b.push_back(random_vec(elements, opt.bits, rng));
      load.ops.push_back(VecOp{OpKind::Mult, opt.bits, periph::LogicFn::And,
                               load.a.back(), load.b.back()});
    }
  }
  return loads;
}

void verify(const VecOp& op, const std::vector<std::uint64_t>& got) {
  for (std::size_t i = 0; i < op.a.size(); ++i)
    if (got[i] != op.a[i] * op.b[i]) {
      std::cerr << "FATAL: result mismatch at element " << i << "\n";
      std::exit(1);
    }
}

struct SweepPoint {
  std::size_t memories = 0;
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t batches = 0;
  std::uint64_t total_pipelined = 0;
  std::uint64_t makespan = 0;
  std::vector<double> occupancy;  ///< per memory, busy / makespan

  /// Modeled throughput: completed ops per million cycles of makespan.
  [[nodiscard]] double ops_per_mcycle() const {
    return makespan == 0 ? 0.0
                         : static_cast<double>(ops) * 1e6 / static_cast<double>(makespan);
  }
};

SweepPoint run_pool(const std::vector<ClientLoad>& loads, const Options& opt,
                    std::size_t memories) {
  serve::MemoryPoolConfig pcfg;
  pcfg.memories = memories;
  pcfg.memory = node_memory();
  pcfg.threads_per_memory = 2;
  serve::MemoryPool pool(pcfg);

  serve::ServerConfig cfg;
  cfg.queue_capacity = std::max<std::size_t>(16, 4 * loads.size());
  cfg.max_batch_ops = 64;
  cfg.coalesce_window = opt.window;
  serve::Server server(pool, cfg);

  SweepPoint r;
  r.memories = memories;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < loads.size(); ++c) {
    clients.emplace_back([&, c] {
      for (const VecOp& op : loads[c].ops) {
        OpResult res = server.submit(op).get();
        verify(op, res.values);
      }
    });
  }
  for (auto& t : clients) t.join();
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  server.stop();

  const serve::ServeStats s = server.stats();
  r.ops = s.completed;
  r.batches = s.batches;
  r.total_pipelined = s.modeled_pipelined_cycles;
  r.makespan = s.modeled_makespan_cycles;
  for (std::size_t m = 0; m < memories; ++m) r.occupancy.push_back(s.memory_occupancy(m));
  return r;
}

void write_json(const Options& opt, std::size_t elements,
                const std::vector<SweepPoint>& sweep, double speedup4) {
  JsonWriter w(opt.out_path);
  w.begin_object();
  w.field("schema", "bpim.multimem.v1");
  w.field("mode", opt.smoke ? "smoke" : "full");
  w.field("clients", opt.clients);
  w.field("ops_per_client", opt.ops_per_client);
  w.field("bits", opt.bits);
  w.field("elements", elements);
  w.field("layers_per_op", opt.layers_per_op);
  w.field("macros_per_memory", kMacrosPerMemory);
  w.field("window_us", opt.window.count());
  w.key("sweep");
  w.begin_array();
  for (const SweepPoint& p : sweep) {
    w.begin_object();
    w.field("memories", p.memories);
    w.field("ops", p.ops);
    w.field("batches", p.batches);
    w.field("total_pipelined_cycles", p.total_pipelined);
    w.field("makespan_cycles", p.makespan);
    w.field("ops_per_mcycle", p.ops_per_mcycle());
    w.field("wall_s", p.wall_s);
    w.field("occupancy", p.occupancy);
    w.end_object();
  }
  w.end_array();
  w.field("throughput_speedup_4_vs_1", speedup4);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::ObsFlags obs;
  bool ops_given = false;
  for (int i = 1; i < argc; ++i) {
    if (obs.parse(argc, argv, i)) continue;
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--clients") {
        opt.clients = std::stoul(value());
      } else if (arg == "--ops") {
        opt.ops_per_client = std::stoul(value());
        ops_given = true;
      } else if (arg == "--layers") {
        opt.layers_per_op = std::stoul(value());
      } else if (arg == "--bits") {
        opt.bits = static_cast<unsigned>(std::stoul(value()));
      } else if (arg == "--window") {
        opt.window = std::chrono::microseconds(std::stoul(value()));
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--out") {
        opt.out_path = value();
      } else {
        std::cerr << "usage: multimem_bench [--clients C] [--ops K] [--layers L] "
                     "[--bits B] [--window US] [--smoke] [--out <path>]"
                  << bench::ObsFlags::kUsage << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }
  if (opt.smoke && !ops_given) opt.ops_per_client = 6;
  if (opt.clients == 0 || opt.ops_per_client == 0 || opt.layers_per_op == 0) {
    std::cerr << "--clients, --ops and --layers must be positive\n";
    return 2;
  }
  if (!macro::is_supported_precision(opt.bits)) {
    std::cerr << "--bits must be one of 2/4/8/16/32\n";
    return 2;
  }

  // Resolve op size: layers_per_op row-pair layers of MULT on one node.
  macro::ImcMemory probe_mem(node_memory());
  engine::ExecutionEngine probe(probe_mem, engine::EngineConfig{1});
  const std::size_t capacity = probe.row_pair_capacity();
  if (opt.layers_per_op > capacity) {
    std::cerr << "--layers exceeds the per-memory budget of " << capacity << " row pairs\n";
    return 2;
  }
  const std::size_t elements =
      opt.layers_per_op * probe.mult_units_per_row(opt.bits) * probe_mem.macro_count();

  const auto loads = make_loads(opt, elements);
  std::cout << opt.clients << " closed-loop clients x " << opt.ops_per_client << " ops, "
            << elements << " x " << opt.bits << "-bit MULT (" << opt.layers_per_op
            << " layers) each, " << kMacrosPerMemory << " macros/memory, coalesce window "
            << opt.window.count() << " us\n";

  obs.arm();
  std::vector<SweepPoint> sweep;
  for (const std::size_t memories : {1u, 2u, 4u})
    sweep.push_back(run_pool(loads, opt, memories));

  print_banner(std::cout, "Multi-memory scale-out (modeled throughput)");
  TextTable table({"memories", "ops", "batches", "makespan_cyc", "ops/Mcycle",
                   "speedup", "wall_s", "min/max occupancy"});
  for (const SweepPoint& p : sweep) {
    double occ_min = 1.0, occ_max = 0.0;
    for (const double o : p.occupancy) {
      occ_min = std::min(occ_min, o);
      occ_max = std::max(occ_max, o);
    }
    table.add_row({std::to_string(p.memories), std::to_string(p.ops),
                   std::to_string(p.batches), std::to_string(p.makespan),
                   TextTable::num(p.ops_per_mcycle(), 2),
                   TextTable::ratio(p.ops_per_mcycle() / sweep.front().ops_per_mcycle()),
                   TextTable::num(p.wall_s, 3),
                   TextTable::num(occ_min, 2) + "/" + TextTable::num(occ_max, 2)});
  }
  table.print(std::cout);

  const double speedup4 = sweep.back().ops_per_mcycle() / sweep.front().ops_per_mcycle();
  std::cout << "modeled throughput at 4 memories vs 1: " << TextTable::ratio(speedup4)
            << "\n";

  write_json(opt, elements, sweep, speedup4);
  std::cout << "wrote " << opt.out_path << "\n";
  obs.finish();

  // Acceptance gate: four memories must at least double the single-memory
  // modeled throughput.
  if (speedup4 < 2.0) {
    std::cerr << "WARNING: 4-memory pool reached only " << speedup4
              << "x of single-memory modeled throughput (gate: >= 2x)\n";
    return 1;
  }
  return 0;
}
