// perfbench: the end-to-end benchmark of the IMC stack (app -> serve ->
// engine -> macro). One workload per invocation:
//
//   perfbench --workload <mlp_infer|mlp_multi_tenant|vecop_stream>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
// writes the run's spans to .bench_out/trace-<workload>-<seed>.json. Every
// output is checked; the last stdout line is the JSON result, and the exit
// code is non-zero when any output was wrong or any request failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <mlp_infer|mlp_multi_tenant|"
               "vecop_stream> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--seconds") opt.seconds = std::stod(val);
      else if (key == "--trace") opt.trace = std::stoi(val) != 0;
      else usage(("unknown option " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report report;
  perfbench::SpanLog spans;
  try {
    if (opt.workload == "mlp_infer") perfbench::run_mlp(opt, 1, report, spans);
    else if (opt.workload == "mlp_multi_tenant") perfbench::run_mlp(opt, 3, report, spans);
    else if (opt.workload == "vecop_stream") perfbench::run_vecop(opt, report, spans);
    else usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace) {
    const std::string path =
        ".bench_out/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
    spans.write(path);
    report.note("wrote " + std::to_string(spans.size()) + " spans to " + path);
  }
  report.print();
  return report.correct() ? 0 : 1;
}
