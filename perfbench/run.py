#!/usr/bin/env python3
"""Build and run the IMC stack benchmark from the repository root.

    python3 perfbench/run.py --workload <mlp_infer|mlp_multi_tenant|vecop_stream>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the simulator library from src/ plus the
benchmark) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
runs the statistics self-test, then the benchmark with the given arguments.
Build output goes to stderr, so the last stdout line is the benchmark's JSON
result. The exit code is the benchmark's, or non-zero when the build or the
self-test fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def step(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("perfbench: %s failed (exit %d)\n" % (cmd[0], done.returncode))
        sys.exit(done.returncode or 1)


def main():
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "-j", str(min(4, os.cpu_count() or 1))])
    step([os.path.join(build, "perfbench_selftest")])
    sys.exit(subprocess.run([os.path.join(build, "perfbench")] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
