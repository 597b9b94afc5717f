#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); compiler output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Traced runs also write their spans to
<build root>/spans/<workload>.run.csv and .ladder.csv. All other arguments pass through to
the benchmark binary (see perfbench/README.md).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to perfbench/", file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = list(argv)
    if "--spans" not in args and "--trace" in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1" and "--workload" in args:
            workload = args[args.index("--workload") + 1]
            spans_dir = os.path.join(build_root, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            args += ["--spans", os.path.join(spans_dir, os.path.basename(workload))]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
