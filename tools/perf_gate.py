#!/usr/bin/env python3
"""The simulator's speed gate: perfbench's end-to-end metrics against committed references.

    python3 tools/perf_gate.py --check    # run each gated workload once and compare
    python3 tools/perf_gate.py --update   # run each gated workload 3 times and write the
                                          # medians to BENCH_perf_baseline.json

The workloads and the run length are BENCHMARK.json's "workloads" and "run_seconds". Each
workload runs at perfbench's default seed, untraced:

    python3 perfbench/run.py --workload <name> --seconds <run_seconds> --trace 0

run.py builds into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and reuses a
configured tree as it finds it, so pointing CARGO_TARGET_DIR at a Debug-configured tree
checks a Debug build (ci.sh --perf does, and requires the check to fail).

BENCH_perf_baseline.json holds one reference row per (workload, metric):
{"workload", "seed", "seconds", "metric", "value"}. A check fails when

  * a run is not correct, fails a request, or produces no result;
  * a sim_* metric differs from its reference at all (the simulation changed);
  * any other metric is worse than its reference by more than its BENCHMARK.json
    end_to_end "bound" (a fraction of the reference, in the metric's "better" direction);
  * a workload, a metric or a reference row is missing, or the references were recorded
    at another seed or run length.

Every compared value prints as one "perf_gate: OK|FAIL <workload> <metric> ..." line.
"""

import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_PATH = os.path.join(ROOT, "BENCH_perf_baseline.json")
UPDATE_RUNS = 3


def load_spec(path=SPEC_PATH):
    with open(path) as f:
        return json.load(f)


def load_refs(path=BASELINE_PATH):
    """{workload: {"seed", "seconds", "metrics": {metric: value}}} from the reference rows."""
    refs = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            ref = refs.setdefault(row["workload"],
                                  {"seed": row["seed"], "seconds": row["seconds"], "metrics": {}})
            ref["metrics"][row["metric"]] = row["value"]
    return refs


def check(spec, refs, runs):
    """Compares one run per gated workload with its references.

    `runs` maps a workload to {"seed": n, "seconds": s, "result": perfbench's JSON result}
    (a workload whose run produced no result is absent). Returns (ok, line) pairs; the check
    passed when every ok is True.
    """
    lines = []

    def fail(text):
        lines.append((False, text))

    for workload in (w["name"] for w in spec["workloads"]):
        ref, run = refs.get(workload), runs.get(workload)
        if ref is None:
            fail(f"{workload}: no reference rows (record them with --update)")
            continue
        if run is None:
            fail(f"{workload}: no result (the run failed or did not finish)")
            continue
        for key in ("seed", "seconds"):
            if run[key] != ref[key]:
                fail(f"{workload}: ran with {key} {run[key]}, references were recorded with "
                     f"{ref[key]} (record them again with --update)")
        result = run["result"]
        if result.get("correct") is not True:
            fail(f"{workload} correct: {result.get('correct')} (the run failed verification)")
        if result.get("failed", 1) > 0:
            fail(f"{workload} failed: {result.get('failed')} of {result.get('attempted')} "
                 "requests failed")
        got_metrics = result.get("metrics", {})
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in ref["metrics"] or name not in got_metrics:
                where = "reference rows" if name not in ref["metrics"] else "result"
                fail(f"{workload} {name}: missing from the {where}")
                continue
            want = ref["metrics"][name]
            got = got_metrics[name]["value"]
            if name.startswith("sim_"):
                same = got == want
                lines.append((same, f"{workload} {name} {got!r} vs {want!r} "
                                    f"({'identical' if same else 'the simulation changed'})"))
                continue
            worse = (got - want) / want if m["better"] == "lower" else (want - got) / want
            lines.append((worse <= m["bound"],
                          f"{workload} {name} {got:.6g} vs {want:.6g} {m['unit']} "
                          f"({worse:+.1%} worse, bound {m['bound']:+.0%})"))
    return lines


def run_workload(workload, seconds):
    """One untraced perfbench run at its default seed, or None when it produced no result."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    header = [l for l in lines if l.startswith(f"perfbench {workload} seed=")]
    if proc.returncode != 0 or not header:
        return None
    seed = int(re.match(r"perfbench \S+ seed=(\d+) ", header[0]).group(1))
    return {"seed": seed, "seconds": seconds, "result": json.loads(lines[-1])}


def update(spec):
    """Runs every workload UPDATE_RUNS times, interleaved, and writes the median rows."""
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for i in range(UPDATE_RUNS):
        for w in workloads:
            print(f"perf_gate: {w} run {i + 1} of {UPDATE_RUNS} ({seconds} s)", flush=True)
            run = run_workload(w, seconds)
            if run is None or not run["result"]["correct"] or run["result"]["failed"] > 0:
                print(f"perf_gate: {w}: run {i + 1} failed; nothing written", file=sys.stderr)
                return 1
            runs[w].append(run)
    rows = []
    for w in workloads:
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w]]
            if m["name"].startswith("sim_") and len(set(values)) != 1:
                print(f"perf_gate: {w} {m['name']} differs between runs of one seed: "
                      f"{values}; nothing written", file=sys.stderr)
                return 1
            rows.append({"workload": w, "seed": runs[w][0]["seed"], "seconds": seconds,
                         "metric": m["name"], "value": statistics.median(values)})
    with open(BASELINE_PATH, "w") as f:
        for row in rows:
            f.write(json.dumps(row, separators=(",", ":")) + "\n")
    print(f"perf_gate: wrote {len(rows)} rows (median of {UPDATE_RUNS} runs) to "
          f"{os.path.relpath(BASELINE_PATH, ROOT)}")
    return 0


def main(argv):
    if argv not in (["--check"], ["--update"]):
        print("usage: perf_gate.py --check|--update", file=sys.stderr)
        return 2
    spec = load_spec()
    if argv == ["--update"]:
        return update(spec)
    runs = {}
    for w in (w["name"] for w in spec["workloads"]):
        print(f"perf_gate: running {w} ({spec['run_seconds']} s)", flush=True)
        run = run_workload(w, spec["run_seconds"])
        if run is not None:
            runs[w] = run
    lines = check(spec, load_refs(), runs)
    for ok, text in lines:
        print(f"perf_gate: {'OK  ' if ok else 'FAIL'} {text}")
    failures = sum(1 for ok, _ in lines if not ok)
    if failures:
        print(f"perf_gate: FAIL — {failures} of {len(lines)} checks failed "
              f"against {os.path.relpath(BASELINE_PATH, ROOT)}", file=sys.stderr)
        return 1
    print(f"perf_gate: OK — {len(lines)} checks within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
