#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at minimal size.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs perfbench/run.py with --smoke,
untraced and traced, and checks that the last line is the result object with
exactly the keys correct/attempted/failed/metrics, that every end-to-end
(untraced) or per-layer (traced) metric named in BENCHMARK.json is printed
with its unit and a finite value, and that the run is correct with nothing
failed. It then runs each workload with --corrupt-reference and checks that
the corrupted reference result is counted as failed. Two runs with the same
seed must report the same envelope-pass counts. Exits 1 on any failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                    out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    details = next((json.loads(l[len("details: "):]) for l in lines
                    if l.startswith("details: ")), {})
    return json.loads(lines[-1]), details


def check_metrics(result, expected, where):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("%s: metric %s missing" % (where, m["name"]))
        elif got.get("unit") != m["unit"]:
            problems.append("%s: %s unit %r, want %r"
                            % (where, m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("%s: %s value %r" % (where, m["name"], got))
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append("%s: unexpected metrics %s" % (where, sorted(extra)))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in [w["name"] for w in bench["workloads"]]:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = "%s trace=%d" % (w, trace)
            result, details = run(w, trace)
            problems += check_metrics(result, expected, where)
            if not result.get("correct") or result.get("failed") != 0 or \
                    result.get("attempted", 0) < 1:
                problems.append("%s: not a clean run: %s" % (where, result))
            if w == "montecarlo" and trace == 0:
                _, again = run(w, trace)
                if details.get("envelope_pass") != again.get("envelope_pass"):
                    problems.append("montecarlo: envelope-pass counts differ "
                                    "between runs of one seed")
        result, _ = run(w, 0, "--corrupt-reference")
        if result.get("correct") or result.get("failed", 0) < 1:
            problems.append("%s: corrupted reference not counted as failed: %s"
                            % (w, result))
        print("%s: checked" % w, flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
