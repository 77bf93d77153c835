#!/usr/bin/env python3
"""Runs scripts/bench_diff.py on canned perfbench result lines.

Ten parent and ten change runs are built so that each verdict shows up
once: sandpile_ms_p50 improves, jobs_per_s (higher is better) improves,
dmr_ms_p50 moves inside its bound, wfsim_ms_p50 regresses past it and
job_ms_tail spreads too widely to tell. Stdlib only; exits 1 on the first
unexpected result.
Usage: bench_diff_test.py SOURCE_DIR
"""

import json
import os
import subprocess
import sys
import tempfile

PARENT = {
    "sandpile_ms_p50": [2431, 2077, 1953, 2100, 2210, 2050, 2300, 1990, 2150, 2080],
    "jobs_per_s": [0.40, 0.42, 0.41, 0.43, 0.40, 0.41, 0.42, 0.40, 0.41, 0.42],
    "dmr_ms_p50": [500, 510, 505, 495, 502, 508, 498, 503, 507, 499],
    "wfsim_ms_p50": [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
    "job_ms_tail": [900, 1000, 1100, 950, 1050, 980, 1020, 940, 1060, 1000],
}
CHANGE = {
    "sandpile_ms_p50": [1553, 1716, 1472, 1600, 1650, 1580, 1620, 1500, 1690, 1610],
    "jobs_per_s": [0.50, 0.52, 0.51, 0.53, 0.50, 0.51, 0.52, 0.50, 0.51, 0.52],
    "dmr_ms_p50": [505, 512, 500, 499, 510, 506, 501, 500, 509, 502],
    "wfsim_ms_p50": [140, 141, 139, 140, 142, 138, 140, 141, 139, 140],
    "job_ms_tail": [500, 1500, 900, 1400, 600, 1300, 700, 1200, 800, 1100],
}
EXPECTED = {
    "sandpile_ms_p50": "improved",
    "jobs_per_s": "improved",
    "dmr_ms_p50": "within bound",
    "wfsim_ms_p50": "regressed",
    "job_ms_tail": "unresolved",
}


def result_lines(series: dict) -> str:
    """Raw perfbench stdout: progress chatter plus one result line per run."""
    out = []
    for i in range(10):
        out.append(f"stream: run {i} done")
        metrics = {k: {"value": v[i], "unit": "ms"} for k, v in series.items()}
        out.append(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                               "metrics": metrics}))
    return "\n".join(out) + "\n"


def run(script: str, *args: str) -> tuple:
    proc = subprocess.run([sys.executable, script, *args], capture_output=True,
                          text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def check(cond: bool, msg: str, output: str) -> None:
    if not cond:
        print(f"bench_diff_test: FAIL: {msg}\n{output}", file=sys.stderr)
        sys.exit(1)


def main() -> None:
    source = sys.argv[1]
    script = os.path.join(source, "scripts", "bench_diff.py")
    benchmark = os.path.join(source, "BENCHMARK.json")
    with open(benchmark, "rb") as f:
        benchmark_bytes = f.read()
    with tempfile.TemporaryDirectory() as tmp:
        parent = os.path.join(tmp, "parent.txt")
        change = os.path.join(tmp, "change.txt")
        with open(parent, "w", encoding="utf-8") as f:
            f.write(result_lines(PARENT))
        with open(change, "w", encoding="utf-8") as f:
            f.write(result_lines(CHANGE))

        code, out = run(script, "--benchmark", benchmark,
                        "--workload", "svc-heavy-process", parent, change)
        check(code == 1, "a regressed metric must fail the diff", out)
        check("10 parent runs, 10 change runs, 10 pairs" in out,
              "runs not paired", out)
        for metric, want in EXPECTED.items():
            line = next((l for l in out.splitlines()
                         if l.split() and l.split()[0] == metric), "")
            check(line.rstrip().endswith(want),
                  f"{metric} should be '{want}'", out)
        check("10/10" in next(l for l in out.splitlines()
                              if l.lstrip().startswith("sandpile_ms_p50")),
              "sandpile_ms_p50 should win every pair", out)

        # Same runs on both sides: nothing moves, and the claim fails.
        code, out = run(script, "--benchmark", benchmark, "--claim",
                        "sandpile_ms_p50", "--workload", "w", parent, parent)
        check(code == 1, "an unmet claim must fail the diff", out)
        check("improved" not in out and "regressed" not in out,
              "identical runs cannot differ", out)

        # Only the improving metrics: the diff passes with the claim.
        keep = {k: CHANGE[k] for k in ("sandpile_ms_p50", "jobs_per_s")}
        base = {k: PARENT[k] for k in keep}
        with open(parent, "w", encoding="utf-8") as f:
            f.write(result_lines(base))
        with open(change, "w", encoding="utf-8") as f:
            f.write(result_lines(keep))
        code, out = run(script, "--benchmark", benchmark, "--claim",
                        "sandpile_ms_p50", "--workload", "w", parent, change)
        check(code == 0, "an improving change must pass", out)

        code, out = run(script, "--benchmark", benchmark, "--workload", "w",
                        parent, os.path.join(tmp, "missing.txt"))
        check(code == 2, "unreadable input must exit 2", out)

    with open(benchmark, "rb") as f:
        check(f.read() == benchmark_bytes, "BENCHMARK.json was modified", "")
    print("bench_diff_test: OK")


if __name__ == "__main__":
    main()
