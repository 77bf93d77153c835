#!/usr/bin/env python3
"""Job-path benchmark of peachyd: builds and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt). It
is built from source into $CARGO_TARGET_DIR (default .bench_build) on the
first run, then the `perfbench` load generator starts the real peachyd on a
pre-filled state directory and drives the workload's seeded job stream.
The last stdout line is the result JSON. With --trace 1 the run also writes
the benchmark's Chrome trace next to the build and validates it with
scripts/trace_check.py.

--self-test runs the benchmark's unit checks (tail rule, metric names,
oracles) and then a short run with one corrupted result, which must fail.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("svc-small-threads", "svc-small-process", "svc-heavy-process")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                      "--target", "peachyd", "perfbench",
                      "perfbench_selftest"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return True


def run_load_generator(out, args, extra=()):
    """Runs the load generator; returns (exit code, stdout lines)."""
    work = os.path.join(out, f"work-{args.workload}-{os.getpid()}")
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--bin-dir", out, "--work-dir", work,
           *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, []
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, stdout.splitlines()


def check_trace(path):
    checker = os.path.join(ROOT, "scripts", "trace_check.py")
    if not os.path.exists(checker):
        log("scripts/trace_check.py not found; trace not validated")
        return False
    return subprocess.run([sys.executable, checker, path],
                          stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def self_test(out):
    ok = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode == 0
    args = argparse.Namespace(workload="svc-small-threads", seed=1,
                              seconds=0.1, trace=0)
    code, lines = run_load_generator(out, args, ["--inject-wrong-result"])
    caught = code != 0 and bool(lines) and '"correct": false' in lines[-1]
    print("a corrupted result makes the run fail:", "yes" if caught else "NO")
    return 0 if ok and caught else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    if args.self_test:
        return self_test(out)

    trace_path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.json")
    extra = ["--trace-file", trace_path] if args.trace else []
    code, lines = run_load_generator(out, args, extra)
    for line in lines[:-1]:
        print(line)
    if args.trace and code == 0 and not check_trace(trace_path):
        log("the trace failed scripts/trace_check.py")
        code = 1
    if lines:
        print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
