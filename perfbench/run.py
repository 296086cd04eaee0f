#!/usr/bin/env python3
"""Builds the FALCON benchmark (Release) and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all --seed <n>
  python3 perfbench/run.py --smoke

The first form builds perfbench/ into $CARGO_TARGET_DIR (default
.bench_build), runs the workload in its own process and passes its output
through; the last line is the result JSON. It exits nonzero when the build
fails, the run fails, or a correctness gate fails. `--workload all` runs
every workload in turn, each in its own process.

--smoke runs every workload tiny, traced and untraced, and checks that each
emits exactly the metrics BENCHMARK.json names, with their units. It is the
benchmark's own test.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Workloads the binary runs that BENCHMARK.json does not list (README.md
# says why); smoke and --workload all cover them too.
EXTRA_WORKLOADS = ["hospital-x2"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def child_env(out_dir):
    """The environment for the build and the run: temporary files stay in
    the build directory, inside the checkout."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out_dir):
    """Configures and builds the benchmark binary; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=child_env(out_dir))
        subprocess.run(
            ["cmake", "--build", out_dir, "--target", "falcon_perfbench", "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=child_env(out_dir))
    return os.path.join(out_dir, "falcon_perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(binary, out_dir, workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns (exit code, stdout lines)."""
    # Relative to the root, so the server's Unix socket path stays short.
    work = os.path.relpath(os.path.join(out_dir, "work-%d" % os.getpid()), ROOT)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work_dir", work, "--git_sha", git_sha()]
    if trace:
        cmd += ["--trace_out", os.path.join(out_dir, "trace-%s-%s.jsonl" % (workload, seed))]
    if smoke:
        cmd += ["--smoke", "1"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env(out_dir))
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child; report no result.
        code, stdout, stderr = 124, "", "perfbench: run timed out\n"
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    if stderr:
        sys.stderr.write(stderr)
    return code, [l for l in stdout.splitlines() if l.strip()]


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def all_workloads(spec):
    return [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS


def smoke(binary, out_dir):
    spec = load_spec()
    ok = True
    for name in all_workloads(spec):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            code, lines = run_workload(binary, out_dir, name, 1, 2, trace, smoke=True)
            result = parse_result(lines)
            problems = []
            if code != 0:
                problems.append("exit code %d" % code)
            if result is None:
                problems.append("no result line")
            else:
                got = {k: v.get("unit") for k, v in result["metrics"].items()}
                if got != want:
                    problems.append("metrics differ: missing %s, extra %s, units %s" % (
                        sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                        sorted(k for k in want if k in got and got[k] != want[k])))
                if not result["correct"]:
                    problems.append("correctness gate failed")
                if result["attempted"] < 1:
                    problems.append("nothing attempted")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-18s trace=%d %s" % (name, trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not args.smoke and not args.workload:
        p.error("--workload is required (or --smoke)")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if args.smoke:
        return smoke(binary, out_dir)

    workloads = [args.workload]
    if args.workload == "all":
        workloads = all_workloads(load_spec())
    status = 0
    for workload in workloads:
        code, lines = run_workload(binary, out_dir, workload, args.seed,
                                   args.seconds, args.trace == 1)
        result = parse_result(lines)
        if result is None:
            log("perfbench: %s produced no result (exit code %d)" % (workload, code))
            status = status or code or 1
            continue
        for line in lines:
            print(line)
        sys.stdout.flush()
        if code != 0 or not result["correct"]:
            log("perfbench: %s failed a correctness gate or the run failed "
                "(exit code %d)" % (workload, code))
            status = status or code or 1
    return status


if __name__ == "__main__":
    sys.exit(main())
