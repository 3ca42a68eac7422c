#!/usr/bin/env python3
"""Builds and runs the GeoStreams system benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload live --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --smoke              # self-test, every workload
    python3 perfbench/run.py --ledger             # traced run of every workload
    python3 perfbench/run.py --spread 10          # ten seeds per workload

A single run prints a host fingerprint, the benchmark's own report, and
as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. The binary is built from source with cargo into
$CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def capture(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def fingerprint():
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"host: nproc {os.cpu_count()}, {capture(['rustc', '--version'])}, "
            f"profile release, rev {capture(['git', 'rev-parse', '--short', 'HEAD'])}, "
            f"{platform.machine()}, loadavg {load}")


def run_binary(binary, args):
    """Runs the binary; returns (stdout lines, parsed result or None)."""
    try:
        done = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run failed: {e}")
        return [], None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log(f"run failed with exit code {done.returncode}")
        return lines, None
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        log("run printed no result line")
        return lines, None


def single(binary, a):
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    print(fingerprint(), flush=True)
    lines, result = run_binary(binary, args)
    for line in lines:
        print(line)
    return 0 if result is not None else 1


def smoke(binary):
    """One tiny round per workload, traced and untraced: every declared
    metric is printed with its unit and nothing fails; a perturbed
    reference digest must be counted as a failure."""
    s = spec()
    problems = []
    for w in (x["name"] for x in s["workloads"]):
        for trace, declared in ((0, s["end_to_end"]), (1, s["per_layer"])):
            _, r = run_binary(binary, ["--workload", w, "--seed", "1", "--seconds", "1",
                                       "--trace", str(trace), "--smoke"])
            if r is None:
                problems.append(f"{w} trace {trace}: no result")
                continue
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"{w} trace {trace}: failed {r['failed']}/{r['attempted']}")
            for m in declared:
                got = r["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{w} trace {trace}: {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{w} trace {trace}: {m['name']} unit {got['unit']}")
            extra = set(r["metrics"]) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{w} trace {trace}: undeclared {sorted(extra)}")
        _, r = run_binary(binary, ["--workload", w, "--seed", "1", "--seconds", "1",
                                   "--trace", "0", "--smoke", "--perturb-digest"])
        if r is None or r["failed"] == 0 or r["correct"]:
            problems.append(f"{w}: perturbed reference digest was not counted as a failure")
        else:
            print(f"{w}: perturbed digest -> fail_frac {r['failed'] / r['attempted']:.3f}")
        print(f"{w}: smoke done")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def ledger(binary, a):
    print(fingerprint(), flush=True)
    status = 0
    for w in (x["name"] for x in spec()["workloads"]):
        lines, r = run_binary(binary, ["--workload", w, "--seed", str(a.seed), "--seconds",
                                       str(a.seconds), "--trace", "1"])
        for line in lines[:-1]:
            print(line)
        status |= r is None
    return status


def spread(binary, a):
    """Runs `a.spread` seeds per workload and prints each end-to-end
    metric's median, quartiles and spread (IQR / median) next to a third
    of its bound."""
    s = spec()
    print(fingerprint(), flush=True)
    workloads = [a.workload] if a.workload else [x["name"] for x in s["workloads"]]
    status = 0
    for w in workloads:
        values = {m["name"]: [] for m in s["end_to_end"]}
        failed = attempted = 0
        for seed in range(a.seed, a.seed + a.spread):
            _, r = run_binary(binary, ["--workload", w, "--seed", str(seed), "--seconds",
                                       str(a.seconds), "--trace", "0"])
            if r is None:
                status = 1
                continue
            failed += r["failed"]
            attempted += r["attempted"]
            for name in values:
                values[name].append(r["metrics"][name]["value"])
            print(f"  seed {seed}: " + ", ".join(
                f"{n} {v[-1]:.4g}" for n, v in values.items()), flush=True)
        print(f"{w}: {a.spread} seeds from {a.seed}, {a.seconds} s each, "
              f"fail_frac {failed / max(attempted, 1):.4f}")
        for m in s["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            rel = (q3 - q1) / med
            mark = "" if m["name"] == "setup_s" or rel < m["bound"] / 3 else "  WIDE"
            print(f"  {m['name']:<14} median {med:14.4f} {m['unit']:<6} q1 {q1:14.4f} "
                  f"q3 {q3:14.4f} spread {rel:.4f} (bound/3 {m['bound'] / 3:.4f}){mark}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--ledger", action="store_true")
    p.add_argument("--spread", type=int, default=0)
    a = p.parse_args()
    binary = build()
    if binary is None:
        return 1
    if a.smoke:
        return smoke(binary)
    if a.ledger:
        return ledger(binary, a)
    if a.spread:
        return spread(binary, a)
    if not a.workload:
        p.error("--workload is required")
    return single(binary, a)


if __name__ == "__main__":
    sys.exit(main())
