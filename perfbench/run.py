#!/usr/bin/env python3
"""End-to-end benchmark of the repository (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (the repository's libraries from src/ plus the benchmark binary)
into .bench_build/perfbench. The binary runs one workload, checks every
product and digit, and reports its metrics. This script keeps the
metrics BENCHMARK.json names: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1. It prints them and, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.

Runs of one seed must agree exactly. The operand digest, the outcome
digest and every metric perfbench/spec.json marks "exact" are kept per
(build, workload, seed) in .bench_build/perfbench_ledger.json. A later
run, traced or not, that disagrees with them fails. Exit status: 0 when
correct, 1 on a wrong result or a failed check, 2 on a usage or build
error.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_e2e"
LEDGER = ROOT / ".bench_build" / "perfbench_ledger.json"
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no src/CMakeLists.txt here; run from the root of a "
            "checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_e2e", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-20000:])
            die("build failed: " + " ".join(step))


def binary_id():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_ledger(key, digests, exact):
    """Compare this run's digests and exact metrics with earlier runs
    of the same build, workload and seed; record what is new. Returns a
    list of mismatch messages."""
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    with open(LEDGER.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ledger = {}
        if LEDGER.is_file():
            ledger = json.loads(LEDGER.read_text())
        entry = ledger.setdefault(key, {"digests": {}, "exact": {}})
        problems = []
        for group, values in (("digests", digests), ("exact", exact)):
            known = entry[group]
            for name, value in values.items():
                if name in known and known[name] != value:
                    problems.append(f"{name} is {value}, an earlier run "
                                    f"of this seed had {known[name]}")
                known.setdefault(name, value)
        tmp = LEDGER.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(LEDGER)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        die(f"unknown workload {args.workload}; one of {workloads}")
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")
    traced = args.trace == "1"

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"perfbench_e2e exited {proc.returncode} without a report", 1)
    report = json.loads(lines[-1])
    measured = report["metrics"]
    problems = [] if report["correct"] else [report["error"]]

    exact = {name: measured[name]["value"] for name, info
             in spec["metrics"].items()
             if info["kind"] == "exact" and name in measured}
    key = f"{binary_id()}:{args.workload}:{args.seed}"
    problems += check_ledger(key, report["digests"], exact)

    wanted = bench["per_layer" if traced else "end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        applies = args.workload in spec["metrics"][name]["workloads"]
        if name in measured:
            if measured[name]["unit"] != m["unit"]:
                problems.append(f"{name} reported in "
                                f"{measured[name]['unit']}, not {m['unit']}")
            value = measured[name]["value"]
        elif not applies:
            value = 0  # the layer does no work in this workload
        else:
            problems.append(f"{name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for name, digest in sorted(report["digests"].items()):
        print(f"  digest.{name:<34} {digest}")
    for name, m in metrics.items():
        print(f"  {name:<41} {m['value']:<14.6g} {m['unit']}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = not problems and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
