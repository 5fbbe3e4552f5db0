#!/usr/bin/env python3
"""End-to-end estimation benchmark: build, run one workload, report.

    python3 e2ebench/run.py --workload lr_adaptive --seed 7 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
e2ebench CMake package (the library from src/ plus the lbsagg_e2e driver)
into .bench_build/e2ebench; later calls only re-check the build. Build
output goes to stderr. Standard output carries the run context, the
correctness-gate verdicts and every metric with its unit, then, as its last
line, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits non-zero, printing no result, when the build or the
run fails. Standard library only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "lbsagg_e2e")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, check=False)
        except OSError as err:
            log("e2ebench: cannot run %s: %s" % (cmd[0], err))
            return False
        if proc.returncode != 0:
            log("e2ebench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0,
                        help="small sizes (the benchmark's own smoke test)")
    args = parser.parse_args()

    if not build():
        return 1
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--smoke", str(args.smoke), "--work-dir", WORK]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("e2ebench: lbsagg_e2e exited with %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])

    context = dict(result["context"])
    context["git_commit"] = git_commit()
    context["source_sha256"] = source_digest()
    for key, value in context.items():
        print("context   %-20s %s" % (key, value))
    for note in result["notes"]:
        print(note)
    metrics = result["metrics"]
    for name, m in metrics.items():
        print("metric    %-36s %.6g %s" % (name, m["value"], m["unit"]))

    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in metrics.items()}
        if got != expected:
            log("e2ebench: metrics differ from BENCHMARK.json: missing %s, "
                "extra %s" % (sorted(set(expected) - set(got)),
                              sorted(set(got) - set(expected))))
            return 1

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
