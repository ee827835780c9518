#!/usr/bin/env python3
"""Builds the serving benchmark from the checkout's sources and runs it.

Run from the root of a checkout:

    python3 servebench/run.py --workload mixed_hybrid --seed 1 --seconds 10 --trace 0

The benchmark program (servebench.cc) is compiled with the library sources
under src/ into $CARGO_TARGET_DIR/servebench (default .bench_build/servebench)
on first use; later runs only rebuild what changed. Its standard output is
passed through, and its last line is the JSON result. With --trace 1 the
Chrome trace-event file lands next to the binary.

Self-check: every run records its sim_fingerprint under (binary, workload,
seed) in fingerprints.json in the build directory. A later run of the same
binary and seed whose fingerprint differs is reported as incorrect, so the
simulated statistics are shown to be a pure function of the seed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("mixed_hybrid", "selective_sharded", "ingest_first_query")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the benchmark.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_fingerprint(build_dir, binary, workload, seed, lines):
    """True when this run's sim_fingerprint matches every earlier run of the
    same binary, workload and seed (and records it)."""
    found = [l.split()[-1] for l in lines if l.startswith("sim_fingerprint ")]
    if len(found) != 1:
        log("no sim_fingerprint line in the output")
        return False
    path = os.path.join(build_dir, "fingerprints.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    key = "%s:%s:%d" % (file_digest(binary), workload, seed)
    if key in known and known[key] != found[0]:
        log("sim_fingerprint %s differs from %s recorded by an earlier run "
            "of this binary with seed %d" % (found[0], known[key], seed))
        return False
    known[key] = found[0]
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    if not os.path.exists(os.path.join(root, "src", "analytics", "server.h")):
        log("no library sources under %s/src; nothing to build" % root)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "servebench")
    if not build(source_dir, build_dir):
        return 2
    binary = os.path.join(build_dir, "servebench")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-file", os.path.join(
            build_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = done.stdout.decode(errors="replace").rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write("\n".join(lines) + "\n")
        log("benchmark printed no result (exit %d)" % done.returncode)
        return done.returncode or 4
    code = done.returncode
    if not check_fingerprint(build_dir, binary, args.workload, args.seed,
                             lines):
        result["correct"] = False
        code = code or 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
