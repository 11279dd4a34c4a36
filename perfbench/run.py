#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload inproc_wire --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the repository's src/ as a Release build)
into .bench_build/ at the repository root, runs the benchmark binary, and
prints a build stamp line followed by the result as the last line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--self-test corrupts one expected frame (or one expected interpreter output)
of every workload and checks that the run reports failures.  See
perfbench/README.md for the workloads and metrics.
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

DEFAULT_SEED = 1
WORKLOADS = ("inproc_wire", "inproc_paced", "dist_tcp", "compile_corpus")
RUN_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "domino_perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark as a Release build."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                       check=True, stdout=sys.stderr)


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_binary(args):
    """Runs the binary; returns (stamp, result) parsed from its stdout."""
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark binary exited with {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    stamp = json.loads(lines[0])["stamp"]
    result = json.loads(lines[-1])
    return stamp, result


def self_test(seed):
    """Every workload must report failures against a corrupted reference."""
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            _, result = run_binary(["--workload", workload, "--seed", str(seed),
                                    "--seconds", "1", "--trace", trace,
                                    "--corrupt-reference"])
            caught = (not result["correct"]) and result["failed"] > 0
            share = result["failed"] / result["attempted"]
            log(f"self-test {workload} trace={trace}: failed_share={share:.3g}"
                f" {'caught' if caught else 'MISSED'}")
            ok = ok and caught
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    if not (ROOT / "src" / "banzai" / "service.h").is_file():
        log(f"repository sources not found under {ROOT / 'src'}")
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    if args.self_test:
        return self_test(args.seed)

    load_start = os.getloadavg()
    try:
        stamp, result = run_binary(["--workload", args.workload,
                                    "--seed", str(args.seed),
                                    "--seconds", str(args.seconds),
                                    "--trace", args.trace])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError, KeyError) as e:
        log(str(e))
        return 1
    stamp.update({
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "failed_share": result["failed"] / result["attempted"],
    })
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
