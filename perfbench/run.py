#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first run configures and builds the
benchmark binary (and the kucnet libraries it links) under .bench_build/;
later runs only rebuild what changed. The benchmark binary prints progress,
metadata and per-metric sample counts, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. This script checks that
line against BENCHMARK.json before passing it on, and exits non-zero without
a result when the build, the run or that check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(target):
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over every file of src/ and perfbench/: identifies the code
    measured when the tree is not a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def check_result(line, trace):
    """Returns an error string, or None when `line` is a well-formed result
    carrying exactly the metrics BENCHMARK.json declares for this mode."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            return f"{name}: unit {got[name].get('unit')} != {unit}"
    return None


def main():
    # Turn SIGTERM into SystemExit so the child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    target = "perfbench_selftest" if args.selftest else "perfbench"
    if not build(target):
        log("build failed")
        return 2
    binary = os.path.join(BUILD_DIR, target)
    if args.selftest:
        return subprocess.run([binary]).returncode
    if not args.workload:
        parser.error("--workload is required")

    digest = source_digest()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--git-sha", git_sha(), "--source-digest", digest,
           "--out-dir", BUILD_DIR]
    # The tracing overhead is the traced run's latency p50 minus an untraced
    # run's on the same code, workload, seed and length. Each untraced run
    # leaves its p50 here; a traced run without one makes the untraced run
    # first, to stderr.
    reference = os.path.join(
        BUILD_DIR, f"untraced_{args.workload}_{args.seed}_{args.seconds}.json")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        p50 = untraced_p50(reference, digest)
        if p50 is None:
            code, last = run_binary(cmd + ["--trace", "0"], sys.stderr,
                                    deadline)
            if code != 0:
                log(f"untraced reference run exited with code {code}")
                return code
            p50 = json.loads(last)["metrics"]["latency_p50_ms"]["value"]
        cmd += ["--trace", "1", "--untraced-latency-p50-ms", repr(p50)]
    else:
        cmd += ["--trace", "0"]
    code, last = run_binary(cmd, sys.stdout, deadline)
    if code != 0:
        if last is not None:
            print(last, end="", flush=True)
        log(f"benchmark exited with code {code}")
        return code
    error = check_result(last or "", args.trace == 1)
    if error is not None:
        log(f"bad result: {error}")
        return 4
    if not args.trace:
        p50 = json.loads(last)["metrics"]["latency_p50_ms"]["value"]
        with open(reference, "w") as f:
            json.dump({"source_digest": digest, "latency_p50_ms": p50}, f)
    print(last, end="", flush=True)
    return 0


def untraced_p50(path, digest):
    """The latency p50 an untraced run of the same code left at `path`, or
    None."""
    try:
        with open(path) as f:
            saved = json.load(f)
    except (OSError, ValueError):
        return None
    if saved.get("source_digest") != digest:
        return None
    return saved.get("latency_p50_ms")


def run_binary(cmd, out, deadline):
    """Runs `cmd` from the tree root, copying all but its last stdout line to
    `out`; kills it at `deadline`. Returns (exit code, last line)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, end="", file=out, flush=True)
            last = line
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if code < 0:
        log(f"benchmark killed by signal {-code} (limit {RUN_TIMEOUT_S}s)")
    return code, last


if __name__ == "__main__":
    sys.exit(main())
