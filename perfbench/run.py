#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload eye_prbs7_2g5 --seed 1 --seconds 30 --trace 0

--trace 0 times the public calls and reports the end-to-end metrics.
--trace 1 runs the same ops twice, untraced and then call by call under
the benchmark's tracer, checks that both produce the same digests, and
reports the per-layer metrics. Either way the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the run metadata.

Other modes:
    --verify           short checked run of every workload (or --workload);
                       exits 1 on any failure
    --self-test        builds and runs the benchmark's own tests
    --write-reference  regenerates perfbench/reference/ (default seed)

The build goes to $CARGO_TARGET_DIR, else .bench_build, under the
repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["eye_prbs7_2g5", "edge_jitter_2g5", "bathtub_2g5"]
DEFAULT_SEED = 1  # the seed perfbench/reference/ holds digests for
REFERENCE_OPS = 256
MIN_OPS = 100  # the p90 tail then has at least 10 samples beyond it
PAPER_OPS = 300  # paper_err_ps averages the first 300 ops (main.cpp)
VERIFY_OPS = 48  # crosses the set-up of a fresh system at op 40
CHILD_TIMEOUT_S = 600


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Configures on first use, then builds `target`; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under", os.path.join(ROOT, "src"))
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", out, "--target", target, "-j", jobs])
    return os.path.join(out, target)


def run_checked(cmd):
    # Build chatter goes to stderr: stdout's last line is the result.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        log("command failed:", " ".join(cmd))
        sys.exit(2)


def run_binary(binary, args):
    """Runs the benchmark binary; returns (run metadata, result)."""
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        log("benchmark binary failed with code", done.returncode)
        sys.exit(2)
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def source_digest():
    """sha256 over the library sources: identifies the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def reference_path(workload):
    return os.path.join(BENCH_DIR, "reference", workload + ".txt")


def scratch_path(name):
    path = os.path.join(build_dir(), "runs")
    os.makedirs(path, exist_ok=True)
    return os.path.join(path, name)


def measure(binary, workload, seed, seconds, trace, min_ops=MIN_OPS,
            max_ops=0):
    """One benchmark run; returns (metadata, result)."""
    common = ["--workload", workload, "--seed", str(seed),
              "--reference", reference_path(workload),
              "--min-ops", str(min_ops), "--max-ops", str(max_ops)]
    if not trace:
        common[common.index("--min-ops") + 1] = str(max(min_ops, PAPER_OPS))
        return run_binary(binary, common + ["--seconds", str(seconds),
                                            "--mode", "plain"])

    # Untraced first: its digests are what every traced op must reproduce,
    # and its op time is the base of the tracing overhead.
    tag = "%s-seed%d" % (workload, seed)
    digests = scratch_path(tag + ".digests")
    spans = scratch_path(tag + ".spans.jsonl")
    half = seconds / 2.0
    plain_run, plain = run_binary(
        binary, common + ["--seconds", str(half), "--mode", "plain",
                          "--digests-out", digests])
    common[common.index("--max-ops") + 1] = str(plain["attempted"])
    traced_run, traced = run_binary(
        binary, common + ["--seconds", str(half), "--mode", "traced",
                          "--digests-in", digests, "--trace-out", spans])
    metrics = dict(traced["metrics"])
    base = plain["metrics"]["op_ms_min"]["value"]
    metrics["trace.overhead_frac"] = {
        "value": metrics["trace.op_ms_min"]["value"] / base - 1.0,
        "unit": "frac"}
    traced_run["untraced_ops"] = plain_run["ops"]
    traced_run["spans"] = os.path.relpath(spans, ROOT)
    return traced_run, {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--verify", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests], timeout=CHILD_TIMEOUT_S,
                                check=False).returncode)

    binary = build("perfbench")
    if args.write_reference:
        for workload in WORKLOADS:
            ref = reference_path(workload)
            os.makedirs(os.path.dirname(ref), exist_ok=True)
            run_binary(binary, ["--workload", workload,
                                "--seed", str(DEFAULT_SEED), "--seconds", "0",
                                "--min-ops", str(REFERENCE_OPS),
                                "--max-ops", str(REFERENCE_OPS),
                                "--mode", "plain", "--digests-out", ref])
            log("wrote", os.path.relpath(ref, ROOT))
        return

    if args.verify:
        ok = True
        for workload in [args.workload] if args.workload else WORKLOADS:
            _, result = measure(binary, workload, args.seed, 0.0, True,
                                min_ops=VERIFY_OPS, max_ops=VERIFY_OPS)
            good = result["correct"] and result["failed"] == 0
            log("verify", workload, "seed", args.seed,
                "ok" if good else "FAILED",
                "(%d ops, %d failed)" % (result["attempted"],
                                         result["failed"]))
            ok = ok and good
        sys.exit(0 if ok else 1)

    if args.workload is None:
        parser.error("--workload is required")
    run, result = measure(binary, args.workload, args.seed, args.seconds,
                          args.trace == 1)
    run["git_commit"] = git_commit()
    run["source_digest"] = source_digest()
    print(json.dumps({"run": run}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
