#!/usr/bin/env python3
"""Wall-clock campaign benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload table1-serial --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (Release) under .bench_build/; later runs only re-check it. The
expected Table-1 verdicts are read from the verdict fields of
bench/baseline.json. stdout ends with a "machine" line (facts recorded
with every result) and the result object from perfbench itself:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits non-zero, without a result line, when the build fails; exits
non-zero with "correct": false when an output is wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BASELINE = ROOT / "bench" / "baseline.json"
WORKLOADS = ("table1-serial", "table1-parallel", "table1-warm", "synth-hpf")
RUN_TIMEOUT_S = 170  # the binary's share of a run's 180 s


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the perfbench target; path to the binary."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def write_expected(path, forge=False):
    """The expected Table-1 rows as a stable-form report perfbench parses.

    Verdict fields come straight from bench/baseline.json; only the report
    envelope (seed, QED mode column taken from the job name) is added.
    forge=True flips the first row's verdict — the self-test's proof that
    the correctness gate trips.
    """
    jobs = []
    for job in json.loads(BASELINE.read_text())["jobs"]:
        row = {"name": job["name"], "mode": job["name"].rsplit("/", 1)[1],
               "verdict": job["verdict"]}
        for key in ("trace_length", "bad_label", "proved_k", "error"):
            if key in job:
                row[key] = job[key]
        jobs.append(row)
    if forge:
        flipped = {"FALSIFIED": "BOUND_CLEAN"}.get(jobs[0]["verdict"], "FALSIFIED")
        jobs[0]["verdict"] = flipped
        jobs[0].pop("trace_length", None)
        jobs[0].pop("bad_label", None)
    Path(path).write_text(json.dumps({"seed": 1, "jobs": jobs}, indent=1) + "\n")


def cache_value(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def source_digest():
    """sha256 over the sources the benchmark builds (checkouts may lack .git)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", BASELINE]
    for top in (ROOT / "src", HERE):
        files += sorted(p for p in top.rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree
    of its own (an enclosing repository's HEAD would be the wrong commit)."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine_facts(load_at_start):
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        version = out.stdout.splitlines()[0] if out.stdout else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "loadavg_at_start": list(load_at_start),
    }


def run_binary(binary, argv):
    """Run perfbench; (returncode, stdout lines). stderr passes through."""
    proc = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    load_at_start = os.getloadavg()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    work = BUILD_ROOT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces = BUILD_ROOT / "traces"
    traces.mkdir(exist_ok=True)
    try:
        expected = work / "expected.json"
        write_expected(expected)
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--expected", str(expected), "--work-dir", str(work)]
        if args.trace:
            argv += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
        code, lines = run_binary(binary, argv)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        log(f"perfbench exited {code} without a result")
        return code or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"machine": machine_facts(load_at_start)}))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
