#!/usr/bin/env python3
"""Test of the counter guard: compare_perf_test.py compare_perf.py baseline.json

Runs the guard on the committed baseline against the baseline itself,
a copy with one verdict flipped, and a copy with one counter raised 20%
on every row and one row's hit_memory_limit set.
"""
import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

guard, baseline = sys.argv[1], sys.argv[2]
base = json.loads(Path(baseline).read_text())
failures = 0


def check(name, report, want_status, want_line):
    global failures
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "current.json"
        path.write_text(json.dumps(report))
        run = subprocess.run([sys.executable, guard, baseline, str(path)],
                             capture_output=True, text=True, timeout=60)
    if run.returncode != want_status or want_line not in run.stdout:
        print(f"FAIL: {name}: exit {run.returncode} (want {want_status} and "
              f"'{want_line}')\n{run.stdout}{run.stderr}")
        failures += 1
    else:
        print(f"ok: {name}")


check("baseline against itself", base, 0, "search bit-identical")

flipped = copy.deepcopy(base)
row = flipped["jobs"][0]
row["verdict"] = "BOUND_CLEAN" if row["verdict"] == "FALSIFIED" else "FALSIFIED"
check("one verdict flipped", flipped, 1, "VERDICT DRIFT")

moved = copy.deepcopy(base)
for job in moved["jobs"]:
    job["conflicts"] = job["conflicts"] * 6 // 5
moved["jobs"][0]["hit_memory_limit"] = True
check("a counter raised 20% and a memory-limit row", moved, 0,
      "advisory: deterministic counters moved (conflicts, hit_memory_limit)")

sys.exit(1 if failures else 0)
