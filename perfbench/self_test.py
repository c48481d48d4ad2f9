#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (1 Table-1 row, 2 synthesis cases).

    python3 perfbench/self_test.py

Builds perfbench as run.py does, then checks that
  * every workload, untraced and traced, passes its correctness gate and
    emits exactly the metrics BENCHMARK.json names, each with its unit;
  * a forged expected verdict trips the Table-1 correctness gate: the run
    reports "correct": false with a failed op and exits non-zero.
Takes under a minute on 4 cores, the first build included.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(condition, message):
    if not condition:
        sys.exit(f"self_test: FAIL: {message}")


def run_small(binary, work, workload, trace, expected):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.01",
            "--trace", str(trace), "--expected", str(expected), "--work-dir", str(work),
            "--rows", "1", "--cases", "2"]
    code, lines = run.run_binary(binary, argv)
    check(lines, f"{workload} trace={trace}: no output")
    return code, json.loads(lines[-1])


def main():
    binary = run.build()
    with tempfile.TemporaryDirectory(dir=run.BUILD_ROOT) as tmp:
        work = Path(tmp)
        expected = work / "expected.json"
        run.write_expected(expected)
        for trace, table in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            units = {m["name"]: m["unit"] for m in table}
            for workload in run.WORKLOADS:
                what = f"{workload} trace={trace}"
                code, result = run_small(binary, work, workload, trace, expected)
                check(code == 0, f"{what}: exit code {code}")
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{what}: result keys {sorted(result)}")
                check(result["correct"] is True and result["failed"] == 0,
                      f"{what}: correctness gate failed: {result}")
                check(result["attempted"] >= 1, f"{what}: nothing attempted")
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                check(got == units, f"{what}: metrics/units differ from BENCHMARK.json: "
                                    f"missing {sorted(set(units) - set(got))}, "
                                    f"extra {sorted(set(got) - set(units))}, "
                                    f"units {[n for n in got if got[n] != units.get(n)]}")
                for name, m in result["metrics"].items():
                    check(isinstance(m["value"], (int, float)),
                          f"{what}: {name} not a number")
                if trace == 0:
                    zero = [n for n, m in result["metrics"].items() if m["value"] <= 0]
                    check(not zero, f"{what}: end-to-end metrics not positive: {zero}")
                print(f"self_test: ok  {what}: {result['attempted']} ops", flush=True)

        forged = work / "forged.json"
        run.write_expected(forged, forge=True)
        code, result = run_small(binary, work, "table1-serial", 0, forged)
        check(code != 0, "forged verdict: exit code 0")
        check(result["correct"] is False and result["failed"] >= 1,
              f"forged verdict did not trip the gate: {result}")
        print("self_test: ok  forged expected verdict trips the correctness gate")
    print("self_test: PASS")


if __name__ == "__main__":
    main()
