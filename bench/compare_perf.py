#!/usr/bin/env python3
"""Compare a sepe-run report against the committed counter baseline.

Both files are timing-form `sepe-run --json` reports of the Table-1 grid
on one thread. The baseline is regenerated by

    sepe-run --bugs table1 --rows 8 --bound 6 --max-k 2 --threads 1 \\
        --json bench/baseline.json

Verdict-bearing fields (the job set, verdict, trace_length, proved_k,
bad_label, error) must match exactly — any drift is a hard failure,
because it means the prover stack changed answers, not just speed. Every
other integer or boolean field of a job row is a deterministic counter
on one thread: the work counters (smt::kWorkCounters), bmc_bounds_checked,
trace_length_shrunk and flags such as hit_memory_limit. Each is summed
over the job rows. A sum that moves by more than 10% either way is
reported loudly but exits 0, so a deliberate trade (e.g. more conflicts
for less memory) can land with a refreshed baseline rather than a red
CI. When every counter of every job row equals the baseline, the last
line says so ("search bit-identical"): a change meant to be faster
without changing the search shows it preserved the search. Floats
(seconds, wall_seconds) are ignored.

usage: compare_perf.py BASELINE.json CURRENT.json
"""
import json
import sys

THRESHOLD = 0.10
VERDICT_FIELDS = ("verdict", "trace_length", "proved_k", "bad_label", "error")


def counters(job):
    """A job row's counters: its integer and boolean fields, verdict fields aside."""
    return {k: int(v) for k, v in job.items()
            if isinstance(v, (bool, int)) and k not in VERDICT_FIELDS}


def totals(jobs):
    sums = {}
    for job in jobs.values():
        for k, v in counters(job).items():
            sums[k] = sums.get(k, 0) + v
    return sums


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        cur = json.load(f)

    drift = []
    base_jobs = {j["name"]: j for j in base["jobs"]}
    cur_jobs = {j["name"]: j for j in cur["jobs"]}
    if list(base_jobs) != list(cur_jobs):
        drift.append(f"job set changed: {sorted(set(base_jobs) ^ set(cur_jobs))}")
    for name in base_jobs.keys() & cur_jobs.keys():
        for field in VERDICT_FIELDS:
            b, c = base_jobs[name].get(field), cur_jobs[name].get(field)
            if b != c:
                drift.append(f"{name}: {field} {b!r} -> {c!r}")
    if drift:
        print("VERDICT DRIFT — the prover stack changed answers:")
        for line in drift:
            print(f"  {line}")
        return 1

    identical = all(counters(base_jobs[n]) == counters(cur_jobs[n]) for n in base_jobs)
    base_sums, cur_sums = totals(base_jobs), totals(cur_jobs)
    moved = []
    # Baseline counters first, in their order; counters new in the
    # current report after them.
    for counter in {**base_sums, **cur_sums}:
        b, c = base_sums.get(counter), cur_sums.get(counter)
        if b is None or c is None:
            which = "baseline" if b is None else "current"
            print(f"{counter:>22}: not recorded in the {which} report — skipped")
            continue
        # A zero baseline must not mask growth: any nonzero current value
        # counts as an (infinitely large) relative move.
        delta = (c - b) / b if b else (float("inf") if c else 0.0)
        marker = ""
        if abs(delta) > THRESHOLD:
            marker = f"  <-- moved beyond {THRESHOLD:.0%} (advisory)"
            moved.append(counter)
        print(f"{counter:>22}: {b:>12} -> {c:>12}  ({delta:+.1%}){marker}")
    if moved:
        print(f"\nadvisory: deterministic counters moved ({', '.join(moved)}); if "
              "intentional, refresh bench/baseline.json in the same PR")
    elif identical:
        print("\nverdicts identical, every counter equal to the baseline: "
              "search bit-identical")
    else:
        print("\nverdicts identical, counters within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
