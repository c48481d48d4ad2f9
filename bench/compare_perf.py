#!/usr/bin/env python3
"""Compare a campaign_perf report against the committed baseline.

Verdict-bearing fields (job set, verdict, trace_length, proved_k,
bad_label) must match exactly — any drift is a hard failure, because it
means the prover stack changed answers, not just speed. Every other
total is a deterministic work counter, named by the reports themselves:
a move of more than 10% either way is reported loudly but exits 0, so a
deliberate trade (e.g. more conflicts for less memory) can land with an
updated baseline rather than a red CI. When every counter equals the
baseline, in the totals and in every job row, the last line says so
("search bit-identical"): a change meant
to be faster without changing the search shows it preserved the search.
Wall time is ignored entirely.

usage: compare_perf.py BASELINE.json CURRENT.json
"""
import json
import sys

THRESHOLD = 0.10
VERDICT_FIELDS = ("verdict", "trace_length", "proved_k", "bad_label")


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

    warm = dict(cur["warm_totals"])
    served, total = warm.pop("jobs_from_cache"), warm.pop("jobs_total")
    busy = [f"{v} {k}" for k, v in warm.items() if v]
    print(f"warm rerun: {served}/{total} jobs from cache, "
          f"work: {', '.join(busy) or 'none'}")
    if served < total or busy:
        print("  warning: the warm rerun did work the verdict cache should "
              "have served (advisory)")

    moved = False
    identical = all(base_jobs[name] == cur_jobs[name] for name in base_jobs)
    # Baseline counters first, in their order; counters new in the
    # current report after them.
    for counter in {**base["totals"], **cur["totals"]}:
        b, c = base["totals"].get(counter), cur["totals"].get(counter)
        if b is None or c is None:
            identical = False
            which = "baseline" if b is None else "current"
            print(f"{counter:>22}: not recorded in the {which} report — skipped")
            continue
        # A zero baseline must not mask growth: any nonzero current value
        # counts as an (infinitely large) relative move.
        delta = (c - b) / b if b else (float("inf") if c else 0.0)
        identical = identical and b == c
        marker = ""
        if abs(delta) > THRESHOLD:
            marker = f"  <-- moved beyond {THRESHOLD:.0%} (advisory)"
            moved = True
        print(f"{counter:>22}: {b:>12} -> {c:>12}  ({delta:+.1%}){marker}")
    if moved:
        print(
            "\nadvisory: deterministic counters moved; if intentional, "
            "refresh bench/baseline.json in the same PR"
        )
    elif identical:
        print("\nverdicts identical, every counter equal to the baseline: "
              "search bit-identical")
    else:
        print("\nverdicts identical, counters within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
