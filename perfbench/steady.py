#!/usr/bin/env python3
"""Steadiness and determinism checks for the repository benchmark.

    python3 perfbench/steady.py spread
    python3 perfbench/steady.py determinism

Run from the repository root; both cover every workload in
BENCHMARK.json.  `spread` runs the benchmark once at each of the seeds
1..10 and prints, for every end-to-end metric, the median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound.  `determinism` runs each workload twice at
seed 1 and checks that the deterministic metrics repeat exactly
(end-to-end and traced), then once at seed 2 and checks every end-to-end
metric stays within its bound of seed 1's value.
"""

import json
import statistics
import subprocess
import sys

SPREAD_SEEDS = range(1, 11)
SEED, OTHER_SEED = 1, 2

# End-to-end metrics that do not depend on the clock.
DET_E2E = ("bytes_per_key", "heap_peak_mb")
# Traced-run counts that must repeat exactly at a fixed seed.
DET_LAYER = (
    "core.node_visits_per_lookup", "core.height", "core.minor_words_per_lookup",
    "core.minor_words_per_batch_key", "core.minor_words_per_mutation",
    "core.recover_bulk_keys", "core.recover_tail_ops", "partialkey.derefs_per_lookup",
    "partialkey.pk_resolved_ratio", "records.bytes_per_key", "arena.record_used_over_live",
    "cachesim.l2_miss_per_lookup", "cachesim.tlb_miss_per_lookup",
    "cachesim.sim_ns_per_lookup", "journal.records_per_mutation",
    "journal.commits_per_mutation", "log_bytes_per_op", "gc.minor_collections_per_kop",
    "gc.major_collections", "gc.promoted_words_per_op", "fail_ratio",
)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(spec, workloads):
    worst = 0.0
    for w in workloads:
        runs = [run(spec, w, s, 0) for s in SPREAD_SEEDS]
        print(f"== {w} ({len(runs)} seeds)")
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            ratio = share / m["bound"]
            worst = max(worst, ratio)
            print(f"  {m['name']:20s} median {med:14.6g} {m['unit']:7s} "
                  f"spread {share:7.4f}  bound {m['bound']:.2f}  spread/bound {ratio:5.2f}  "
                  f"runs {' '.join(f'{v:.4g}' for v in vals)}")
    print(f"largest spread/bound: {worst:.2f}")


def determinism(spec, workloads):
    seed, other = SEED, OTHER_SEED
    bad = 0
    for w in workloads:
        a, b = run(spec, w, seed, 0), run(spec, w, seed, 0)
        for k in DET_E2E:
            if a[k] != b[k]:
                bad += 1
                print(f"{w}: {k} differs at seed {seed}: {a[k]} vs {b[k]}")
        ta, tb = run(spec, w, seed, 1), run(spec, w, seed, 1)
        for k in DET_LAYER:
            if ta[k] != tb[k]:
                bad += 1
                print(f"{w}: traced {k} differs at seed {seed}: {ta[k]} vs {tb[k]}")
        c = run(spec, w, other, 0)
        for m in spec["end_to_end"]:
            k = m["name"]
            worse = (a[k] - c[k]) / a[k] if m["better"] == "higher" else (c[k] - a[k]) / a[k]
            if worse > m["bound"]:
                bad += 1
                print(f"{w}: {k} at seed {other} is worse than seed {seed} by {worse:.3f} "
                      f"(bound {m['bound']})")
        print(f"== {w}: checked")
    if bad:
        sys.exit(f"{bad} determinism check(s) failed")
    print("determinism: all checks passed")


def main():
    modes = {"spread": spread, "determinism": determinism}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        sys.exit(__doc__)
    spec = load_spec()
    modes[sys.argv[1]](spec, [w["name"] for w in spec["workloads"]])


if __name__ == "__main__":
    main()
