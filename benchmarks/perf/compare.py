"""``compare PARENT.json CHANGE.json [--claim workload:metric]``.

Reads two files written by ``run --label`` and prints, per workload and
end-to-end metric, each side's median and quartiles and the change's
delta against the metric's bound from ``BENCHMARK.json``:

* ``regression`` — the change's median is worse than the parent's by
  more than the bound;
* ``unresolved`` — a side's quartile spread is wider than the bound,
  unless every change run reads better than every parent run;
* ``ok`` — otherwise.

A claim uses the pair rule: runs pair up in file order (run the two
sides alternately), the change must win at least 9 of every 10 pairs
(ties count for neither), and the medians must differ by more than the
parent's quartile spread.  Traced runs add per-layer moves.

The comparison fails outright when a run on either side failed a check
(a fast wrong answer must not read as a gain), when one workload's runs
differ in their operation count, or when runs of the same workload and
seed produced different output digests.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from .spec import END_TO_END, ROOT

#: A per-layer time is flagged when its median moves by more than this.
LAYER_MOVE = 0.10


def load_runs(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def bounds_from_benchmark(path=ROOT / "BENCHMARK.json"):
    """``{metric: (better, bound)}`` for the end-to-end metrics."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _better(a, b, better):
    return a < b if better == "lower" else a > b


def _values(runs, workload, metric, traced=0):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == traced
            and metric in r["metrics"]]


def refusals(parent_runs, change_runs):
    """Reasons the two files cannot be compared at all."""
    reasons = []
    ops = defaultdict(set)
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for r in runs:
            ops[r["workload"]].add(r["ops"])
            if not r["correct"] or r["failed"]:
                reasons.append(f"{side} run {r['workload']} seed {r['seed']} "
                               f"failed a check ({r['failed']} of "
                               f"{r['attempted']} operations failed)")
    for workload, counts in sorted(ops.items()):
        if len(counts) > 1:
            reasons.append(f"{workload} runs differ in operation count: "
                           f"{sorted(counts)}")
    return reasons


def judge(parent, change, better, bound):
    """Verdict row for one (workload, metric) pairing."""
    pq1, pm, pq3 = quartiles(parent)
    cq1, cm, cq3 = quartiles(change)
    worse = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    spread = max((pq3 - pq1) / abs(pm) if pm else 0.0,
                 (cq3 - cq1) / abs(cm) if cm else 0.0)
    dominates = all(_better(c, p, better) for c in change for p in parent)
    if spread > bound and not dominates:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "ok"
    return {"parent": (pq1, pm, pq3), "change": (cq1, cm, cq3),
            "worse": worse, "spread": spread, "verdict": verdict}


def pair_rule(parent, change, better):
    """Claim check: >=9/10 alternating pairs won, median gap > parent IQR."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(c, p, better))
    pq1, pm, pq3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    met = (bool(pairs) and wins >= 0.9 * len(pairs)
           and _better(cm, pm, better) and abs(cm - pm) > pq3 - pq1)
    return {"pairs": len(pairs), "wins": wins, "met": met,
            "gap": cm - pm, "parent_iqr": pq3 - pq1}


def layer_moves(parent_runs, change_runs, workload):
    """Per-layer time metrics whose traced median moved by > LAYER_MOVE."""
    names = {name for r in change_runs
             if r["workload"] == workload and r["trace"] == 1
             for name, m in r["metrics"].items() if m["unit"] == "ms"}
    moves = []
    for name in sorted(names):
        p = _values(parent_runs, workload, name, traced=1)
        c = _values(change_runs, workload, name, traced=1)
        if not p or not c:
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        base = max(abs(pm), 1e-9)
        if abs(cm - pm) / base > LAYER_MOVE and abs(cm - pm) > 1e-3:
            moves.append((name, pm, cm, (cm - pm) / base))
    return moves


def digest_changes(parent_runs, change_runs):
    """``(workload, seed)`` pairs whose output digests differ."""
    parent = {(r["workload"], r["seed"]): r["digest"] for r in parent_runs}
    return sorted({(r["workload"], r["seed"]) for r in change_runs
                   if parent.get((r["workload"], r["seed"]),
                                 r["digest"]) != r["digest"]})


def report(parent_runs, change_runs, bounds, claims=()):
    """Print the comparison; returns True when both sides ran clean, no
    output digest changed, nothing regressed and every claim is met."""
    reasons = refusals(parent_runs, change_runs)
    for reason in reasons:
        print(f"refused: {reason}")
    if reasons:
        return False
    ok = True
    workloads = sorted({r["workload"] for r in parent_runs}
                       & {r["workload"] for r in change_runs})
    print(f"{'workload':9} {'metric':10} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'worse':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in END_TO_END:
            if metric not in bounds:
                continue
            better, bound = bounds[metric]
            parent = _values(parent_runs, workload, metric)
            change = _values(change_runs, workload, metric)
            if not parent or not change:
                continue
            row = judge(parent, change, better, bound)
            ok &= row["verdict"] != "regression"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:9} {metric:10} {fmt.format(*row['parent']):>28}"
                  f" {fmt.format(*row['change']):>28} "
                  f"{100 * row['worse']:+7.1f}% {100 * bound:5.0f}%  "
                  f"{row['verdict']}")
        for name, pm, cm, rel in layer_moves(parent_runs, change_runs,
                                             workload):
            print(f"{workload:9} layer {name} {pm:.4g} -> {cm:.4g} ms "
                  f"({100 * rel:+.1f}%)")
    for claim in claims:
        workload, _, metric = claim.partition(":")
        better = END_TO_END[metric][1]
        result = pair_rule(_values(parent_runs, workload, metric),
                           _values(change_runs, workload, metric), better)
        ok &= result["met"]
        print(f"claim {claim}: {'met' if result['met'] else 'NOT MET'} "
              f"({result['wins']}/{result['pairs']} pairs won, median gap "
              f"{result['gap']:+.4g} vs parent IQR "
              f"{result['parent_iqr']:.4g})")
    for workload, seed in digest_changes(parent_runs, change_runs):
        print(f"output digest changed: {workload} seed {seed}")
        ok = False
    return ok


def main(parent_path, change_path, claims=()):
    ok = report(load_runs(parent_path), load_runs(change_path),
                bounds_from_benchmark(), claims)
    return 0 if ok else 1
