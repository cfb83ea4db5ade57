"""Compare two result sets, per workload and per end-to-end metric.

A result set is a JSON-lines file of records written by ``run.py --out``.
Untraced runs of the two sets are paired by seed. A workload gets no verdict
when a paired parent and change run measured for different ``--seconds``, or
when the change's paired runs failed a larger share of their jobs than the
parent's. Otherwise the verdict for each metric is:

* better: at least 10 pairs, the change wins at least 9/10 of them (ties
  count for neither), and its median differs from the parent's, in the
  better direction, by more than the parent's interquartile range;
* unresolved: otherwise, when either set's interquartile range exceeds the
  metric's bound (as a share of its median) and not every run of the
  change reads better than every run of the parent;
* worse: otherwise, when the change's median is worse than the parent's by
  more than the bound;
* within bound: otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> {seconds, attempted, failed, values}, untraced runs only."""
    out: dict[str, dict[int, dict]] = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            result = rec["result"]
            out[rec["workload"]][rec["seed"]] = {
                "seconds": rec["seconds"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "values": {k: m["value"] for k, m in result["metrics"].items()},
            }
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _fmt(xs: list[float]) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles(xs))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for paired runs of one metric; see the module docstring."""
    if len(parent) < 2 or len(change) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0  # worse-ness = sign * value
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    spread = max((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed))
    worsening = sign * (cmed - pmed) / abs(pmed)
    pairs = list(zip(parent, change))
    wins = sum(sign * c < sign * p for p, c in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and worsening < 0
        and abs(cmed - pmed) > pq3 - pq1
    ):
        return "better"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if worsening > bound:
        return "worse"
    return "within bound"


def _refusal(pairs: list[tuple[dict, dict]]) -> str | None:
    """Why paired runs of one workload get no verdict, or None."""
    if len(pairs) < 2:
        return "fewer than 2 runs paired by seed: unresolved"
    seconds = {(a["seconds"], b["seconds"]) for a, b in pairs}
    if any(sa != sb for sa, sb in seconds):
        return f"runs of different --seconds paired ({sorted(seconds)}): no verdict"
    pf, pa = sum(a["failed"] for a, _ in pairs), sum(a["attempted"] for a, _ in pairs)
    cf, ca = sum(b["failed"] for _, b in pairs), sum(b["attempted"] for _, b in pairs)
    if cf / ca > pf / pa:
        return f"change failed {cf}/{ca} jobs, parent {pf}/{pa}: no verdict"
    return None


def compare(parent_path, change_path, spec: dict) -> list[str]:
    parent, change = load(parent_path), load(change_path)
    lines = [
        f"{'workload':<12} {'metric':<20} {'parent q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'bound':>6}  verdict"
    ]
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        pairs = [(parent[workload][s], change[workload][s]) for s in seeds]
        refusal = _refusal(pairs)
        if refusal:
            lines.append(f"{workload:<12} {refusal}")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [a["values"][name] for a, _ in pairs]
            c = [b["values"][name] for _, b in pairs]
            lines.append(
                f"{workload:<12} {name:<20} {_fmt(p):>32} {_fmt(c):>32} {m['bound']:>6}  "
                f"{verdict(p, c, m['better'], m['bound'])} ({len(pairs)} pairs, {m['unit']})"
            )
    only = sorted(set(parent) ^ set(change))
    if only:
        lines.append(f"workloads in one set only: {', '.join(only)}")
    return lines
