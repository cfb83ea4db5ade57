"""End-to-end acceptance gates, one test per criterion.

Each test prints a single ``[criterion N] ... PASS|FAIL`` line; run with
``pytest -s tests/test_acceptance.py`` to see them as they execute.
"""

import numpy as np
import pytest

from ringsim.attention import MaskKind, MaskSpec, tile_census
from ringsim.costmodel import PRESETS, SPEEDUP_TOLERANCE, TmsQuery, compare_golden, tms
from ringsim.simulator import (
    Algo,
    SimConfig,
    oracle_error,
    schedule_work_stats,
    simulate,
    simulated_speedup,
)

EXACTNESS_TOL = 1e-9


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def exactness_sweep():
    """Both schedules x N in {2,4,8} x n_seq in {16,64,256} x 5 seeds, d_head 16."""
    records = []
    for algo in (Algo.RING, Algo.STRIPED):
        for n_devices in (2, 4, 8):
            for n_seq in (16, 64, 256):
                c = n_seq // n_devices
                for seed in range(5):
                    config = SimConfig(
                        algo=algo,
                        n_devices=n_devices,
                        n_seq=n_seq,
                        d_head=16,
                        tile_q=max(1, c // 4),
                        tile_k=max(1, c // 2),
                        seed=seed,
                    )
                    run = simulate(config)
                    error = oracle_error(run)
                    required = sum(
                        rs.interactions_required for ws in run.stats for rs in ws.rounds
                    )
                    records.append((config, error, required))
    return records


def test_criterion_1_exactness(exactness_sweep):
    worst = max(error for _, error, _ in exactness_sweep)
    ok = worst <= EXACTNESS_TOL and len(exactness_sweep) == 90
    _report(
        1,
        ok,
        f"exactness of both schedules over {len(exactness_sweep)} runs, "
        f"max abs err {worst:.3e} (tol {EXACTNESS_TOL:.0e})",
    )
    assert ok


def test_criterion_2_tms_table_reproduction():
    anchors = [
        ("1b", 4, 2.0, 262144, 1.72),
        ("1b", 4, 2.0, 32768, 1.57),
        ("3b", 4, 2.0, 262144, 1.71),
        ("7b", 8, 1.0, 32768, 1.40),
        ("1b", 8, 1.0, 786432, 1.85),
        ("3b", 8, 1.0, 786432, 1.84),
    ]
    anchor_misses = []
    for model, sp, flop_weight, n_seq, expected in anchors:
        got = round(tms(TmsQuery(PRESETS[model], n_seq, sp, flop_weight)), 2)
        if got != expected:
            anchor_misses.append((model, sp, flop_weight, n_seq, expected, got))
    deltas = compare_golden()
    outside = [d for d in deltas if not d.within_tolerance]
    ok = not anchor_misses and not outside
    _report(
        2,
        ok,
        f"{len(anchors)} anchor rows exact at 2 decimals; {len(deltas)} transcribed rows "
        f"within +/-{SPEEDUP_TOLERANCE} (max |delta| {max(abs(d.delta) for d in deltas):.2f})",
    )
    assert not anchor_misses, f"anchor mismatches: {anchor_misses}"
    # Any row outside tolerance must be reported, not suppressed:
    assert not outside, "rows outside tolerance: " + "; ".join(
        f"{d.row.model} mesh={d.row.mesh} n_seq={d.row.n_seq} expected {d.row.tms} got {d.computed}"
        for d in outside
    )


def test_criterion_3_workload_imbalance():
    base = dict(n_devices=4, n_seq=256, d_head=8, tile_q=1, tile_k=1, seed=2)
    ring = simulate(SimConfig(algo=Algo.RING, **base))
    striped = simulate(SimConfig(algo=Algo.STRIPED, **base))
    c = 64
    inc, exc = 2080, 2016
    assert inc == c * (c + 1) // 2 and exc == c * (c - 1) // 2
    ring_ok = True
    for i in (1, 2, 3):
        required = [ws.rounds[i].interactions_required for ws in ring.stats]
        ring_ok = ring_ok and 0 in required and c * c in required
    striped_ok = all(
        ws.rounds[i].interactions_required in (inc, exc)
        for ws in striped.stats
        for i in range(4)
    )
    ok = ring_ok and striped_ok
    _report(
        3,
        ok,
        f"ring rounds 1-3 each span required {{0, {c * c}}}; striped per-device required "
        f"always in {{{inc}, {exc}}} (N=4, c=64, tile 1x1)",
    )
    assert ring_ok
    assert striped_ok


def test_criterion_4_tiling_example():
    mask = MaskSpec(MaskKind.CAUSAL_INCLUSIVE, 1536, 1536)
    census = tile_census(mask, 512, 512)
    counts = (census.n_full, census.n_partial, census.n_skip)
    # Tiles below the diagonal are full, on it partial and above it skipped.
    sums = mask.allowed_block().reshape(3, 512, 3, 512).sum(axis=(1, 3))
    ti, tj = np.indices((3, 3))
    placed = np.where(tj < ti, 512 * 512, np.where(tj == ti, 512 * 513 // 2, 0))
    ok = counts == (3, 3, 3) and np.array_equal(sums, placed)
    _report(4, ok, f"block 1536 with 512 tiles classifies as full/partial/skip = {counts}")
    assert ok


def test_criterion_5_speedup_limit():
    c, n = 4096, 8
    ring = schedule_work_stats(Algo.RING, n, c, 1, 1)
    striped = schedule_work_stats(Algo.STRIPED, n, c, 1, 1)
    got = simulated_speedup(ring, striped)
    inc = c * (c + 1) // 2
    closed_form = (inc + (n - 1) * c * c) / (n * inc)
    ok = abs(got - closed_form) <= 1e-12 and got > 1.85
    _report(
        5,
        ok,
        f"simulated speedup N=8 c=4096 tile 1x1 = {got:.6f} "
        f"(closed form {closed_form:.6f}, exceeds 1.85)",
    )
    assert abs(got - closed_form) <= 1e-12
    assert got > 1.85


def test_criterion_6_interaction_conservation(exactness_sweep):
    bad = [
        (config, required)
        for config, _, required in exactness_sweep
        if required != config.n_seq * (config.n_seq + 1) // 2
    ]
    ok = not bad
    _report(
        6,
        ok,
        f"sum of required interactions equals n(n+1)/2 in all {len(exactness_sweep)} runs",
    )
    assert ok, f"conservation violated for: {bad[:3]}"
