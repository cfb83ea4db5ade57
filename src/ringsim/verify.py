"""Invariant suite behind ``ringsim verify``.

Every check returns a PropertyResult; the CLI prints one line per check
and exits nonzero if any fails. Failure details always carry enough
configuration (and seed) to replay the offending case. The quick mode
trims the exactness sweep so the whole suite stays interactive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .attention import (
    MaskKind,
    MaskSpec,
    TileClass,
    classify_tiles,
    get_mask_ring,
    get_mask_striped,
    oracle_causal_attention,
    tile_census,
)
from .costmodel import SPEEDUP_TOLERANCE, compare_golden
from .simulator import ORACLE_TOLERANCE, Algo, SimConfig, oracle_error, random_qkv, simulate


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def check_masks() -> PropertyResult:
    """Both mask families against raw position arithmetic, pair by pair.

    Every (j, k) mask is asked for, and each distinct one is expanded once;
    each family's (N, N, c, c) stack is compared with the arithmetic over
    all j, k, x and y at once, and the first (j, k) that differs is named.
    """
    for n, c in itertools.product((2, 3, 4, 8), (1, 2, 3, 5)):
        j, k, x, y = np.ix_(range(n), range(n), range(c), range(c))
        for family, get_mask, want in (
            ("ring", get_mask_ring, k * c + y <= j * c + x),
            ("striped", get_mask_striped, k + y * n <= j + x * n),
        ):
            specs = [[get_mask(a, b, c, n_devices=n) for b in range(n)] for a in range(n)]
            dense = {spec: spec.allowed_block() for spec in set(itertools.chain(*specs))}
            got = np.array([[dense[spec] for spec in row] for row in specs])
            bad = np.argwhere((got != want).any(axis=(2, 3)))
            if bad.size:
                a, b = bad[0]
                return PropertyResult(
                    "mask-exhaustive", False, f"{family} mask wrong at N={n} c={c} j={a} k={b}"
                )
    return PropertyResult(
        "mask-exhaustive", True, "N in {2,3,4,8}, c in {1,2,3,5}, every (j,k), pair-by-pair"
    )


# Tile classes by code: 0 no pair allowed, 1 some, 2 every pair.
_CLASS_OF_CODE = np.array([TileClass.SKIP, TileClass.PARTIAL, TileClass.FULL], dtype=object)


def check_tiles() -> PropertyResult:
    """Tile classes, censuses and pair counts vs enumeration, blocks <= 64x64.

    The dense mask is summed tile by tile in one reshape and turned into a
    class code per tile; ``classify_tiles``' grid is compared with those
    classes in one list comparison, every tile's ``count_allowed`` with the
    sums in one array comparison, and the census with the codes' counts.
    The first tile that differs is named.
    """
    def fail(msg: str) -> PropertyResult:
        return PropertyResult("tile-conservation", False, msg)

    for kind in MaskKind:
        for rows, cols in ((8, 8), (16, 48), (64, 64), (30, 12)):
            mask = MaskSpec(kind, rows, cols)
            dense = mask.allowed_block()
            for tq in (1, 2, rows):
                if rows % tq:
                    continue
                for tk in (1, 3, cols):
                    if cols % tk:
                        continue
                    case = f"{kind.value} block {rows}x{cols} tiles {tq}x{tk}"
                    sums = dense.reshape(rows // tq, tq, cols // tk, tk).sum(axis=(1, 3))
                    codes = (sums > 0).astype(np.intp) + (sums == tq * tk)
                    want = _CLASS_OF_CODE[codes]
                    grid = classify_tiles(mask, tq, tk)
                    if grid != want.tolist():
                        ti, tj = np.argwhere(np.array(grid, dtype=object) != want)[0]
                        return fail(
                            f"{case} tile ({ti},{tj}): {grid[ti][tj].value} != {want[ti, tj].value}"
                        )
                    r0 = np.arange(rows // tq)[:, None] * tq
                    c0 = np.arange(cols // tk) * tk
                    bad = np.argwhere(mask.count_allowed(r0, r0 + tq, c0, c0 + tk) != sums)
                    if bad.size:
                        ti, tj = bad[0]
                        return fail(f"{case} tile ({ti},{tj}): count_allowed mismatch")
                    census = tile_census(mask, tq, tk)
                    n_skip, n_partial, n_full = np.bincount(codes.ravel(), minlength=3)
                    if (census.n_full, census.n_partial, census.n_skip) != (
                        n_full, n_partial, n_skip
                    ):
                        return fail(f"{case}: census disagrees with grid counts")
                    if census.n_total * tq * tk != rows * cols:
                        return fail(f"{case}: tile areas do not cover the block")
    return PropertyResult(
        "tile-conservation", True, "4 mask kinds x blocks <= 64x64 x tilings vs enumeration"
    )


def _sweep_configs(quick: bool):
    if quick:
        device_counts, seq_lens, seeds = (2, 4), (16, 64), range(2)
    else:
        device_counts, seq_lens, seeds = (2, 4, 8), (16, 64, 256), range(5)
    for algo in (Algo.RING, Algo.STRIPED):
        for n_devices in device_counts:
            for n_seq in seq_lens:
                c = n_seq // n_devices
                for seed in seeds:
                    yield SimConfig(
                        algo=algo,
                        n_devices=n_devices,
                        n_seq=n_seq,
                        d_head=16,
                        tile_q=max(1, c // 4),
                        tile_k=max(1, c // 2),
                        seed=seed,
                    )


def check_exactness(quick: bool = False) -> tuple[PropertyResult, PropertyResult]:
    """Distributed output vs dense reference, plus interaction conservation."""
    worst = 0.0
    n_runs = 0
    drawn = {}  # both layouts and every N share one key's inputs and oracle output
    for config in _sweep_configs(quick):
        label = (
            f"algo={config.algo.value} N={config.n_devices} "
            f"n_seq={config.n_seq} seed={config.seed}"
        )
        key = (config.n_seq, config.d_head, config.seed, config.precision, config.scale)
        try:
            if key not in drawn:
                qkv = random_qkv(config.n_seq, config.d_head, config.seed, config.dtype)
                drawn[key] = qkv, oracle_causal_attention(*qkv, scale=config.scale)
            inputs, reference = drawn[key]
            run = simulate(config, inputs)
            err = oracle_error(run, reference)
        except Exception as exc:
            broken = PropertyResult("exactness-sweep", False, f"{label}: {exc}")
            return broken, PropertyResult(
                "coverage-conservation", False, f"not evaluated ({label} failed)"
            )
        n_runs += 1
        worst = max(worst, err)
        tol = ORACLE_TOLERANCE[config.precision]
        if err > tol:
            return (
                PropertyResult(
                    "exactness-sweep",
                    False,
                    f"{label}: max abs err {err:.3e} > {tol:.0e}",
                ),
                PropertyResult("coverage-conservation", False, "not evaluated (exactness failed)"),
            )
        total_required = sum(rs.interactions_required for ws in run.stats for rs in ws.rounds)
        want = config.n_seq * (config.n_seq + 1) // 2
        if total_required != want:
            return (
                PropertyResult("exactness-sweep", True, f"{n_runs} runs, max abs err {worst:.3e}"),
                PropertyResult(
                    "coverage-conservation",
                    False,
                    f"{label}: sum(required) = {total_required}, want n(n+1)/2 = {want}",
                ),
            )
    return (
        PropertyResult("exactness-sweep", True, f"{n_runs} runs, max abs err {worst:.3e}"),
        PropertyResult(
            "coverage-conservation", True, f"sum(required) == n(n+1)/2 in all {n_runs} runs"
        ),
    )


def check_workload_shapes() -> tuple[PropertyResult, PropertyResult]:
    """Striped per-round balance and ring per-round imbalance, tile 1x1."""
    n_devices, n_seq = 4, 64
    c = n_seq // n_devices
    base = dict(n_devices=n_devices, n_seq=n_seq, d_head=8, tile_q=1, tile_k=1, seed=3)
    striped = simulate(SimConfig(algo=Algo.STRIPED, **base))
    ring = simulate(SimConfig(algo=Algo.RING, **base))
    inc, exc = c * (c + 1) // 2, c * (c - 1) // 2

    balance = PropertyResult(
        "striped-balance",
        True,
        f"every device-round required in {{{inc}, {exc}}}; later rounds exactly both",
    )
    for i in range(n_devices):
        values = {ws.rounds[i].interactions_required for ws in striped.stats}
        if not values <= {inc, exc}:
            balance = PropertyResult(
                "striped-balance", False, f"round {i}: required values {sorted(values)}"
            )
            break
        if i >= 1 and values != {inc, exc}:
            balance = PropertyResult(
                "striped-balance", False, f"round {i}: expected both triangle sizes, got {values}"
            )
            break

    imbalance = PropertyResult(
        "ring-imbalance", True, f"every round >= 1 has a 0 device and a c^2 = {c * c} device"
    )
    for i in range(1, n_devices):
        values = [ws.rounds[i].interactions_required for ws in ring.stats]
        if 0 not in values or c * c not in values:
            imbalance = PropertyResult("ring-imbalance", False, f"round {i}: required {values}")
            break
    return balance, imbalance


def check_determinism() -> PropertyResult:
    """Serial rerun and threaded executor must be bit-identical."""
    base = dict(algo=Algo.STRIPED, n_devices=4, n_seq=32, d_head=8, tile_q=2, tile_k=4, seed=11)
    serial = simulate(SimConfig(executor="serial", **base))
    rerun = simulate(SimConfig(executor="serial", **base))
    threaded = simulate(SimConfig(executor="threads", **base))
    for other, label in ((rerun, "serial rerun"), (threaded, "threaded executor")):
        if other.output.tobytes() != serial.output.tobytes():
            return PropertyResult("determinism", False, f"{label}: output differs bitwise")
        if other.stats != serial.stats:
            return PropertyResult("determinism", False, f"{label}: work stats differ")
    return PropertyResult("determinism", True, "serial rerun and threaded executor bit-identical")


def check_tms_golden() -> PropertyResult:
    """Every transcribed reference speedup row within tolerance."""
    deltas = compare_golden()
    bad = [d for d in deltas if not d.within_tolerance]
    if bad:
        first = bad[0]
        return PropertyResult(
            "tms-golden",
            False,
            f"{len(bad)}/{len(deltas)} rows outside +/-{SPEEDUP_TOLERANCE}: first is "
            f"{first.row.model} mesh={first.row.mesh} n_seq={first.row.n_seq} "
            f"expected {first.row.tms} got {first.computed}",
        )
    worst = max(abs(d.delta) for d in deltas)
    return PropertyResult(
        "tms-golden",
        True,
        f"{len(deltas)} rows within +/-{SPEEDUP_TOLERANCE} (max |delta| = {worst:.2f})",
    )


def run_checks(quick: bool = False) -> list[PropertyResult]:
    exactness, conservation = check_exactness(quick)
    balance, imbalance = check_workload_shapes()
    return [
        check_masks(),
        check_tiles(),
        exactness,
        conservation,
        balance,
        imbalance,
        check_determinism(),
        check_tms_golden(),
    ]
