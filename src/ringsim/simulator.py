"""Ring-schedule execution over simulated devices, with work accounting.

Runs the N-round rotation: every device keeps its query block resident,
contracts it against the key/value block it currently holds, then forwards
that block to its ring successor and receives from its predecessor. The
contiguous and striped layouts share the identical schedule; they differ
only in which mask a (query block, key block) pair produces.

Q, K, V and the softmax state are stacked by device, (N, c, ...). Both
executors run one round loop (``_device_rounds``) and differ only in which
devices it covers and where a held block comes from. The serial one
advances all devices one round at a time: in round i the devices holding
blocks k < j share one mask, those holding k > j another, and the held
blocks of each range are plain slices of the stacked K and V, so a range
is folded a group of devices per call: as many as fit ``_CALL_SCORES``
scores per row chunk (8 devices at c = 128, more below it). The
threaded one runs the loop over one device per worker, with blocks
arriving over ordered point-to-point queues. Each device's
floating-point accumulation order is fixed (rounds in order, row chunks
of ``_CHUNK_ROWS`` in order within a round, independent of the modelled
tile and of the grouping; a stacked product makes the same BLAS call per
device), so the two are bit-identical. The modelled tile only drives the
work counters, which come from the closed form (``schedule_work_stats``),
never from the numerics.

A held block is folded only where its mask allows work: chunks start at
the first row that sees a key, every key before a chunk's diagonal
square is contracted unmasked, and ``-inf`` is written only into that
square (``_fold_block``). A triangular block thus pays for its triangle
plus half a chunk square per chunk, not for the whole c x c square.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attention import (
    MaskSpec,
    SoftmaxAccumulator,
    accumulate_causal_rows,
    check_sequence,
    check_tiling,
    finalize,
    get_mask_ring,
    get_mask_striped,
    oracle_causal_attention,
    tile_census,
)
from .layout import Algo, Layout, PermutedBatch, check_split

_CHANNEL_TIMEOUT_S = 30.0  # backstop; a failing worker aborts its peers at once
# Query rows per numeric fold: how this machine computes, not the modelled
# hardware tile. A triangular chunk also scores the masked half of its
# diagonal square, so fewer rows waste less but pay more calls. Medians of
# run_schedule at 32, 64 and 128 rows (one BLAS thread, 2-core VM): striped
# N=8, n=1024 15.7, 11.4, 13.8 ms (ring 11.0, 7.1, 6.7); N=4, n=4096, d=64
# striped 89, 81, 89 ms, ring 95, 70, 72 ms.
_CHUNK_ROWS = 64
# Scores per fold call when a call folds a group of devices
# (``_device_rounds``): what one device's chunk already reaches against a
# 1024-key block, so a call's fixed cost is shared by as many devices as fit.
_CALL_SCORES = 64 * 1024


@dataclass
class SimConfig:
    algo: Algo
    n_devices: int
    n_seq: int
    d_head: int
    tile_q: int
    tile_k: int
    seed: int = 0
    precision: str = "double"  # "double" | "single"
    scale: bool = False        # apply 1/sqrt(d_head) to scores
    executor: str = "serial"   # "serial" | "threads"

    def __post_init__(self):
        self.algo = Algo(self.algo)
        c = check_split(self.n_seq, self.n_devices)
        if self.d_head < 1:
            raise ValueError(f"d_head must be positive, got {self.d_head}")
        check_tiling(c, c, self.tile_q, self.tile_k)
        if self.precision not in ("double", "single"):
            raise ValueError(f"precision must be 'double' or 'single', got {self.precision!r}")
        if self.executor not in ("serial", "threads"):
            raise ValueError(f"executor must be 'serial' or 'threads', got {self.executor!r}")

    @property
    def block_size(self) -> int:
        return self.n_seq // self.n_devices

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


@dataclass(frozen=True)
class RoundStats:
    """Work counters for one device in one round."""

    round: int
    block_index: int
    tiles_total: int
    tiles_skipped: int
    tiles_partial: int
    tiles_full: int
    interactions_computed: int  # pairs inside tiles that were actually computed
    interactions_required: int  # pairs the causal structure actually needs


@dataclass
class WorkStats:
    device: int
    rounds: list[RoundStats] = field(default_factory=list)


def make_layout(config: SimConfig) -> Layout:
    return Layout(config.algo, config.n_seq, config.n_devices)


def random_qkv(n_seq: int, d_head: int, seed: int, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((n_seq, d_head), dtype=dtype) for _ in range(3))


def _block_mask(algo: Algo, j: int, k: int, c: int, n_devices: int):
    if algo is Algo.RING:
        return get_mask_ring(j, k, c, n_devices=n_devices)
    return get_mask_striped(j, k, c, n_devices=n_devices)


def _fold_block(acc: SoftmaxAccumulator, mask: MaskSpec, q_block, k_block, v_block) -> None:
    """Fold held K/V blocks into ``acc``, ``_CHUNK_ROWS`` query rows at a time.

    The blocks are stacked by device, (g, c, d), and all g share ``mask``.
    Row x sees keys [0, x + diagonal + 1). Rows before ``-diagonal`` see
    none, so chunks start at row ``max(0, -diagonal)``: a fully masked
    block is skipped whole and an exclusive triangle's dead row 0 is never
    visited. A chunk [r0, r1) is contracted against the keys its last row
    sees, [0, min(r1 + diagonal, cols)); all of them up to r0 + diagonal
    are allowed for every row, and only the square after that prefix is
    masked (``accumulate_causal_rows``), so a triangular block costs its
    triangle plus half a chunk square per chunk, not a full slab.
    """
    d = mask.diagonal
    for r0 in range(max(0, -d), mask.block_rows, _CHUNK_ROWS):
        r1 = min(r0 + _CHUNK_ROWS, mask.block_rows)
        width = min(r1 + d, mask.block_cols)
        accumulate_causal_rows(
            acc.rows(r0, r1), q_block[:, r0:r1], k_block[:, :width], v_block[:, :width], r0 + d
        )


def _device_rounds(config: SimConfig, acc: SoftmaxAccumulator, q, devices: range, held) -> None:
    """Fold every round of ``devices``' schedule into the stacked ``acc``.

    In round i, devices [i, N) hold blocks [0, N - i) and devices [0, i)
    hold blocks [N - i, N). A block's mask depends only on how k compares
    with j, so each range shares one mask, and it is folded in groups of
    ``max(1, _CALL_SCORES // (min(c, _CHUNK_ROWS) * c))`` devices, one fold
    call per row chunk: 8 devices at c = 128 and more below it, 4 at
    c = 256, 2 at c = 512 and one from c = 513 up.
    ``held(i, a, b)`` returns the (K, V) stacks devices [a, b) hold in
    round i; it is called once per group and round, in round order.
    """
    n, c = config.n_devices, config.block_size
    group = max(1, _CALL_SCORES // (min(c, _CHUNK_ROWS) * c))
    first, stop = devices.start, devices.stop
    for i in range(n):
        for lo, hi in ((max(i, first), stop), (first, min(i, stop))):
            for a in range(lo, hi, group):
                b = min(a + group, hi)
                k, v = held(i, a, b)
                mask = _block_mask(config.algo, a, (a - i) % n, c, n)
                _fold_block(acc.devices(a, b), mask, q[a:b], k, v)


def _run_serial(config: SimConfig, batch: PermutedBatch, acc: SoftmaxAccumulator) -> None:
    n = config.n_devices

    def held(i: int, a: int, b: int):
        k0 = (a - i) % n  # devices [a, b) hold blocks [k0, k0 + b - a)
        return batch.k[k0:k0 + b - a], batch.v[k0:k0 + b - a]

    _device_rounds(config, acc, batch.q, range(n), held)


class _PeerFailed(Exception):
    """Another device raised; this one stops without a result."""


_ABORT = object()  # put into every inbox by a failing worker


def _run_threads(config: SimConfig, batch: PermutedBatch, acc: SoftmaxAccumulator) -> None:
    """One worker per device folds into its own row of ``acc``; blocks arrive by queue."""
    n = config.n_devices
    inboxes = [queue.Queue() for _ in range(n)]  # inboxes[j]: blocks come only from j-1
    errors: list[BaseException] = []

    def exchange(j: int, i: int, kv):
        inboxes[(j + 1) % n].put(kv)
        try:
            got = inboxes[j].get(timeout=_CHANNEL_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError(
                f"ring channel stalled: device {j} got nothing after round {i}"
            ) from None
        if got is _ABORT:
            raise _PeerFailed
        return got

    def worker(j: int) -> None:
        kv = batch.k[j:j + 1], batch.v[j:j + 1]

        def held(i: int, a: int, b: int):
            nonlocal kv
            if i:
                kv = exchange(j, i - 1, kv)
            return kv

        try:
            _device_rounds(config, acc, batch.q, range(j, j + 1), held)
        except _PeerFailed:
            pass
        except BaseException as exc:  # re-raised by the caller after join
            errors.append(exc)
            for inbox in inboxes:
                inbox.put(_ABORT)

    threads = [
        threading.Thread(target=worker, args=(j,), name=f"device-{j}", daemon=True)
        for j in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def run_schedule(config: SimConfig, batch: PermutedBatch):
    """Execute the N-round rotation.

    Returns (outputs, per-device WorkStats): the outputs are stacked by
    device, (N, c, d_v), still in the layout's local order. The stats are
    ``schedule_work_stats`` of the config: the counters depend on the
    masks and the tiling only.
    """
    n, c = config.n_devices, config.block_size
    if batch.layout.scheme is not config.algo:
        raise ValueError(
            f"batch is partitioned for {batch.layout.scheme.value}, "
            f"but the config runs {config.algo.value}"
        )
    if batch.layout.n_seq != config.n_seq or batch.layout.n_devices != n:
        raise ValueError("batch layout does not match the simulation config")
    want = (n, c, config.d_head)
    if batch.q.shape != want or batch.k.shape != want or batch.v.shape[:2] != want[:2]:
        raise ValueError(
            f"batch Q/K/V shapes {batch.q.shape}, {batch.k.shape}, {batch.v.shape} do not "
            f"match {n} devices x block {c} x d_head {config.d_head}"
        )
    acc = SoftmaxAccumulator.fresh((n, c), batch.v.shape[2], config.dtype)
    run = _run_threads if config.executor == "threads" else _run_serial
    run(config, batch, acc)
    return finalize(acc), schedule_work_stats(config.algo, n, c, config.tile_q, config.tile_k)


def schedule_work_stats(
    algo: Algo, n_devices: int, block_size: int, tile_q: int, tile_k: int
) -> list[WorkStats]:
    """Closed-form per-round work counters, no numerics.

    Counts tiles with ``tile_census`` instead of enumerating them, so huge
    blocks (e.g. 4096 with 1x1 tiles) are accounted in milliseconds. Each
    of the schedule's three masks (``_relation_masks``) is counted once.
    Partial tiles are charged their whole area as computed.
    """
    algo = Algo(algo)
    if n_devices < 2:
        raise ValueError(f"need at least 2 devices, got {n_devices}")
    area = tile_q * tile_k
    counters = []  # RoundStats fields of the own block, k < j and k > j
    for mask in _relation_masks(algo, n_devices, block_size):
        census = tile_census(mask, tile_q, tile_k)
        counters.append(
            dict(
                tiles_total=census.n_total,
                tiles_skipped=census.n_skip,
                tiles_partial=census.n_partial,
                tiles_full=census.n_full,
                interactions_computed=(census.n_full + census.n_partial) * area,
                interactions_required=mask.count_allowed(),
            )
        )
    own, below, above = counters
    return [
        WorkStats(
            device=j,
            rounds=[
                RoundStats(
                    round=i,
                    block_index=(j - i) % n_devices,
                    **(own if i == 0 else below if j >= i else above),
                )
                for i in range(n_devices)
            ],
        )
        for j in range(n_devices)
    ]


def _relation_masks(algo: Algo, n_devices: int, block_size: int) -> tuple[MaskSpec, ...]:
    """The masks of blocks (0, 0), (1, 0) and (0, 1).

    Round 0 holds only own blocks (k = j). Every later round i holds
    blocks with k < j (devices j >= i) and with k > j (devices j < i),
    and both mask families depend only on how k compares with j, so
    these three stand for every (j, k) of the schedule.
    """
    return tuple(
        _block_mask(algo, j, k, block_size, n_devices) for j, k in ((0, 0), (1, 0), (0, 1))
    )


def round_critical_path(stats: Sequence[WorkStats], round_i: int) -> int:
    """Max interactions computed by any device in a round (its latency proxy)."""
    if not stats:
        raise ValueError("no per-device stats")
    if not 0 <= round_i < len(stats[0].rounds):
        raise ValueError(f"round {round_i} out of range")
    return max(ws.rounds[round_i].interactions_computed for ws in stats)


def critical_path_sum(stats: Sequence[WorkStats]) -> int:
    """Sum over rounds of ``round_critical_path``: the schedule's latency proxy."""
    if not stats:
        raise ValueError("no per-device stats")
    return sum(round_critical_path(stats, i) for i in range(len(stats[0].rounds)))


def critical_path_required(algo: Algo, n_devices: int, block_size: int) -> int:
    """``critical_path_sum`` of the required interactions at 1x1 tiles, in O(1).

    Round 0 holds the own blocks, every later round one block of each
    other relation (``_relation_masks``).
    """
    algo = Algo(algo)
    check_split(n_devices * block_size, n_devices)
    own, below, above = (m.count_allowed() for m in _relation_masks(algo, n_devices, block_size))
    return own + (n_devices - 1) * max(below, above)


def simulated_speedup(ring_stats: Sequence[WorkStats], striped_stats: Sequence[WorkStats]) -> float:
    """Critical-path sum of the contiguous run over the striped run."""
    for name, stats in (("ring", ring_stats), ("striped", striped_stats)):
        if not stats or any(len(ws.rounds) != len(stats) for ws in stats):
            raise ValueError(f"{name} stats are incomplete")
    if len(ring_stats) != len(striped_stats):
        raise ValueError(
            f"device counts differ: {len(ring_stats)} vs {len(striped_stats)}"
        )
    if ring_stats[0].rounds[0].tiles_total != striped_stats[0].rounds[0].tiles_total:
        raise ValueError("tiling mismatch between the two runs")
    return critical_path_sum(ring_stats) / critical_path_sum(striped_stats)


@dataclass
class SimRun:
    """One end-to-end simulation: inputs, per-device results, reassembled output."""

    config: SimConfig
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    layout: Layout
    outputs: np.ndarray  # stacked by device, (N, c, d_v), in the layout's local order
    stats: list[WorkStats]
    output: np.ndarray  # rows back in original token order


def simulate(config: SimConfig, inputs=None) -> SimRun:
    """Generate (or take) Q/K/V, partition, run the schedule, reassemble.

    Given inputs must be real; they are cast to the config's precision
    and must then be finite.
    """
    if inputs is None:
        q, k, v = random_qkv(config.n_seq, config.d_head, config.seed, config.dtype)
    else:
        q, k, v = (
            check_sequence(name, x, dtype=config.dtype) for name, x in zip("QKV", inputs)
        )
    layout = make_layout(config)
    q_in = q * q.dtype.type(1.0 / math.sqrt(config.d_head)) if config.scale else q
    batch = layout.partition(q_in, k, v)
    outputs, stats = run_schedule(config, batch)
    return SimRun(config, q, k, v, layout, outputs, stats, layout.gather(outputs))


# Max abs error against the dense oracle that a run may show, per precision.
ORACLE_TOLERANCE = {"double": 1e-9, "single": 1e-3}


def oracle_error(run: SimRun, reference: np.ndarray | None = None) -> float:
    """Max abs difference between the reassembled output and the dense reference.

    ``reference`` is ``oracle_causal_attention`` of the run's inputs, when
    the caller already has it (runs that share Q, K, V and ``scale`` share
    it); by default it is computed here.
    """
    if reference is None:
        reference = oracle_causal_attention(run.q, run.k, run.v, scale=run.config.scale)
    elif reference.shape != run.output.shape:
        raise ValueError(
            f"reference shape {reference.shape} does not match the output {run.output.shape}"
        )
    return float(np.max(np.abs(run.output.astype(np.float64) - reference.astype(np.float64))))
