"""Ring-schedule execution over simulated devices, with work accounting.

Runs the N-round rotation: every device keeps its query block resident,
contracts it against the key/value block it currently holds, then forwards
that block to its ring successor and receives from its predecessor. The
contiguous and striped layouts share the identical schedule; they differ
only in which mask a (query block, key block) pair produces.

Both executors run the same per-device round loop and differ only in how
a device gets its next block: the serial one runs the devices one after
another and reads the block straight from the partitioned batch; the
threaded one runs one worker per device, connected by ordered
point-to-point queues. Each device's floating-point accumulation order is
fixed (rounds in order, row chunks of ``_CHUNK_ROWS`` in order within a
round, independent of the modelled tile), so the two are bit-identical.
The modelled tile only drives the work counters, which come from the
closed form (``schedule_work_stats``), never from the numerics.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attention import (
    MaskKind,
    MaskSpec,
    SoftmaxAccumulator,
    accumulate_tile,
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
# hardware tile. A chunk's float64 scores against a 1024-key block take
# 1 MB at 128 rows and fit a 2 MB L2; at 256 rows and above the n=4096
# schedule ran no faster than folding once per 64x64 tile.
_CHUNK_ROWS = 128


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
    check_oracle: bool = False
    executor: str = "serial"   # "serial" | "threads"

    def __post_init__(self):
        if isinstance(self.algo, str):
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
    """Fold one held K/V block into ``acc``, ``_CHUNK_ROWS`` query rows at a time.

    A triangular mask lets rows [r0, r1) see only keys [0, r1 - 1 + shift)
    (shift 1 with the diagonal, 0 without), so each chunk is contracted
    against that slab alone and only the slab's mask is built. Rows with
    no allowed key in it are left untouched by ``accumulate_tile``.
    """
    if mask.kind is MaskKind.FULLY_MASKED:
        return
    shift = 1 if mask.kind is MaskKind.CAUSAL_INCLUSIVE else 0
    for r0 in range(0, mask.block_rows, _CHUNK_ROWS):
        r1 = min(r0 + _CHUNK_ROWS, mask.block_rows)
        rows = acc.rows(r0, r1)
        if mask.kind is MaskKind.FULLY_UNMASKED:
            accumulate_tile(rows, q_block[r0:r1], k_block, v_block)
            continue
        width = r1 - 1 + shift
        if width > 0:
            accumulate_tile(
                rows, q_block[r0:r1], k_block[:width], v_block[:width],
                mask.allowed_block(r0, r1, 0, width),
            )


def _device_rounds(config: SimConfig, j: int, q_block, kv, exchange) -> np.ndarray:
    """Device j's whole schedule; returns its normalized output block.

    ``kv`` is the (K, V) block the device starts with, its own. Round i
    folds the held block, (j - i) mod N, with ``_fold_block``; then
    ``exchange(j, i, kv)`` hands back the block held in round i + 1.
    """
    n, c = config.n_devices, config.block_size
    acc = SoftmaxAccumulator.fresh(c, kv[1].shape[1], config.dtype)
    for i in range(n):
        mask = _block_mask(config.algo, j, (j - i) % n, c, n)
        _fold_block(acc, mask, q_block, *kv)
        if i + 1 < n:
            kv = exchange(j, i, kv)
    return finalize(acc)


def _run_serial(config: SimConfig, batch: PermutedBatch) -> list[np.ndarray]:
    n = config.n_devices

    def exchange(j: int, i: int, kv):
        shard = batch.shards[(j - i - 1) % n]  # what the predecessor held in round i
        return shard.k, shard.v

    return [
        _device_rounds(config, j, sh.q, (sh.k, sh.v), exchange)
        for j, sh in enumerate(batch.shards)
    ]


class _PeerFailed(Exception):
    """Another device raised; this one stops without a result."""


_ABORT = object()  # put into every inbox by a failing worker


def _run_threads(config: SimConfig, batch: PermutedBatch) -> list[np.ndarray]:
    n = config.n_devices
    inboxes = [queue.Queue() for _ in range(n)]  # inboxes[j]: blocks come only from j-1
    outputs: list[np.ndarray | None] = [None] * n
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

    def worker(j: int, shard) -> None:
        try:
            outputs[j] = _device_rounds(config, j, shard.q, (shard.k, shard.v), exchange)
        except _PeerFailed:
            pass
        except BaseException as exc:  # re-raised by the caller after join
            errors.append(exc)
            for inbox in inboxes:
                inbox.put(_ABORT)

    threads = [
        threading.Thread(target=worker, args=(j, sh), name=f"device-{j}", daemon=True)
        for j, sh in enumerate(batch.shards)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return outputs


def run_schedule(config: SimConfig, batch: PermutedBatch):
    """Execute the N-round rotation.

    Returns (per-device outputs, per-device WorkStats), outputs still in
    the layout's local order. The stats are ``schedule_work_stats`` of
    the config: the counters depend on the masks and the tiling only.
    """
    n, c = config.n_devices, config.block_size
    if batch.layout.scheme is not config.algo:
        raise ValueError(
            f"batch is partitioned for {batch.layout.scheme.value}, "
            f"but the config runs {config.algo.value}"
        )
    if batch.layout.n_seq != config.n_seq or batch.layout.n_devices != n:
        raise ValueError("batch layout does not match the simulation config")
    if len(batch.shards) != n:
        raise ValueError(f"batch has {len(batch.shards)} shards, config wants {n}")
    for d, sh in enumerate(batch.shards):
        if sh.q.shape != (c, config.d_head) or sh.k.shape != (c, config.d_head):
            raise ValueError(
                f"device {d} Q/K shard shape mismatch (want block {c} x d_head {config.d_head})"
            )
        if sh.v.shape[0] != c:
            raise ValueError(f"device {d} V shard must have {c} rows, got {sh.v.shape[0]}")
    run = _run_threads if config.executor == "threads" else _run_serial
    outputs = run(config, batch)
    return outputs, schedule_work_stats(config.algo, n, c, config.tile_q, config.tile_k)


def schedule_work_stats(
    algo: Algo, n_devices: int, block_size: int, tile_q: int, tile_k: int
) -> list[WorkStats]:
    """Closed-form per-round work counters, no numerics.

    Counts tiles with ``tile_census`` instead of enumerating them, so huge
    blocks (e.g. 4096 with 1x1 tiles) are accounted in milliseconds.
    Partial tiles are charged their whole area as computed.
    """
    algo = Algo(algo) if isinstance(algo, str) else algo
    if n_devices < 2:
        raise ValueError(f"need at least 2 devices, got {n_devices}")
    area = tile_q * tile_k
    out = []
    for j in range(n_devices):
        ws = WorkStats(device=j)
        for i in range(n_devices):
            k = (j - i) % n_devices
            mask = _block_mask(algo, j, k, block_size, n_devices)
            census = tile_census(mask, tile_q, tile_k)
            ws.rounds.append(
                RoundStats(
                    round=i,
                    block_index=k,
                    tiles_total=census.n_total,
                    tiles_skipped=census.n_skip,
                    tiles_partial=census.n_partial,
                    tiles_full=census.n_full,
                    interactions_computed=(census.n_full + census.n_partial) * area,
                    interactions_required=mask.count_allowed(),
                )
            )
        out.append(ws)
    return out


def round_critical_path(stats: Sequence[WorkStats], round_i: int) -> int:
    """Max interactions computed by any device in a round (its latency proxy)."""
    if not stats:
        raise ValueError("no per-device stats")
    if not 0 <= round_i < len(stats[0].rounds):
        raise ValueError(f"round {round_i} out of range")
    return max(ws.rounds[round_i].interactions_computed for ws in stats)


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
    rounds = len(ring_stats)
    ring_total = sum(round_critical_path(ring_stats, i) for i in range(rounds))
    striped_total = sum(round_critical_path(striped_stats, i) for i in range(rounds))
    return ring_total / striped_total


@dataclass
class SimRun:
    """One end-to-end simulation: inputs, per-device results, reassembled output."""

    config: SimConfig
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    layout: Layout
    outputs: list[np.ndarray]
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


def oracle_error(run: SimRun) -> float:
    """Max abs difference between the reassembled output and the dense reference."""
    ref = oracle_causal_attention(run.q, run.k, run.v, scale=run.config.scale)
    return float(np.max(np.abs(run.output.astype(np.float64) - ref.astype(np.float64))))
