"""Ring-schedule execution over simulated devices, with work accounting.

Runs the N-round rotation: every device keeps its query block resident,
contracts it against the key/value block it currently holds, then forwards
that block to its ring successor and receives from its predecessor. The
contiguous and striped layouts share the identical schedule; they differ
only in which mask a (query block, key block) pair produces.

Q, K, V and the softmax state are stacked by device, (N, c, ...). A held
key block k is the device's own (k = j), an earlier (k < j) or a later
one (k > j), and each relation has one mask (``_relation_masks``): both
executors and the closed-form counters read those three. Both
executors run one round loop (``_device_rounds``) and differ only in which
devices it covers and where a held block comes from. The serial one
advances all devices one round at a time: in round i the devices holding
blocks k < j share one mask, those holding k > j another, and the held
blocks of each range are plain slices of the stacked K and V, so each
range is one ``attention.accumulate_block`` call. That kernel owns how
the host computes: it folds a group of devices per BLAS call (8 at
c = 128, more below it) in row chunks of 64, and masks only each chunk's
diagonal square, so a triangular block pays for its triangle plus half a
chunk square per chunk. The serial loop also folds B runs of one config
at once (``_run_stacked``; ``ringsim verify`` stacks the seeds of each
sweep config this way): the stacks hold N * B blocks, device-major, and
a device range covers its devices' B copies, so a round still makes one
kernel call per range. The threaded one runs the loop over one device
per worker, with blocks arriving over ordered point-to-point queues.
Each device's floating-point accumulation order is fixed (rounds in
order, row chunks in order within a round, independent of the modelled
tile, of the grouping and of the stacking; a stacked product makes one
BLAS call per device block), so the two are bit-identical, and a
stacked run's copies equal their own runs byte for byte. The modelled
tile only drives the work counters, which come from the closed form
(``schedule_work_stats``), never from the numerics.
"""

from __future__ import annotations

import functools
import math
import queue
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import (
    MaskSpec,
    SoftmaxAccumulator,
    _as_dtype,
    accumulate_block,
    check_array,
    check_integer,
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


@dataclass(frozen=True)
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
        object.__setattr__(self, "algo", Algo(self.algo))
        for name, least in (("n_devices", 2), ("n_seq", None), ("d_head", 1),
                            ("tile_q", 1), ("tile_k", 1), ("seed", 0)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), least))
        c = check_split(self.n_seq, self.n_devices)  # n_seq's bound is n_devices
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


@dataclass(frozen=True)
class WorkStats:
    """Work counters for one device, one ``RoundStats`` per round.

    Frozen, with ``rounds`` a tuple, so one closed-form result can be
    shared by every caller (``schedule_work_stats``).
    """

    device: int
    rounds: tuple[RoundStats, ...]


def make_layout(config: SimConfig) -> Layout:
    return Layout(config.algo, config.n_seq, config.n_devices)


def random_qkv(n_seq: int, d_head: int, seed: int, dtype=np.float64):
    for name, value, least in (("n_seq", n_seq, 1), ("d_head", d_head, 1), ("seed", seed, 0)):
        check_integer(name, value, least)
    if _as_dtype(dtype) not in (np.float32, np.float64):  # what standard_normal can draw
        raise ValueError(f"dtype must be float32 or float64, got {np.dtype(dtype)}")
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((n_seq, d_head), dtype=dtype) for _ in range(3))


def _device_rounds(
    config: SimConfig, acc: SoftmaxAccumulator, q, devices: range, held, copies: int
) -> None:
    """Fold every round of ``devices``' schedule into the stacked ``acc``.

    In round i, devices [i, N) hold blocks [0, N - i) and devices [0, i)
    hold blocks [N - i, N). A block's mask depends only on how k compares
    with j, so each range shares one of the three ``_relation_masks``
    and is folded by one ``accumulate_block`` call.
    ``acc``, ``q`` and the stacks ``held(i, a, b)`` returns hold
    ``copies`` blocks per device, device-major: devices [a, b) are rows
    [a * copies, b * copies), so every copy's block is folded as its own
    device's. ``held`` gives the (K, V) stacks devices [a, b) hold in
    round i; it is called once per non-empty range and round, in round
    order.
    """
    n, c = config.n_devices, config.block_size
    first, stop = devices.start, devices.stop
    own, below, above = _relation_masks(config.algo, n, c)
    for i in range(n):
        for a, b, mask in ((max(i, first), stop, below if i else own),
                           (first, min(i, stop), above)):
            if a < b:
                k, v = held(i, a, b)
                lo, hi = a * copies, b * copies
                accumulate_block(acc.devices(lo, hi), q[lo:hi], k, v, mask)


def _run_serial(config: SimConfig, q, k, v, copies: int, acc: SoftmaxAccumulator) -> None:
    """All devices one round at a time, ``copies`` stacked blocks per device."""
    n = config.n_devices

    def held(i: int, a: int, b: int):
        k0 = (a - i) % n  # devices [a, b) hold blocks [k0, k0 + b - a)
        rows = slice(k0 * copies, (k0 + b - a) * copies)
        return k[rows], v[rows]

    _device_rounds(config, acc, q, range(n), held, copies)


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
            _device_rounds(config, acc, batch.q, range(j, j + 1), held, 1)
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
    (outputs,), stats = _run_stacked(config, [batch])
    return outputs, stats


def _run_stacked(config: SimConfig, batches: Sequence[PermutedBatch]):
    """``run_schedule`` of B batches of one config in one run: (B outputs, stats).

    Each batch is checked as ``run_schedule`` checks its one, and all must
    share V's width. The batches are stacked device-major, N * B blocks
    with device j's copies at rows [j * B, (j + 1) * B), and the serial
    executor folds them in one pass of ``_device_rounds``; one batch is
    folded from its own arrays, uncopied. The threads executor takes one
    batch. Every copy's bytes are those of its own run: a stacked product
    makes one BLAS call per device block, and the stacking never reorders
    a block's accumulation. A row that attended nothing is named (device,
    row) in one batch and (device, copy, row) in a stack.
    """
    n, c = config.n_devices, config.block_size
    copies = len(batches)
    if copies > 1 and config.executor == "threads":
        raise ValueError("the threads executor runs one batch at a time")
    layout = make_layout(config)
    arrays, d_v = [], None
    for batch in batches:
        if batch.layout != layout:
            raise ValueError(
                f"batch is partitioned as {batch.layout}, but the config runs {layout}"
            )
        arrays.append(tuple(
            check_array(f"batch {name}", x, (n, c, width), config.dtype)
            for name, x, width in (("Q", batch.q, config.d_head), ("K", batch.k, config.d_head),
                                   ("V", batch.v, d_v))
        ))
        d_v = arrays[-1][2].shape[2]
    if copies == 1:
        [(q, k, v)] = arrays
    else:
        q, k, v = (np.stack(x, axis=1).reshape(n * copies, c, x[0].shape[2])
                   for x in zip(*arrays))
    acc = SoftmaxAccumulator.fresh((n * copies, c), d_v, config.dtype)
    if config.executor == "threads":
        _run_threads(config, batches[0], acc)
    else:
        _run_serial(config, q, k, v, copies, acc)
    stats = schedule_work_stats(config.algo, n, c, config.tile_q, config.tile_k)
    if copies == 1:
        return [finalize(acc)], stats
    state = SoftmaxAccumulator(
        *(x.reshape((n, copies) + x.shape[1:]) for x in (acc.acc, acc.m, acc.l))
    )
    outputs = finalize(state)
    return [outputs[:, s] for s in range(copies)], stats


def schedule_work_stats(
    algo: Algo, n_devices: int, block_size: int, tile_q: int, tile_k: int
) -> list[WorkStats]:
    """Closed-form per-round work counters, no numerics.

    Counts tiles with ``tile_census`` instead of enumerating them, so huge
    blocks (e.g. 4096 with 1x1 tiles) are accounted in milliseconds. Each
    of the schedule's three masks (``_relation_masks``) is counted once.
    Partial tiles are charged their whole area as computed.

    The arguments are checked on every call, before any lookup. The
    counters are cached as three rows per (algo, N, block size, tiling)
    (``_relation_rows``); their expansion into frozen ``WorkStats`` is
    cached and shared only for N <= 16, and built on every call above it.
    The list is new on every call, so a caller may change it without
    changing what the next caller gets.
    """
    n, c = check_integer("n_devices", n_devices, 2), check_integer("block_size", block_size, 1)
    tile_q, tile_k = check_integer("tile_q", tile_q), check_integer("tile_k", tile_k)
    expand = _work_stats if n <= _EXPANDED_MAX_DEVICES else _work_stats.__wrapped__
    return list(expand(Algo(algo), n, c, tile_q, tile_k))


_EXPANDED_MAX_DEVICES = 16  # the paper's largest ring; 64 keys at N = 16 hold 2.7 MB


# Both caches take checked ints only: lru_cache finds a key by equality
# (8.0 == 8, True == 1), so an unchecked 8.0 would hit the entry of 8 and
# pass. A full ``ringsim verify`` reads 21 keys, all with N <= 8.
@functools.lru_cache(maxsize=64)
def _work_stats(algo: Algo, n_devices: int, block_size: int, tile_q: int, tile_k: int):
    own, below, above = _relation_rows(algo, n_devices, block_size, tile_q, tile_k)
    return tuple(
        WorkStats(
            device=j,
            rounds=tuple(
                RoundStats(i, (j - i) % n_devices, *(own if i == 0 else below if j >= i else above))
                for i in range(n_devices)
            ),
        )
        for j in range(n_devices)
    )


@functools.lru_cache(maxsize=256)
def _relation_rows(algo: Algo, n_devices: int, block_size: int, tile_q: int, tile_k: int):
    """The ``RoundStats`` fields after ``block_index`` for the own, below and above masks."""
    area = tile_q * tile_k
    rows = []
    for mask in _relation_masks(algo, n_devices, block_size):
        census = tile_census(mask, tile_q, tile_k)
        rows.append((census.n_total, census.n_skip, census.n_partial, census.n_full,
                     (census.n_full + census.n_partial) * area, mask.count_allowed()))
    return tuple(rows)


def _relation_masks(algo: Algo, n_devices: int, block_size: int) -> tuple[MaskSpec, ...]:
    """The masks of blocks (0, 0), (1, 0) and (0, 1): own, below and above.

    Round 0 holds only own blocks (k = j). Every later round i holds
    blocks with k < j (devices j >= i) and with k > j (devices j < i),
    and both mask families depend only on how k compares with j, so
    these three stand for every (j, k) of the schedule, as
    ``verify.check_masks`` confirms against position arithmetic.
    """
    get_mask = get_mask_ring if Algo(algo) is Algo.RING else get_mask_striped
    return tuple(get_mask(j, k, block_size, n_devices) for j, k in ((0, 0), (1, 0), (0, 1)))


def round_critical_path(stats: Sequence[WorkStats], round_i: int) -> int:
    """Max interactions computed by any device in a round (its latency proxy)."""
    if not stats:
        raise ValueError("no per-device stats")
    round_i = check_integer("round_i", round_i, 0, len(stats[0].rounds))
    return max(ws.rounds[round_i].interactions_computed for ws in stats)


def critical_path_sum(stats: Sequence[WorkStats]) -> int:
    """Sum over rounds of ``round_critical_path``: the schedule's latency proxy."""
    if not stats:
        raise ValueError("no per-device stats")
    return sum(round_critical_path(stats, i) for i in range(len(stats[0].rounds)))


def critical_path_required(algo: Algo, n_devices: int, block_size: int) -> int:
    """``critical_path_sum`` of the required interactions at 1x1 tiles, in O(1).

    Round 0 holds the own blocks, every later round one block of each
    other relation. The count is read from the cached counter rows
    (``_relation_rows``) at one tile per block, whose census is O(1): the
    required count does not depend on the tiling. The arguments are
    checked on every call, before the lookup.
    """
    n, c = check_integer("n_devices", n_devices, 2), check_integer("block_size", block_size, 1)
    own, below, above = _relation_rows(Algo(algo), n, c, c, c)  # [-1]: interactions_required
    return own[-1] + (n - 1) * max(below[-1], above[-1])


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
    """One end-to-end simulation: inputs, per-device stats, reassembled output."""

    config: SimConfig
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    layout: Layout
    stats: list[WorkStats]
    output: np.ndarray  # rows back in original token order


def simulate(config: SimConfig, inputs=None) -> SimRun:
    """Generate (or take) Q/K/V, partition, run the schedule, reassemble.

    Given inputs must be exactly Q, K and V, real; they are cast to the
    config's precision and must then be finite.
    """
    (run,) = _simulate_stacked([config], [inputs])
    return run


def _simulate_stacked(configs: Sequence[SimConfig], inputs: Sequence) -> list[SimRun]:
    """``simulate`` of each (config, inputs) pair, all folded in one ``_run_stacked``.

    The configs may differ in their seed only. Each pair is drawn (or
    checked), scaled and partitioned on its own, and its output gathered
    on its own; its bytes and stats equal those of its own ``simulate``.
    """
    first = configs[0]
    layout = make_layout(first)
    drawn, batches = [], []
    for config, given in zip(configs, inputs, strict=True):
        if vars(config) | {"seed": first.seed} != vars(first):
            raise ValueError(f"stacked configs may differ only in seed: {config} vs {first}")
        if given is None:
            q, k, v = random_qkv(config.n_seq, config.d_head, config.seed, config.dtype)
        else:
            try:
                q, k, v = given
            except (TypeError, ValueError):
                got = len(given) if hasattr(given, "__len__") else type(given).__name__
                raise ValueError(
                    f"inputs must be the three arrays Q, K and V, got {got}"
                ) from None
            q, k, v = (
                check_sequence(name, x, dtype=config.dtype) for name, x in zip("QKV", (q, k, v))
            )
        q_in = q * q.dtype.type(1.0 / math.sqrt(config.d_head)) if config.scale else q
        drawn.append((q, k, v))
        batches.append(layout.partition(q_in, k, v))
    outputs, stats = _run_stacked(first, batches)
    return [
        SimRun(config, q, k, v, layout, list(stats), layout.gather(out))
        for config, (q, k, v), out in zip(configs, drawn, outputs)
    ]


# Max abs error against the dense oracle that a run may show, per precision.
ORACLE_TOLERANCE = {"double": 1e-9, "single": 1e-3}


def oracle_error(run: SimRun, reference: np.ndarray | None = None) -> float:
    """Max abs difference between the reassembled output and the dense reference.

    ``reference`` is ``oracle_causal_attention`` of the run's inputs, when
    the caller already has it (runs that share Q, K, V and ``scale`` share
    it), checked as ``check_sequence`` does and against the output's
    shape; by default it is computed here.
    """
    if reference is None:
        reference = oracle_causal_attention(run.q, run.k, run.v, scale=run.config.scale)
    else:
        reference = check_sequence("reference", reference)
        check_array("reference", reference, run.output.shape)
    diff = np.subtract(run.output, reference, dtype=np.float64)
    return float(np.abs(diff, out=diff).max())
