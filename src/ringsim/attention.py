"""Exact causal-attention mathematics shared by every schedule.

Holds the dense reference implementation, the symbolic per-block masks
produced by the contiguous and striped token layouts, tile-granularity
classification of those masks, and the streaming-softmax accumulator that
folds key/value tiles into a running, not-yet-normalized output.

Conventions:

* Sequence tensors are 2-D float matrices, one row per token.
* Masks are indexed ``[query row x, key column y]``; an *allowed* pair
  contributes to the softmax, a masked pair is scored ``-inf``.
* Scores are raw dot products; pass ``scale=True`` for 1/sqrt(d).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

def check_sequence(name: str, x, dtype=None) -> np.ndarray:
    """Coerce to a real float matrix and enforce: 2-D, non-empty, all finite.

    Complex input is rejected, not cast, so no imaginary part is dropped.
    ``dtype`` casts to that float type before the checks; by default
    float32 and float64 pass through and anything else becomes float64.
    """
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {arr.ndim}-D")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {tuple(arr.shape)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class MaskKind(enum.Enum):
    FULLY_MASKED = "fully_masked"          # no pair allowed
    FULLY_UNMASKED = "fully_unmasked"      # every pair allowed
    CAUSAL_INCLUSIVE = "causal_inclusive"  # allowed iff y <= x
    CAUSAL_EXCLUSIVE = "causal_exclusive"  # allowed iff y < x


class TileClass(enum.Enum):
    SKIP = "skip"        # every pair masked; the tile is never computed
    PARTIAL = "partial"  # mixed; computed with the mask applied
    FULL = "full"        # every pair allowed; computed unmasked


@dataclass(frozen=True)
class MaskSpec:
    """Symbolic mask for one (query block x key block) score matrix.

    The four kinds cover everything the contiguous and striped layouts can
    produce, so skip decisions never require materializing a boolean mask.
    """

    kind: MaskKind
    block_rows: int
    block_cols: int

    def __post_init__(self):
        if self.block_rows < 1 or self.block_cols < 1:
            raise ValueError(
                f"mask block must be non-empty, got {self.block_rows}x{self.block_cols}"
            )

    def _bounds(self, r0, r1, c0, c1):
        r1 = self.block_rows if r1 is None else r1
        c1 = self.block_cols if c1 is None else c1
        if not (0 <= r0 < r1 <= self.block_rows and 0 <= c0 < c1 <= self.block_cols):
            raise ValueError(
                f"tile [{r0}:{r1}, {c0}:{c1}] out of range for a "
                f"{self.block_rows}x{self.block_cols} block"
            )
        return r0, r1, c0, c1

    def allowed_block(self, r0=0, r1=None, c0=0, c1=None) -> np.ndarray:
        """Boolean matrix of allowed pairs for a sub-block of the mask."""
        r0, r1, c0, c1 = self._bounds(r0, r1, c0, c1)
        if self.kind is MaskKind.FULLY_MASKED:
            return np.zeros((r1 - r0, c1 - c0), dtype=bool)
        if self.kind is MaskKind.FULLY_UNMASKED:
            return np.ones((r1 - r0, c1 - c0), dtype=bool)
        rows = np.arange(r0, r1)[:, None]
        cols = np.arange(c0, c1)[None, :]
        return cols <= rows if self.kind is MaskKind.CAUSAL_INCLUSIVE else cols < rows

    def materialize(self) -> np.ndarray:
        return self.allowed_block()

    def count_allowed(self, r0=0, r1=None, c0=0, c1=None) -> int:
        """Number of allowed pairs in a sub-block, in closed form."""
        r0, r1, c0, c1 = self._bounds(r0, r1, c0, c1)
        if self.kind is MaskKind.FULLY_MASKED:
            return 0
        if self.kind is MaskKind.FULLY_UNMASKED:
            return (r1 - r0) * (c1 - c0)
        # Triangular kinds: row x allows clamp(x + shift - c0, 0, width)
        # keys, where shift=1 includes the diagonal and width = c1 - c0.
        shift = 1 if self.kind is MaskKind.CAUSAL_INCLUSIVE else 0
        width = c1 - c0
        lo = max(r0, c0 - shift + 1)              # first row with any allowed key
        hi = min(r1 - 1, c0 + width - shift - 1)  # last row before saturation
        total = 0
        if hi >= lo:
            a = lo + shift - c0
            b = hi + shift - c0
            total += (a + b) * (b - a + 1) // 2
        n_saturated = r1 - max(r0, c0 + width - shift)
        if n_saturated > 0:
            total += n_saturated * width
        return total


def oracle_causal_attention(q, k, v, scale: bool = False) -> np.ndarray:
    """Dense reference attention: each row attends keys at or before it.

    Materializes the full (n, n) score matrix with ``-inf`` above the
    diagonal, then takes a numerically-stable row softmax against V. Slow
    by design; this is the ground truth every scheduled execution is
    compared against.
    """
    q = check_sequence("Q", q)
    k = check_sequence("K", k)
    v = check_sequence("V", v)
    n = q.shape[0]
    if k.shape[0] != n or v.shape[0] != n:
        raise ValueError(f"Q/K/V row counts differ: {q.shape[0]}, {k.shape[0]}, {v.shape[0]}")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"Q and K widths differ: {q.shape[1]} vs {k.shape[1]}")
    if scale:
        q = q * q.dtype.type(1.0 / math.sqrt(q.shape[1]))
    scores = q @ k.T
    scores[~np.tril(np.ones((n, n), dtype=bool))] = -np.inf
    m = scores.max(axis=1, keepdims=True)  # finite: the diagonal is always allowed
    p = np.exp(scores - m)
    return (p @ v) / p.sum(axis=1, keepdims=True)


def _check_block_indices(j, k, c, n_devices):
    if j < 0 or k < 0:
        raise ValueError(f"block indices must be non-negative, got j={j}, k={k}")
    if n_devices is not None and (j >= n_devices or k >= n_devices):
        raise ValueError(f"block indices j={j}, k={k} out of range for {n_devices} devices")
    if c < 1:
        raise ValueError(f"block size must be positive, got {c}")


def get_mask_ring(j: int, k: int, c: int, n_devices: int | None = None) -> MaskSpec:
    """Block mask for the contiguous layout: query block j vs key block k.

    Every key of an earlier block precedes every query of a later block,
    so off-diagonal blocks are all-or-nothing; only the diagonal block is
    triangular.
    """
    _check_block_indices(j, k, c, n_devices)
    if k > j:
        kind = MaskKind.FULLY_MASKED
    elif k == j:
        kind = MaskKind.CAUSAL_INCLUSIVE
    else:
        kind = MaskKind.FULLY_UNMASKED
    return MaskSpec(kind, c, c)


def get_mask_striped(j: int, k: int, c: int, n_devices: int | None = None) -> MaskSpec:
    """Block mask for the striped layout: query stripe j vs key stripe k.

    Local row x of stripe j sits at original position ``j + x*N`` and
    local column y of stripe k at ``k + y*N``, so the pair is allowed iff
    ``k + y*N <= j + x*N``: a triangle that includes the diagonal when
    k <= j and excludes it when k > j. Every block keeps close to half
    its work, which is what balances the schedule.
    """
    _check_block_indices(j, k, c, n_devices)
    kind = MaskKind.CAUSAL_INCLUSIVE if k <= j else MaskKind.CAUSAL_EXCLUSIVE
    return MaskSpec(kind, c, c)


def check_tiling(block_rows: int, block_cols: int, tile_q: int, tile_k: int) -> tuple[int, int]:
    """Tile-grid shape of a block; each tile side must divide the block side."""
    if tile_q < 1 or block_rows % tile_q:
        raise ValueError(f"tile_q={tile_q} does not divide block_rows={block_rows}")
    if tile_k < 1 or block_cols % tile_k:
        raise ValueError(f"tile_k={tile_k} does not divide block_cols={block_cols}")
    return block_rows // tile_q, block_cols // tile_k


def _classify_bounds(kind: MaskKind, r0: int, r1: int, c0: int, c1: int) -> TileClass:
    # Interval arithmetic against the triangular boundary; no pair scans.
    if kind is MaskKind.FULLY_MASKED:
        return TileClass.SKIP
    if kind is MaskKind.FULLY_UNMASKED:
        return TileClass.FULL
    if kind is MaskKind.CAUSAL_INCLUSIVE:
        if c1 - 1 <= r0:
            return TileClass.FULL
        if c0 > r1 - 1:
            return TileClass.SKIP
    else:
        if c1 <= r0:
            return TileClass.FULL
        if c0 >= r1 - 1:
            return TileClass.SKIP
    return TileClass.PARTIAL


def classify_tiles(mask: MaskSpec, tile_q: int, tile_k: int) -> list[list[TileClass]]:
    """Class of every (tile_q x tile_k) tile of the block, row-major."""
    grid_rows, grid_cols = check_tiling(mask.block_rows, mask.block_cols, tile_q, tile_k)
    grid = []
    for ti in range(grid_rows):
        r0 = ti * tile_q
        grid.append(
            [
                _classify_bounds(mask.kind, r0, r0 + tile_q, tj * tile_k, (tj + 1) * tile_k)
                for tj in range(grid_cols)
            ]
        )
    return grid


@dataclass(frozen=True)
class TileCensus:
    n_full: int
    n_partial: int
    n_skip: int

    @property
    def n_total(self) -> int:
        return self.n_full + self.n_partial + self.n_skip


def tile_census(mask: MaskSpec, tile_q: int, tile_k: int) -> TileCensus:
    """Tile-class counts without building the grid or looping in Python.

    Evaluates, for every tile row at once, how many tiles are full and
    where the skipped ones start. Must agree exactly with counting over
    ``classify_tiles``; large configurations use this to account work
    without touching numerics.
    """
    grid_rows, grid_cols = check_tiling(mask.block_rows, mask.block_cols, tile_q, tile_k)
    total = grid_rows * grid_cols
    if mask.kind is MaskKind.FULLY_MASKED:
        return TileCensus(0, 0, total)
    if mask.kind is MaskKind.FULLY_UNMASKED:
        return TileCensus(total, 0, 0)
    r0 = np.arange(grid_rows, dtype=np.int64) * tile_q
    r1 = r0 + tile_q
    if mask.kind is MaskKind.CAUSAL_INCLUSIVE:
        full = (r0 + 1) // tile_k                     # tiles with c1 - 1 <= r0
        first_skip = (r1 - 1) // tile_k + 1           # first tj with c0 > r1 - 1
    else:
        full = r0 // tile_k                           # tiles with c1 <= r0
        first_skip = (r1 - 2 + tile_k) // tile_k      # first tj with c0 >= r1 - 1
    n_full = int(np.minimum(full, grid_cols).sum())
    n_skip = int((grid_cols - np.minimum(first_skip, grid_cols)).sum())
    return TileCensus(n_full, total - n_full - n_skip, n_skip)


@dataclass
class SoftmaxAccumulator:
    """Running state of the streaming softmax for one block of query rows.

    ``acc`` holds the not-yet-normalized weighted sum of values, ``m`` the
    running row maximum of every score folded so far, and ``l`` the running
    row sum of exp(score - m). A row with l == 0 has never seen an unmasked
    score: its m is -inf and its acc row is all zero.
    """

    acc: np.ndarray
    m: np.ndarray
    l: np.ndarray

    @classmethod
    def fresh(cls, rows: int, cols: int, dtype=np.float64) -> "SoftmaxAccumulator":
        if rows < 1 or cols < 1:
            raise ValueError(f"accumulator must be non-empty, got {rows}x{cols}")
        return cls(
            acc=np.zeros((rows, cols), dtype=dtype),
            m=np.full(rows, -np.inf, dtype=dtype),
            l=np.zeros(rows, dtype=dtype),
        )

    def rows(self, start: int, stop: int) -> "SoftmaxAccumulator":
        """View onto a row range; updates through it hit this accumulator."""
        return SoftmaxAccumulator(self.acc[start:stop], self.m[start:stop], self.l[start:stop])


def accumulate_tile(
    state: SoftmaxAccumulator, q_tile, k_tile, v_tile, allowed=None
) -> SoftmaxAccumulator:
    """Fold one score tile into the running softmax state.

    ``allowed`` is None for a fully unmasked tile, else a boolean
    (q_rows, k_rows) matrix. Rows whose tile scores are entirely masked
    are left untouched, bit for bit. Mutates and returns ``state``.
    """
    scores = q_tile @ k_tile.T
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != scores.shape:
            raise ValueError(f"mask shape {allowed.shape} does not match scores {scores.shape}")
        if not allowed.all():
            scores[~allowed] = -np.inf
            live = allowed.any(axis=1)
            if not live.all():
                if live.any():
                    _fold(state, live, scores[live], v_tile)
                return state
    _fold(state, slice(None), scores, v_tile)
    return state


def _fold(state, rows, scores, v_tile):
    m_old = state.m[rows]
    m_new = np.maximum(m_old, scores.max(axis=1))
    carry = np.exp(m_old - m_new)        # exp(-inf - finite) == 0: no prior mass
    p = np.exp(scores - m_new[:, None])  # masked scores are -inf, exp gives 0
    state.acc[rows] = state.acc[rows] * carry[:, None] + p @ v_tile
    state.l[rows] = state.l[rows] * carry + p.sum(axis=1)
    state.m[rows] = m_new


def finalize(state: SoftmaxAccumulator) -> np.ndarray:
    """Normalize the accumulated output; every row must have attended."""
    dead = np.flatnonzero(state.l == 0)
    if dead.size:
        raise ValueError(f"query row attended no keys (first dead row: {int(dead[0])})")
    return state.acc / state.l[:, None]
