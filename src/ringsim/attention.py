"""Exact causal-attention mathematics shared by every schedule.

Holds the dense reference implementation, the symbolic per-block masks
produced by the contiguous and striped token layouts, tile-granularity
classification of those masks, and the streaming-softmax accumulator that
folds key/value tiles into a running, not-yet-normalized output.

Conventions:

* Sequence tensors are 2-D float matrices, one row per token.
* Masks are indexed ``[query row x, key column y]``; an *allowed* pair
  contributes to the softmax, a masked pair is scored ``-inf``.
* Every block mask is the line ``y <= x + diagonal``: one integer per
  block, from which the mask, its pair counts and its tile classes follow.
* Scores are raw dot products; pass ``scale=True`` for 1/sqrt(d).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

def check_sequence(name: str, x, dtype=None) -> np.ndarray:
    """Coerce to a real float matrix and enforce: 2-D, non-empty, all finite.

    Complex input is rejected, not cast, so no imaginary part is dropped.
    ``dtype`` casts to that float type before the checks, after making
    sure no finite entry lies beyond its range; by default float32 and
    float64 pass through and anything else becomes float64.
    """
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    if dtype is not None:
        limit = np.finfo(dtype).max
        if arr.dtype.kind == "f" and (np.isfinite(arr) & (np.abs(arr) > limit)).any():
            raise ValueError(
                f"{name} has finite entries beyond the {np.dtype(dtype).name} range "
                f"(|x| > {limit:.4g}); casting would overflow them to inf"
            )
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


# Where each kind puts the line y <= x + diagonal in a rows x cols block.
_DIAGONAL = {
    MaskKind.FULLY_MASKED: lambda rows, cols: -rows,
    MaskKind.FULLY_UNMASKED: lambda rows, cols: cols - 1,
    MaskKind.CAUSAL_INCLUSIVE: lambda rows, cols: 0,
    MaskKind.CAUSAL_EXCLUSIVE: lambda rows, cols: -1,
}


@dataclass(frozen=True)
class MaskSpec:
    """Symbolic mask for one (query block x key block) score matrix.

    Every kind is the line ``y <= x + diagonal``: the causal triangles sit
    on the main diagonal (0) or just below it (-1), and the all-or-nothing
    kinds move the line past a corner of the block (``block_cols - 1``
    allows every pair, ``-block_rows`` none). ``diagonal`` is derived from
    the kind once, so skip decisions and pair counts never need a boolean
    mask.
    """

    kind: MaskKind
    block_rows: int
    block_cols: int
    diagonal: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.block_rows < 1 or self.block_cols < 1:
            raise ValueError(
                f"mask block must be non-empty, got {self.block_rows}x{self.block_cols}"
            )
        diagonal = _DIAGONAL[self.kind](self.block_rows, self.block_cols)
        object.__setattr__(self, "diagonal", diagonal)

    def _bounds(self, r0, r1, c0, c1):
        r1 = self.block_rows if r1 is None else r1
        c1 = self.block_cols if c1 is None else c1
        # & rather than chained comparisons, so integer arrays of bounds pass too.
        ok = (0 <= r0) & (r0 < r1) & (r1 <= self.block_rows)
        ok = ok & (0 <= c0) & (c0 < c1) & (c1 <= self.block_cols)
        if not (ok if isinstance(ok, bool) else ok.all()):
            raise ValueError(
                f"tile [{r0}:{r1}, {c0}:{c1}] out of range for a "
                f"{self.block_rows}x{self.block_cols} block"
            )
        return r0, r1, c0, c1

    def allowed_block(self, r0=0, r1=None, c0=0, c1=None) -> np.ndarray:
        """Boolean matrix of allowed pairs for a sub-block of the mask."""
        r0, r1, c0, c1 = self._bounds(r0, r1, c0, c1)
        d = self.diagonal
        return np.arange(c0, c1) <= np.arange(r0 + d, r1 + d)[:, None]

    def count_allowed(self, r0=0, r1=None, c0=0, c1=None):
        """Number of allowed pairs in a sub-block, in closed form.

        Row x allows clip(x + s, 0, width) keys of the sub-block, with
        s = diagonal + 1 - c0, so rows [r0, r1) allow G(r1 + s) - G(r0 + s)
        pairs, G(z) = sum of clip(u, 0, width) over u < z. Python int bounds
        give an exact int; integer arrays of bounds (broadcast together) give
        an array of counts, one per sub-block.
        """
        r0, r1, c0, c1 = self._bounds(r0, r1, c0, c1)
        width = c1 - c0
        s = self.diagonal + 1 - c0
        return _clipped_prefix_sum(r1 + s, width) - _clipped_prefix_sum(r0 + s, width)


def _clipped_prefix_sum(z, width):
    """Sum of clip(u, 0, width) over integers u < z; branch-free, so arrays work too."""
    z1 = (z - 1) * (z > 1)                # max(z - 1, 0): u runs over 1 .. z1
    m = z1 - (z1 - width) * (z1 > width)  # min(z1, width): u up to m counts u
    return m * (m + 1) // 2 + (z1 - m) * width


# Query rows per oracle panel. Panels never build the n x n scores: at
# n = 4096 a panel's float64 scores take 2 MB, and 64 rows ran faster than
# 128, 256 or 512 at n = 1024 and n = 4096 (one BLAS thread).
_PANEL_ROWS = 64


@functools.lru_cache(maxsize=16)  # a run uses a full chunk or panel and a few ragged ones
def _strict_upper(size: int) -> np.ndarray:
    """Read-only (size, size) mask of the pairs above the main diagonal."""
    tri = np.triu(np.ones((size, size), dtype=bool), 1)
    tri.flags.writeable = False
    return tri


def oracle_causal_attention(q, k, v, scale: bool = False) -> np.ndarray:
    """Dense reference attention: each row attends keys at or before it.

    Works in panels of ``_PANEL_ROWS`` query rows: panel [r0, r1) is scored
    against every key it may see, [0, r1), and only its diagonal square,
    keys [r0, r1), gets ``-inf`` above the diagonal. Each row then takes a
    one-pass, numerically-stable softmax over all its allowed keys and is
    contracted with V. No running maximum or partial sum is carried from
    one panel to the next, so this stays independent of the streaming fold
    it is the ground truth for.
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
    out = np.empty((n, v.shape[1]), dtype=np.result_type(q, k, v))
    for r0 in range(0, n, _PANEL_ROWS):
        r1 = min(r0 + _PANEL_ROWS, n)
        scores = q[r0:r1] @ k[:r1].T
        np.copyto(scores[:, r0:], -np.inf, where=_strict_upper(r1 - r0))
        scores -= scores.max(axis=1, keepdims=True)  # finite: the diagonal is allowed
        p = np.exp(scores, out=scores)
        out[r0:r1] = (p @ v[:r1]) / p.sum(axis=1, keepdims=True)
    return out


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


_TILE_CLASSES = np.array([TileClass.SKIP, TileClass.PARTIAL, TileClass.FULL], dtype=object)


def classify_tiles(mask: MaskSpec, tile_q: int, tile_k: int) -> list[list[TileClass]]:
    """Class of every (tile_q x tile_k) tile of the block, row-major."""
    grid_rows, grid_cols = check_tiling(mask.block_rows, mask.block_cols, tile_q, tile_k)
    r0 = np.arange(grid_rows)[:, None] * tile_q
    c0 = np.arange(grid_cols) * tile_k
    # A tile's worst pair is (r0, c1 - 1) and its best (r1 - 1, c0).
    full = c0 + tile_k - 1 <= r0 + mask.diagonal
    live = c0 <= r0 + tile_q - 1 + mask.diagonal
    return _TILE_CLASSES[live.astype(np.intp) + full].tolist()


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
    d = mask.diagonal
    if d <= -mask.block_rows:
        return TileCensus(0, 0, total)
    if d >= mask.block_cols - 1:
        return TileCensus(total, 0, 0)
    # Between those two lines d is 0 or -1, so neither floor is negative.
    r0 = np.arange(grid_rows, dtype=np.int64) * tile_q
    full = (r0 + d + 1) // tile_k                   # tiles with c1 - 1 <= r0 + d
    first_skip = (r0 + tile_q - 1 + d) // tile_k + 1  # first tj with c0 > r1 - 1 + d
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
    def fresh(
        cls, rows: int | tuple[int, ...], cols: int, dtype=np.float64
    ) -> "SoftmaxAccumulator":
        """Empty state for ``rows`` query rows, or a shape such as (devices, rows)."""
        shape = rows if isinstance(rows, tuple) else (rows,)
        if min(shape) < 1 or cols < 1:
            raise ValueError(f"accumulator must be non-empty, got {rows}x{cols}")
        return cls(
            acc=np.zeros(shape + (cols,), dtype=dtype),
            m=np.full(shape, -np.inf, dtype=dtype),
            l=np.zeros(shape, dtype=dtype),
        )

    def rows(self, start: int, stop: int) -> "SoftmaxAccumulator":
        """View onto a range of the row axis; updates through it hit this accumulator."""
        return SoftmaxAccumulator(
            self.acc[..., start:stop, :], self.m[..., start:stop], self.l[..., start:stop]
        )

    def devices(self, start: int, stop: int) -> "SoftmaxAccumulator":
        """View onto a range of the leading (device) axis of a stacked state."""
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
                    sub = SoftmaxAccumulator(state.acc[live], state.m[live], state.l[live])
                    _fold(sub, scores[live], v_tile)
                    state.acc[live], state.m[live], state.l[live] = sub.acc, sub.m, sub.l
                return state
    _fold(state, scores, v_tile)
    return state


def accumulate_causal_rows(
    state: SoftmaxAccumulator, q_rows, k_keys, v_keys, diagonal: int
) -> SoftmaxAccumulator:
    """Fold keys into rows where local row i sees keys ``y <= i + diagonal``.

    ``diagonal >= 0``, so every row sees key 0 and no row is dead, and the
    keys must end where the last row's do (``diagonal + rows``) or sooner.
    Keys [0, diagonal] are allowed for every row; past them only the
    square starting at column ``diagonal`` is masked, above its main
    diagonal, through a cached triangle. Leading axes (devices) of the
    state, rows and keys are folded slice by slice, in one call.
    Mutates and returns ``state``.
    """
    rows, width = q_rows.shape[-2], k_keys.shape[-2]
    if diagonal < 0 or width > diagonal + rows:
        raise ValueError(
            f"rows see keys y <= i + diagonal: diagonal={diagonal} and {rows} rows "
            f"allow at most {diagonal + rows} keys, got {width}"
        )
    scores = q_rows @ k_keys.swapaxes(-1, -2)
    if diagonal + 1 < width:
        np.copyto(
            scores[..., diagonal:], -np.inf, where=_strict_upper(rows)[:, : width - diagonal]
        )
    _fold(state, scores, v_keys)
    return state


def _fold(state, scores, v_tile):
    """Fold ``scores`` (a work array, overwritten) into ``state``; keys on axis -1.

    The state's arrays are updated in place, so views fold into the arrays
    they view.
    """
    m_new = np.maximum(state.m, scores.max(axis=-1))
    carry = np.exp(state.m - m_new)  # exp(-inf - finite) == 0: no prior mass
    scores -= m_new[..., None]
    p = np.exp(scores, out=scores)  # masked scores are -inf, exp gives 0
    state.acc *= carry[..., None]
    state.acc += p @ v_tile
    state.l *= carry
    state.l += p.sum(axis=-1)
    state.m[...] = m_new


def finalize(state: SoftmaxAccumulator) -> np.ndarray:
    """Normalize the accumulated output; every row must have attended."""
    dead = np.argwhere(state.l == 0)
    if dead.size:
        where = ", ".join(str(i) for i in dead[0])
        raise ValueError(f"query row attended no keys (first dead row: {where})")
    return state.acc / state.l[..., None]
