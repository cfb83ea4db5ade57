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
    ``dtype`` casts to that float type before the checks; the cast raises
    on overflow, so a finite entry beyond its range (1e300 to float32, from
    a float or an object array) is refused, not made inf. By default
    float32 and float64 pass through and anything else becomes float64.
    """
    arr = check_array(name, x, (None, None))
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    if dtype is None:
        dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
    if arr.dtype != dtype:  # most calls cast nothing, and errstate costs 0.6 µs a call
        try:  # an object array may hold values no float can take
            with np.errstate(over="raise"):
                arr = arr.astype(dtype)
        except FloatingPointError:
            raise ValueError(
                f"{name} has finite entries beyond the {np.dtype(dtype).name} range "
                f"(|x| > {np.finfo(dtype).max:.4g}); casting would overflow them to inf"
            ) from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name} must be real numbers: {exc}") from None
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {tuple(arr.shape)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_array(name: str, x, shape: tuple, dtype=None) -> np.ndarray:
    """``x`` as an array of ``shape``, ``None`` matching any size, and of ``dtype`` if given."""
    if type(x) is np.ndarray and x.shape == shape and (dtype is None or x.dtype == dtype):
        return x  # the common case: every size fixed and already met
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # a ragged nesting of sequences
        raise ValueError(f"{name} is not one array: {exc}") from None
    fits = len(arr.shape) == len(shape)
    for size, want in zip(arr.shape, shape):  # a loop: any() over a generator costs 2x
        if want is not None and size != want:
            fits = False
    if not fits:
        expected = ", ".join("*" if want is None else str(want) for want in shape)
        raise ValueError(f"{name} shape {arr.shape} does not match ({expected})")
    if dtype is not None and arr.dtype != dtype:
        raise ValueError(f"{name} is {arr.dtype}, expected {np.dtype(dtype)}")
    return arr


class MaskKind(enum.Enum):
    FULLY_MASKED = "fully_masked"          # no pair allowed
    FULLY_UNMASKED = "fully_unmasked"      # every pair allowed
    CAUSAL_INCLUSIVE = "causal_inclusive"  # allowed iff y <= x
    CAUSAL_EXCLUSIVE = "causal_exclusive"  # allowed iff y < x


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
    mask. The sizes must be integers of at least 1 (``check_integer``)
    and are stored as ``int``.
    """

    kind: MaskKind
    block_rows: int
    block_cols: int
    diagonal: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("block_rows", "block_cols"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))
        diagonal = _DIAGONAL[self.kind](self.block_rows, self.block_cols)
        object.__setattr__(self, "diagonal", diagonal)

    def allowed_block(self) -> np.ndarray:
        """Boolean (rows, cols) matrix of the block's allowed pairs."""
        d = self.diagonal
        return np.arange(self.block_cols) <= np.arange(d, self.block_rows + d)[:, None]

    def count_allowed(self) -> int:
        """Number of allowed pairs, in closed form.

        Row x allows clip(x + s, 0, cols) keys, with s = diagonal + 1, so
        the block allows G(rows + s) - G(s) pairs, G(z) = sum of
        clip(u, 0, cols) over u < z.
        """
        s, width = self.diagonal + 1, self.block_cols
        return _clipped_prefix_sum(self.block_rows + s, width) - _clipped_prefix_sum(s, width)


def _clipped_prefix_sum(z: int, width: int) -> int:
    """Sum of clip(u, 0, width) over integers u < z."""
    top = max(z - 1, 0)  # u runs over 1 .. top
    m = min(top, width)  # u up to m counts u, the rest count width
    return m * (m + 1) // 2 + (top - m) * width


# Query rows per oracle panel. Panels never build the n x n scores: at
# n = 4096 a panel's float64 scores take 2 MB, and 64 rows ran faster than
# 128, 256 or 512 at n = 1024 and n = 4096 (one BLAS thread).
_PANEL_ROWS = 64
# Query rows per numeric fold (``accumulate_block``): how the host
# computes, not the modelled hardware tile. A triangular chunk also scores
# the masked half of its diagonal square, so fewer rows waste less but pay
# more calls. Medians of run_schedule at 32, 64 and 128 rows (one BLAS
# thread, 2-core VM): striped N=8, n=1024 15.7, 11.4, 13.8 ms (ring 11.0,
# 7.1, 6.7); N=4, n=4096, d=64 striped 89, 81, 89 ms, ring 95, 70, 72 ms.
_CHUNK_ROWS = 64
# Scores per fold call when a call folds a group of devices: what one
# device's chunk already reaches against a 1024-key block, so a call's
# fixed cost is shared by as many devices as fit.
_CALL_SCORES = 64 * 1024


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
    q, k, v = (check_sequence(name, x) for name, x in zip("QKV", (q, k, v)))
    n = q.shape[0]
    check_array("K", k, q.shape)
    check_array("V", v, (n, None))
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


def _check_block_indices(j, k, c, n_devices) -> tuple[int, int]:
    n_devices = check_integer("n_devices", n_devices, 1)
    check_integer("c", c, 1)
    return check_integer("j", j, 0, n_devices), check_integer("k", k, 0, n_devices)


def get_mask_ring(j: int, k: int, c: int, n_devices: int) -> MaskSpec:
    """Block mask for the contiguous layout: query block j vs key block k.

    Every key of an earlier block precedes every query of a later block,
    so off-diagonal blocks are all-or-nothing; only the diagonal block is
    triangular.
    """
    j, k = _check_block_indices(j, k, c, n_devices)
    if k > j:
        kind = MaskKind.FULLY_MASKED
    elif k == j:
        kind = MaskKind.CAUSAL_INCLUSIVE
    else:
        kind = MaskKind.FULLY_UNMASKED
    return MaskSpec(kind, c, c)


def get_mask_striped(j: int, k: int, c: int, n_devices: int) -> MaskSpec:
    """Block mask for the striped layout: query stripe j vs key stripe k.

    Local row x of stripe j sits at original position ``j + x*N`` and
    local column y of stripe k at ``k + y*N``, so the pair is allowed iff
    ``k + y*N <= j + x*N``: a triangle that includes the diagonal when
    k <= j and excludes it when k > j. Every block keeps close to half
    its work, which is what balances the schedule.
    """
    j, k = _check_block_indices(j, k, c, n_devices)
    kind = MaskKind.CAUSAL_INCLUSIVE if k <= j else MaskKind.CAUSAL_EXCLUSIVE
    return MaskSpec(kind, c, c)


def check_integer(name: str, value, least: int | None = None, below: int | None = None) -> int:
    """``value`` as an int in [least, below), each bound optional; a ``bool`` is refused."""
    if type(value) is not int:  # the common case skips this; bool is a subclass, not int
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if below is not None and value >= below:
        raise ValueError(f"{name} must be below {below}, got {value}")
    return value


def _as_dtype(dtype) -> np.dtype:
    try:
        return np.dtype(dtype)
    except TypeError:
        raise ValueError(f"dtype must be a numpy dtype, got {dtype!r}") from None


def check_tiling(block_rows: int, block_cols: int, tile_q: int, tile_k: int) -> tuple[int, int]:
    """Tile-grid shape of a block; each tile side must be an integer dividing the block side."""
    block_rows = check_integer("block_rows", block_rows, 1)
    block_cols = check_integer("block_cols", block_cols, 1)
    tile_q, tile_k = check_integer("tile_q", tile_q, 1), check_integer("tile_k", tile_k, 1)
    if block_rows % tile_q:
        raise ValueError(f"tile_q={tile_q} does not divide block_rows={block_rows}")
    if block_cols % tile_k:
        raise ValueError(f"tile_k={tile_k} does not divide block_cols={block_cols}")
    return block_rows // tile_q, block_cols // tile_k


def _tile_bounds(mask: MaskSpec, tile_q: int, tile_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per tile row: tiles [0, full) are full, [full, skip) partial, the rest skipped.

    A tile is full when its first row sees its last key, and live when its
    last row sees its first key. Clipping to the grid keeps both bounds
    exact for any diagonal, past either corner of the block included
    (with ``np.minimum`` and ``np.maximum``: ``np.clip`` took 3x as long
    on these small arrays, which ``ringsim verify`` meets ~240 times).
    """
    grid_rows, grid_cols = check_tiling(mask.block_rows, mask.block_cols, tile_q, tile_k)
    line = np.arange(grid_rows, dtype=np.int64) * tile_q + mask.diagonal  # first row's last key
    full = np.minimum(np.maximum((line + 1) // tile_k, 0), grid_cols)
    skip = np.minimum(np.maximum((line + tile_q - 1) // tile_k + 1, 0), grid_cols)
    return full, skip


def classify_tiles(mask: MaskSpec, tile_q: int, tile_k: int) -> np.ndarray:
    """Code of every tile: 0 skip (never computed), 1 partial (masked), 2 full."""
    full, skip = _tile_bounds(mask, tile_q, tile_k)
    tj = np.arange(mask.block_cols // tile_k)
    return (tj < skip[:, None]).astype(np.intp) + (tj < full[:, None])


@dataclass(frozen=True)
class TileCensus:
    n_full: int
    n_partial: int
    n_skip: int

    @property
    def n_total(self) -> int:
        return self.n_full + self.n_partial + self.n_skip


def tile_census(mask: MaskSpec, tile_q: int, tile_k: int) -> TileCensus:
    """Tile-class counts from the sums of ``_tile_bounds``, without building the grid."""
    full, skip = _tile_bounds(mask, tile_q, tile_k)
    n_full, n_live = int(full.sum()), int(skip.sum())
    return TileCensus(n_full, n_live - n_full, len(full) * (mask.block_cols // tile_k) - n_live)


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
        """Empty state for ``rows`` query rows, or a shape such as (devices, rows).

        ``dtype`` must be a float type: the running maximum starts at -inf.
        """
        shape = rows if isinstance(rows, tuple) else (rows,)
        shape = tuple(check_integer("rows", size, 1) for size in shape)
        if not shape:
            raise ValueError("rows must be a size or a non-empty shape, got ()")
        dtype = _as_dtype(dtype)
        if dtype.kind != "f":
            raise ValueError(f"dtype must be a float type, got {dtype}")
        cols = check_integer("cols", cols, 1)
        return cls(
            acc=np.zeros(shape + (cols,), dtype=dtype),
            m=np.full(shape, -np.inf, dtype=dtype),
            l=np.zeros(shape, dtype=dtype),
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
    are left untouched, bit for bit. Checks structure, as ``accumulate_block``
    does. Mutates and returns ``state``.
    """
    rows, d_v = check_array("state", state.acc, (None, None)).shape
    dtype = state.acc.dtype
    q_tile = check_array("q_tile", q_tile, (rows, None), dtype)
    k_tile = check_array("k_tile", k_tile, (None, q_tile.shape[1]), dtype)
    if not len(k_tile):
        raise ValueError(f"k_tile must hold at least one key, got shape {k_tile.shape}")
    v_tile = check_array("v_tile", v_tile, (k_tile.shape[0], d_v), dtype)
    scores = q_tile @ k_tile.T
    if allowed is not None:
        allowed = check_array("allowed", allowed, scores.shape, bool)
        if not allowed.all():
            scores[~allowed] = -np.inf
            live = allowed.any(axis=1)
            if not live.all():
                if live.any():
                    acc, m, l = state.acc[live], state.m[live], state.l[live]
                    _fold(acc, m, l, scores[live], v_tile)
                    state.acc[live], state.m[live], state.l[live] = acc, m, l
                return state
    _fold(state.acc, state.m, state.l, scores, v_tile)
    return state


def accumulate_block(
    state: SoftmaxAccumulator, q, k, v, mask: MaskSpec
) -> SoftmaxAccumulator:
    """Fold held key/value blocks into ``state`` where ``mask`` allows it.

    Everything is stacked by device, (g, rows, ...), and all g devices
    share ``mask``. They are folded in groups of as many devices as fit
    ``_CALL_SCORES`` scores per call, and each group in chunks of
    ``_CHUNK_ROWS`` query rows. Row x sees keys y <= x + diagonal, so
    chunks start at row ``max(0, -diagonal)``: a fully masked block is
    skipped whole and an exclusive triangle's dead row 0 is never visited.
    Chunk [r0, r1) meets only the keys its last row sees, all of which up
    to r0 + diagonal every row sees, so ``-inf`` goes only into the square
    after them, through a cached triangle. A triangular block thus costs
    its triangle plus half a chunk square per chunk. The order (groups,
    then chunks) and a stacked product's per-device BLAS call make each
    device's bytes independent of g. Checks structure only, shapes and the
    state's dtype, never values (``check_sequence``). Mutates and returns ``state``.
    """
    rows, cols, d = mask.block_rows, mask.block_cols, mask.diagonal
    dtype = state.acc.dtype
    q = check_array("q", q, (None, rows, None), dtype)
    g = q.shape[0]
    k = check_array("k", k, (g, cols, q.shape[2]), dtype)
    d_v = check_array("state", state.acc, (g, rows, None)).shape[2]
    v = check_array("v", v, (g, cols, d_v), dtype)
    group = max(1, _CALL_SCORES // (min(rows, _CHUNK_ROWS) * cols))
    for a in range(0, g, group):
        b = a + group
        acc, m, l = state.acc[a:b], state.m[a:b], state.l[a:b]
        for r0 in range(max(0, -d), rows, _CHUNK_ROWS):
            r1 = min(r0 + _CHUNK_ROWS, rows)
            width, shared = min(r1 + d, cols), r0 + d  # every row sees keys [0, shared]
            scores = q[a:b, r0:r1] @ k[a:b, :width].swapaxes(-1, -2)
            if shared + 1 < width:
                upper = _strict_upper(r1 - r0)[:, : width - shared]
                np.copyto(scores[..., shared:], -np.inf, where=upper)
            _fold(acc[:, r0:r1], m[:, r0:r1], l[:, r0:r1], scores, v[a:b, :width])
    return state


def _fold(acc, m, l, scores, v_tile):
    """Fold ``scores`` (a work array, overwritten) into one softmax state; keys on axis -1.

    ``acc``, ``m`` and ``l`` are a ``SoftmaxAccumulator``'s three arrays,
    or views of them, and are updated in place. Row max and row sum call
    the ufunc reductions directly: on a few hundred scores the
    ``ndarray.max``/``.sum`` wrappers cost more than the arithmetic. The
    reductions are the ones those wrappers call, so the bytes are the same.
    """
    m_new = np.maximum(m, np.maximum.reduce(scores, axis=-1))
    carry = np.exp(m - m_new)  # exp(-inf - finite) == 0: no prior mass
    scores -= m_new[..., None]
    p = np.exp(scores, out=scores)  # masked scores are -inf, exp gives 0
    acc *= carry[..., None]
    acc += p @ v_tile
    l *= carry
    l += np.add.reduce(p, axis=-1)
    m[...] = m_new


def finalize(state: SoftmaxAccumulator) -> np.ndarray:
    """Normalize the accumulated output; every row must have attended."""
    if not state.l.all():
        where = ", ".join(str(i) for i in np.argwhere(state.l == 0)[0])
        raise ValueError(f"query row attended no keys (first dead row: {where})")
    return state.acc / state.l[..., None]
