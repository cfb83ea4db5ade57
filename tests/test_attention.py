import itertools

import numpy as np
import pytest

from ringsim import attention
from ringsim.attention import (
    MaskKind,
    MaskSpec,
    SoftmaxAccumulator,
    TileClass,
    accumulate_causal_rows,
    accumulate_tile,
    check_sequence,
    classify_tiles,
    finalize,
    get_mask_ring,
    get_mask_striped,
    oracle_causal_attention,
    tile_census,
)

from helpers import dense_causal_reference


# ---------------------------------------------------------------------------
# dense reference (the oracle)
# ---------------------------------------------------------------------------


def test_oracle_single_token_returns_value_row():
    q = np.array([[3.0, -1.0]])
    k = np.array([[0.5, 2.0]])
    v = np.array([[7.0, 8.0, 9.0]])
    out = oracle_causal_attention(q, k, v)
    np.testing.assert_array_equal(out, v)


def test_oracle_uniform_weights_when_scores_are_zero():
    # Q of zeros makes every score 0, so each row averages its visible values.
    q = np.zeros((2, 3))
    k = np.ones((2, 3))
    v = np.array([[2.0, 0.0], [0.0, 4.0]])
    out = oracle_causal_attention(q, k, v)
    np.testing.assert_allclose(out[0], v[0], atol=0)
    np.testing.assert_allclose(out[1], (v[0] + v[1]) / 2, atol=1e-15)


def test_oracle_matches_independent_dense_reference():
    rng = np.random.default_rng(42)
    q, k, v = (rng.standard_normal((8, 5)) for _ in range(3))
    got = oracle_causal_attention(q, k, v)
    want = dense_causal_reference(q, k, v)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_oracle_scale_flag():
    rng = np.random.default_rng(7)
    q, k, v = (rng.standard_normal((6, 4)) for _ in range(3))
    got = oracle_causal_attention(q, k, v, scale=True)
    want = dense_causal_reference(q, k, v, scale=True)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_oracle_panels_match_independent_dense_reference():
    # One full panel and a one-row panel that meets every key before it.
    n = attention._PANEL_ROWS + 1
    rng = np.random.default_rng(11)
    q, k, v = (rng.standard_normal((n, 2)) for _ in range(3))
    got = oracle_causal_attention(q, k, v)
    want = dense_causal_reference(q, k, v)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_oracle_rejects_bad_inputs():
    q = np.zeros((4, 3))
    with pytest.raises(ValueError):
        oracle_causal_attention(q, np.zeros((5, 3)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        oracle_causal_attention(q, np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        oracle_causal_attention(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
    bad = q.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        oracle_causal_attention(bad, q, q)


def test_check_sequence_names_float32_overflow():
    big = np.array([[1.0, 1e300]])
    with pytest.raises(ValueError, match="Q has finite entries beyond the float32 range"):
        check_sequence("Q", big, dtype=np.float32)
    assert check_sequence("Q", big).dtype == np.float64  # in range for float64
    edge = np.array([[float(np.finfo(np.float32).max)]])
    assert np.isfinite(check_sequence("Q", edge, dtype=np.float32)).all()
    with pytest.raises(ValueError, match="non-finite"):
        check_sequence("Q", np.array([[np.inf]]), dtype=np.float32)


@pytest.mark.parametrize("which", range(3))
def test_oracle_rejects_complex_inputs(which):
    inputs = [np.ones((4, 3)) for _ in range(3)]
    inputs[which] = inputs[which] * (1 + 5j)
    with pytest.raises(ValueError, match="must be real"):
        oracle_causal_attention(*inputs)


def test_dense_weights_are_normalized_and_causal():
    # Reconstruct the attention weights the oracle implies and check each row
    # sums to 1 with exact zeros above the diagonal.
    rng = np.random.default_rng(3)
    q, k = rng.standard_normal((10, 4)), rng.standard_normal((10, 4))
    scores = q @ k.T
    scores[~np.tril(np.ones((10, 10), dtype=bool))] = -np.inf
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(np.triu(weights, k=1), np.zeros((10, 10)))


# ---------------------------------------------------------------------------
# block masks
# ---------------------------------------------------------------------------


def test_ring_mask_examples():
    assert get_mask_ring(1, 3, 4).kind is MaskKind.FULLY_MASKED
    assert get_mask_ring(3, 1, 4).kind is MaskKind.FULLY_UNMASKED
    diag = get_mask_ring(2, 2, 2)
    assert diag.kind is MaskKind.CAUSAL_INCLUSIVE
    np.testing.assert_array_equal(diag.allowed_block(), [[True, False], [True, True]])


def test_striped_mask_examples():
    # queries at original positions 1,5,9 vs keys at 3,7,11 (N=4)
    above = get_mask_striped(1, 3, 3)
    assert above.kind is MaskKind.CAUSAL_EXCLUSIVE
    np.testing.assert_array_equal(
        above.allowed_block(), [[False, False, False], [True, False, False], [True, True, False]]
    )
    # queries at 3,7,11 vs keys at 1,5,9
    below = get_mask_striped(3, 1, 3)
    assert below.kind is MaskKind.CAUSAL_INCLUSIVE
    np.testing.assert_array_equal(
        below.allowed_block(), [[True, False, False], [True, True, False], [True, True, True]]
    )
    for j in range(4):
        assert get_mask_striped(j, j, 5).kind is MaskKind.CAUSAL_INCLUSIVE


def test_mask_index_range_checks():
    with pytest.raises(ValueError):
        get_mask_ring(-1, 0, 4)
    with pytest.raises(ValueError):
        get_mask_ring(1, 4, 4, n_devices=4)
    with pytest.raises(ValueError):
        get_mask_striped(0, 0, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("c", [1, 2, 3, 5])
def test_masks_match_position_arithmetic_exhaustively(n, c):
    x = np.arange(c)[:, None]
    y = np.arange(c)[None, :]
    for j in range(n):
        for k in range(n):
            want_ring = (k * c + y) <= (j * c + x)
            want_striped = (k + y * n) <= (j + x * n)
            np.testing.assert_array_equal(
                get_mask_ring(j, k, c, n_devices=n).allowed_block(), want_ring
            )
            np.testing.assert_array_equal(
                get_mask_striped(j, k, c, n_devices=n).allowed_block(), want_striped
            )


# ---------------------------------------------------------------------------
# tile classification
# ---------------------------------------------------------------------------


def test_classify_tiles_large_causal_block():
    grid = classify_tiles(MaskSpec(MaskKind.CAUSAL_INCLUSIVE, 1536, 1536), 512, 512)
    flat = [cls for row in grid for cls in row]
    assert flat.count(TileClass.FULL) == 3
    assert flat.count(TileClass.PARTIAL) == 3
    assert flat.count(TileClass.SKIP) == 3


def test_classify_tiles_trivial_cases():
    unmasked = classify_tiles(MaskSpec(MaskKind.FULLY_UNMASKED, 6, 4), 3, 2)
    assert all(cls is TileClass.FULL for row in unmasked for cls in row)
    exclusive = classify_tiles(MaskSpec(MaskKind.CAUSAL_EXCLUSIVE, 2, 2), 1, 1)
    assert exclusive == [[TileClass.SKIP, TileClass.SKIP], [TileClass.FULL, TileClass.SKIP]]


def test_classify_tiles_rejects_ragged_tiling():
    mask = MaskSpec(MaskKind.CAUSAL_INCLUSIVE, 8, 8)
    with pytest.raises(ValueError, match="block_rows"):
        classify_tiles(mask, 3, 2)
    with pytest.raises(ValueError, match="block_cols"):
        classify_tiles(mask, 2, 3)


@pytest.mark.parametrize("kind", list(MaskKind))
@pytest.mark.parametrize("rows,cols", [(8, 8), (16, 48), (64, 64), (30, 12)])
def test_tile_conservation_against_enumeration(kind, rows, cols):
    mask = MaskSpec(kind, rows, cols)
    dense = mask.allowed_block()
    tilings = [
        (tq, tk)
        for tq, tk in itertools.product((1, 2, 5, rows), (1, 3, 4, cols))
        if rows % tq == 0 and cols % tk == 0
    ]
    for tq, tk in tilings:
        grid = classify_tiles(mask, tq, tk)
        census = tile_census(mask, tq, tk)
        counts = dict.fromkeys(TileClass, 0)
        for ti, grid_row in enumerate(grid):
            for tj, cls in enumerate(grid_row):
                counts[cls] += 1
                tile = dense[ti * tq:(ti + 1) * tq, tj * tk:(tj + 1) * tk]
                if cls is TileClass.SKIP:
                    assert not tile.any()
                elif cls is TileClass.FULL:
                    assert tile.all()
                else:
                    assert tile.any() and not tile.all()
                assert mask.count_allowed(ti * tq, (ti + 1) * tq, tj * tk, (tj + 1) * tk) == int(
                    tile.sum()
                )
        assert census.n_full == counts[TileClass.FULL]
        assert census.n_partial == counts[TileClass.PARTIAL]
        assert census.n_skip == counts[TileClass.SKIP]
        assert census.n_total * tq * tk == rows * cols
    assert mask.count_allowed() == int(dense.sum())


# ---------------------------------------------------------------------------
# streaming softmax accumulation
# ---------------------------------------------------------------------------


def _causal_inputs(n, d, d_v, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n, d)),
        rng.standard_normal((n, d)),
        rng.standard_normal((n, d_v)),
    )


def test_one_shot_accumulation_equals_oracle():
    q, k, v = _causal_inputs(12, 6, 4, 0)
    mask = MaskSpec(MaskKind.CAUSAL_INCLUSIVE, 12, 12)
    state = SoftmaxAccumulator.fresh(12, 4)
    accumulate_tile(state, q, k, v, mask.allowed_block())
    got = finalize(state)
    want = oracle_causal_attention(q, k, v)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize(
    "splits",
    [
        [(0, 16)],
        [(0, 4), (4, 16)],
        [(0, 4), (4, 8), (8, 16)],
        [(8, 16), (0, 8)],
        [(12, 16), (4, 12), (0, 4)],
        [(0, 2), (14, 16), (2, 14)],
    ],
)
def test_streaming_is_invariant_to_key_partition_and_order(splits):
    q, k, v = _causal_inputs(16, 5, 3, 9)
    mask = MaskSpec(MaskKind.CAUSAL_INCLUSIVE, 16, 16)
    state = SoftmaxAccumulator.fresh(16, 3)
    for c0, c1 in splits:
        accumulate_tile(state, q, k[c0:c1], v[c0:c1], mask.allowed_block(0, 16, c0, c1))
    got = finalize(state)
    want = oracle_causal_attention(q, k, v)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_fully_masked_rows_stay_untouched_bitwise():
    q, k, v = _causal_inputs(6, 4, 2, 5)
    mask = MaskSpec(MaskKind.CAUSAL_INCLUSIVE, 6, 6)
    state = SoftmaxAccumulator.fresh(6, 2)
    accumulate_tile(state, q, k[:3], v[:3], mask.allowed_block(0, 6, 0, 3))
    before = (state.acc.copy(), state.m.copy(), state.l.copy())
    # keys 4..6: rows 0..3 are entirely masked there (y in {4,5} > x)
    allowed = mask.allowed_block(0, 6, 4, 6)
    assert not allowed[:4].any()
    accumulate_tile(state, q, k[4:6], v[4:6], allowed)
    assert state.acc[:4].tobytes() == before[0][:4].tobytes()
    assert state.m[:4].tobytes() == before[1][:4].tobytes()
    assert state.l[:4].tobytes() == before[2][:4].tobytes()
    # the live rows did change
    assert state.l[4:].tobytes() != before[2][4:].tobytes()


@pytest.mark.parametrize("diagonal", [0, 1, 5, 9])
def test_causal_rows_equal_masked_tile(diagonal):
    # Row i sees keys y <= i + diagonal: the same fold, bit for bit, as an
    # explicit mask over the same keys.
    rows = 6
    width = min(diagonal + rows, 10)
    q, k, v = _causal_inputs(10, 4, 3, diagonal)
    allowed = np.arange(width) <= np.arange(rows)[:, None] + diagonal
    want = accumulate_tile(SoftmaxAccumulator.fresh(rows, 3), q[:rows], k[:width], v[:width], allowed)
    got = accumulate_causal_rows(
        SoftmaxAccumulator.fresh(rows, 3), q[:rows], k[:width], v[:width], diagonal
    )
    for name in ("acc", "m", "l"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("diagonal", [0, 3])
def test_stacked_devices_fold_as_if_alone(diagonal):
    # One call over a (devices, rows, d) stack must give each device the
    # bytes it gets from its own 2-D call, through to finalize.
    rng = np.random.default_rng(diagonal)
    q, k, v = (rng.standard_normal((3, 8, 4)) for _ in range(3))
    width = diagonal + 5
    stacked = SoftmaxAccumulator.fresh((3, 5), 4)
    accumulate_causal_rows(stacked, q[:, :5], k[:, :width], v[:, :width], diagonal)
    for dev in range(3):
        alone = SoftmaxAccumulator.fresh(5, 4)
        accumulate_causal_rows(alone, q[dev, :5], k[dev, :width], v[dev, :width], diagonal)
        assert finalize(stacked)[dev].tobytes() == finalize(alone).tobytes()
        assert stacked.devices(dev, dev + 1).m[0].tobytes() == alone.m.tobytes()
    stacked.l[1] = 0.0
    with pytest.raises(ValueError, match=r"first dead row: 1, 0\)"):
        finalize(stacked)


def _fold_out_of_place(state, scores, v, rows=slice(None)):
    """The fold as a formula on copies of ``state``, rows ``rows`` folded.

    The reference for the in-place fold: the same operations in the same
    order, each writing a new array.
    """
    acc, m, l = state.acc.copy(), state.m.copy(), state.l.copy()
    m_new = np.maximum(m[rows], scores.max(axis=-1))
    carry = np.exp(m[rows] - m_new)
    p = np.exp(scores - m_new[..., None])
    acc[rows] = acc[rows] * carry[..., None] + p @ v
    l[rows] = l[rows] * carry + p.sum(axis=-1)
    m[rows] = m_new
    return acc, m, l


def _assert_state_bytes(state, want):
    for name, arr in zip(("acc", "m", "l"), want):
        assert getattr(state, name).tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_in_place_fold_equals_out_of_place_formula(dtype):
    # Row views of a stacked (g, rows) state are folded twice, so the carry
    # meets fresh rows (-inf maximum) and rows with prior mass.
    rng = np.random.default_rng(11)
    g, rows, d, d_v = 3, 10, 4, 5
    state = SoftmaxAccumulator.fresh((g, rows), d_v, dtype)
    r0, r1, diagonal = 2, 8, 2
    width = r1 - r0 + diagonal
    above = np.arange(width) > np.arange(r1 - r0)[:, None] + diagonal
    for _ in range(2):
        q, k, v = (rng.standard_normal((g, n, w)).astype(dtype)
                   for n, w in ((r1 - r0, d), (width, d), (width, d_v)))
        view = state.rows(r0, r1)
        scores = q @ k.swapaxes(-1, -2)
        scores[:, above] = -np.inf
        want = _fold_out_of_place(view, scores, v)
        accumulate_causal_rows(view, q, k, v, diagonal)
        _assert_state_bytes(view, want)
    assert np.isneginf(state.m[:, :r0]).all() and np.isneginf(state.m[:, r1:]).all()
    assert not state.l[:, :r0].any() and not state.l[:, r1:].any()

    # accumulate_tile on one device's rows: unmasked, then with dead rows 0
    # and 1, which its gathered sub-state must leave as they were.
    allowed = np.arange(width) <= np.arange(r1 - r0)[:, None] - 2
    live = allowed.any(axis=1)
    for dev in range(g):
        tile = SoftmaxAccumulator(state.acc[dev], state.m[dev], state.l[dev]).rows(r0, r1)
        for mask in (None, allowed):
            q, k, v = (rng.standard_normal((n, w)).astype(dtype)
                       for n, w in ((r1 - r0, d), (width, d), (width, d_v)))
            scores = q @ k.T
            if mask is None:
                want = _fold_out_of_place(tile, scores, v)
            else:
                scores[~mask] = -np.inf
                want = _fold_out_of_place(tile, scores[live], v, rows=live)
            accumulate_tile(tile, q, k, v, mask)
            _assert_state_bytes(tile, want)


def test_causal_rows_reject_dead_rows_and_unseen_keys():
    q, k, v = _causal_inputs(8, 3, 2, 4)
    state = SoftmaxAccumulator.fresh(4, 2)
    with pytest.raises(ValueError, match="diagonal=-1"):
        accumulate_causal_rows(state, q[:4], k[:3], v[:3], -1)
    with pytest.raises(ValueError, match="at most 6 keys, got 7"):
        accumulate_causal_rows(state, q[:4], k[:7], v[:7], 2)


def test_finalize_divides_by_row_sums():
    state = SoftmaxAccumulator(
        acc=np.array([[2.0, 4.0]]), m=np.array([0.0]), l=np.array([2.0])
    )
    np.testing.assert_array_equal(finalize(state), [[1.0, 2.0]])


def test_finalize_rejects_fresh_state():
    with pytest.raises(ValueError, match="attended no keys"):
        finalize(SoftmaxAccumulator.fresh(3, 2))


def test_accumulate_rejects_wrong_mask_shape():
    q, k, v = _causal_inputs(4, 3, 2, 1)
    state = SoftmaxAccumulator.fresh(4, 2)
    with pytest.raises(ValueError):
        accumulate_tile(state, q, k, v, np.ones((3, 4), dtype=bool))


def test_streaming_is_stable_for_extreme_scores():
    # dot products span [-1e4, 1e4]; nothing may overflow to inf or NaN
    rng = np.random.default_rng(2)
    q = rng.uniform(-100.0, 100.0, (8, 1))
    k = rng.uniform(-100.0, 100.0, (8, 1))
    v = rng.standard_normal((8, 3))
    assert np.abs(q @ k.T).max() <= 1e4
    mask = MaskSpec(MaskKind.CAUSAL_INCLUSIVE, 8, 8)
    state = SoftmaxAccumulator.fresh(8, 3)
    for c0 in range(0, 8, 2):
        accumulate_tile(state, q, k[c0:c0 + 2], v[c0:c0 + 2], mask.allowed_block(0, 8, c0, c0 + 2))
        assert np.isfinite(state.acc).all()
        assert np.isfinite(state.l).all()
    got = finalize(state)
    want = dense_causal_reference(q, k, v)
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - want)) <= 1e-12
