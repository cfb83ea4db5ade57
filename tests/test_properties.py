"""Property tests: random ring sizes, block sizes, tilings and layouts
against the dense oracle and the tile-by-tile enumeration of work, and
random sub-rectangles of every mask kind against position arithmetic."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ringsim.attention import (  # noqa: E402
    MaskKind,
    MaskSpec,
    TileClass,
    classify_tiles,
    tile_census,
)
from ringsim.costmodel import PRESETS, TmsQuery, tms  # noqa: E402
from ringsim import simulator  # noqa: E402
from ringsim.layout import Layout  # noqa: E402
from ringsim.simulator import (  # noqa: E402
    ORACLE_TOLERANCE,
    Algo,
    SimConfig,
    critical_path_required,
    oracle_error,
    random_qkv,
    round_critical_path,
    schedule_work_stats,
    simulate,
    simulated_speedup,
)

from helpers import enumerated_work_stats  # noqa: E402

EXACT_TOL = 1e-9
# Derandomized and database-free, so every run checks the same examples.
BOUNDED = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def schedules(draw, max_seq):
    """(algo, N, block size, tile_q, tile_k) with N in [2, 16], N * c <= max_seq."""
    n = draw(st.integers(2, 16))
    c = draw(st.integers(1, max_seq // n))
    divisors = [t for t in range(1, c + 1) if c % t == 0]
    return (
        draw(st.sampled_from(list(Algo))),
        n,
        c,
        draw(st.sampled_from(divisors)),
        draw(st.sampled_from(divisors)),
    )


@BOUNDED
@given(schedules(max_seq=128))
def test_closed_form_stats_equal_enumeration(schedule):
    assert schedule_work_stats(*schedule) == enumerated_work_stats(*schedule)


@BOUNDED
@given(schedules(max_seq=512))
def test_required_interactions_cover_the_triangle(schedule):
    _, n, c, _, _ = schedule
    stats = schedule_work_stats(*schedule)
    n_seq = n * c
    assert sum(rs.interactions_required for ws in stats for rs in ws.rounds) == (
        n_seq * (n_seq + 1) // 2
    )


@BOUNDED
@given(st.sampled_from(list(Algo)), st.integers(2, 16), st.integers(1, 64))
def test_critical_path_required_equals_round_sum(algo, n, c):
    stats = schedule_work_stats(algo, n, c, 1, 1)
    assert critical_path_required(algo, n, c) == sum(
        round_critical_path(stats, i) for i in range(n)
    )


@BOUNDED
@given(st.integers(2, 16), st.integers(1, 64))
def test_tms_without_other_flops_is_the_simulated_speedup(n, c):
    # With only attention FLOPs left, the cost model's speedup is the
    # simulator's counted one at 1x1 tiles.
    counted = simulated_speedup(
        schedule_work_stats(Algo.RING, n, c, 1, 1), schedule_work_stats(Algo.STRIPED, n, c, 1, 1)
    )
    ratio = critical_path_required(Algo.RING, n, c) / critical_path_required(Algo.STRIPED, n, c)
    assert ratio == counted
    with mock.patch("ringsim.costmodel.non_attention_flops_per_token", return_value=0.0):
        modelled = tms(TmsQuery(PRESETS["1b"], n * c, n, 1.0))
    assert modelled == pytest.approx(counted, rel=1e-12)


def _raw_mask(kind, rows, cols):
    """Allowed pairs of a block from position arithmetic alone."""
    x = np.arange(rows)[:, None]
    y = np.arange(cols)[None, :]
    return {
        MaskKind.FULLY_MASKED: np.zeros((rows, cols), dtype=bool),
        MaskKind.FULLY_UNMASKED: np.ones((rows, cols), dtype=bool),
        MaskKind.CAUSAL_INCLUSIVE: y <= x,
        MaskKind.CAUSAL_EXCLUSIVE: y < x,
    }[kind]


@st.composite
def sub_rectangles(draw):
    """(kind, rows, cols, r0, r1, c0, c1): any sub-rectangle of a non-square block."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    r0 = draw(st.integers(0, rows - 1))
    c0 = draw(st.integers(0, cols - 1))
    return (
        draw(st.sampled_from(list(MaskKind))),
        rows,
        cols,
        r0,
        draw(st.integers(r0 + 1, rows)),
        c0,
        draw(st.integers(c0 + 1, cols)),
    )


@settings(BOUNDED, max_examples=200)
@given(sub_rectangles())
def test_mask_sub_rectangles_match_position_arithmetic(rect):
    # The fold slices slabs [r0, r1) x [0, width) that are not tile-aligned.
    kind, rows, cols, r0, r1, c0, c1 = rect
    mask = MaskSpec(kind, rows, cols)
    want = _raw_mask(kind, rows, cols)[r0:r1, c0:c1]
    assert np.array_equal(mask.allowed_block(r0, r1, c0, c1), want)
    assert mask.count_allowed(r0, r1, c0, c1) == want.sum()


@BOUNDED
@given(st.sampled_from(list(MaskKind)), st.integers(1, 48), st.integers(1, 48), st.data())
def test_tile_classes_match_dense_tile_sums(kind, rows, cols, data):
    tile_q = data.draw(st.sampled_from([t for t in range(1, rows + 1) if rows % t == 0]))
    tile_k = data.draw(st.sampled_from([t for t in range(1, cols + 1) if cols % t == 0]))
    mask = MaskSpec(kind, rows, cols)
    sums = _raw_mask(kind, rows, cols).reshape(
        rows // tile_q, tile_q, cols // tile_k, tile_k
    ).sum(axis=(1, 3))
    full = np.where(sums == tile_q * tile_k, TileClass.FULL, TileClass.PARTIAL)
    want = np.where(sums == 0, TileClass.SKIP, full)
    assert classify_tiles(mask, tile_q, tile_k) == want.tolist()
    census = tile_census(mask, tile_q, tile_k)
    assert (census.n_full, census.n_partial, census.n_skip) == tuple(
        int((want == cls).sum()) for cls in (TileClass.FULL, TileClass.PARTIAL, TileClass.SKIP)
    )


@BOUNDED
@given(schedules(max_seq=64), st.integers(0, 2**16))
def test_simulate_matches_oracle(schedule, seed):
    algo, n, c, tile_q, tile_k = schedule
    config = SimConfig(
        algo=algo, n_devices=n, n_seq=n * c, d_head=4, tile_q=tile_q, tile_k=tile_k, seed=seed
    )
    assert oracle_error(simulate(config)) <= EXACT_TOL


_CHUNK = simulator._CHUNK_ROWS
# The serial executor folds max(1, budget // (min(c, _CHUNK) * c)) devices
# per call. The test lowers the budget to a quarter, so the edges of the
# rule fall at small blocks: c = 32 folds 16 devices per call (every range
# whole), 64 folds 4, 65 folds 3 and 128 folds 2 (each in two row chunks),
# and 129 folds one device per call in three chunks.
SMALL_BUDGET = 4 * _CHUNK * _CHUNK
GROUP_EDGES = (_CHUNK // 2, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1)


@settings(BOUNDED, max_examples=30)
@given(
    st.sampled_from(list(Algo)),
    st.integers(2, 8),
    st.sampled_from(GROUP_EDGES),
    st.sampled_from(["double", "single"]),
    st.integers(0, 2**16),
)
# Every range in one call.
@example(Algo.STRIPED, 8, _CHUNK // 2, "double", 1)
# Ragged last groups: 6 devices in groups of 4, 5 in groups of 3.
@example(Algo.STRIPED, 6, _CHUNK, "double", 2)
@example(Algo.RING, 5, _CHUNK + 1, "single", 3)
# One device per call.
@example(Algo.STRIPED, 3, 2 * _CHUNK + 1, "single", 4)
# Blocks of two row chunks, several devices per call.
@example(Algo.RING, 8, 2 * _CHUNK, "double", 5)
@example(Algo.STRIPED, 7, _CHUNK + 1, "double", 6)
def test_grouped_serial_fold_equals_threads_and_oracle(algo, n, c, precision, seed):
    # Serial folds a group of devices per call, threads one: the bytes
    # must not depend on the grouping.
    base = dict(algo=algo, n_devices=n, n_seq=n * c, d_head=4, tile_q=c, tile_k=c, seed=seed,
                precision=precision)
    with mock.patch.object(simulator, "_CALL_SCORES", SMALL_BUDGET):
        serial = simulate(SimConfig(**base))
    threaded = simulate(SimConfig(executor="threads", **base))
    assert serial.output.tobytes() == threaded.output.tobytes()
    assert oracle_error(serial) <= ORACLE_TOLERANCE[precision]


@BOUNDED
@given(sub_rectangles(), st.integers(1, 4), st.integers(1, 4))
def test_count_allowed_over_a_grid_equals_scalar_calls(rect, n_rows, n_cols):
    # Array bounds broadcast to one count per sub-rectangle; each must
    # equal the exact scalar count of the same rectangle.
    kind, rows, cols, r0, r1, c0, c1 = rect
    mask = MaskSpec(kind, rows, cols)
    r_lo = np.minimum(np.arange(n_rows) + r0, r1 - 1)[:, None]
    c_lo = np.minimum(np.arange(n_cols) + c0, c1 - 1)
    got = mask.count_allowed(r_lo, r1, c_lo, c1)
    want = [[mask.count_allowed(int(a), r1, int(b), c1) for b in c_lo] for a in r_lo[:, 0]]
    assert got.tolist() == want
    with pytest.raises(ValueError, match="out of range"):
        mask.count_allowed(r_lo, r1, c_lo, np.append(c_lo[1:] + 1, cols + 1))


@BOUNDED
@given(
    st.sampled_from(list(Algo)), st.integers(2, 16), st.integers(1, 16), st.integers(1, 3)
)
def test_gather_inverts_partition(scheme, n, c, width):
    layout = Layout(scheme, n * c, n)
    rng = np.random.default_rng(n * c)
    q, k, v = (rng.standard_normal((n * c, width)) for _ in range(3))
    batch = layout.partition(q, k, v)
    assert np.array_equal(layout.gather([sh.q for sh in batch.shards]), q)
    assert np.array_equal(layout.gather([sh.k for sh in batch.shards]), k)
    assert np.array_equal(layout.gather([sh.v for sh in batch.shards]), v)


@pytest.mark.parametrize("algo", list(Algo))
def test_large_logits_stay_exact(algo):
    # Scores scaled by 1e3 make the softmax nearly one-hot; the running
    # maximum must keep the streamed result within the double gate.
    config = SimConfig(algo=algo, n_devices=8, n_seq=256, d_head=8, tile_q=4, tile_k=4, seed=1)
    q, k, v = random_qkv(256, 8, 1)
    assert oracle_error(simulate(config, (q * 1e3, k, v))) <= EXACT_TOL
