"""Property tests: random ring sizes, block sizes, tilings and layouts
against the dense oracle and the tile-by-tile enumeration of work, and
random block shapes and diagonals against position arithmetic, and every
array argument of the boundary, layout and kernel functions against bad
ones."""

import dataclasses
import re
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ringsim.attention import (  # noqa: E402
    MaskKind,
    MaskSpec,
    SoftmaxAccumulator,
    accumulate_block,
    accumulate_tile,
    check_sequence,
    classify_tiles,
    get_mask_ring,
    get_mask_striped,
    oracle_causal_attention,
    tile_census,
)
from ringsim.costmodel import PRESETS, TmsQuery, tms  # noqa: E402
from ringsim import attention, simulator  # noqa: E402
from ringsim.layout import Layout  # noqa: E402
from ringsim.simulator import (  # noqa: E402
    ORACLE_TOLERANCE,
    Algo,
    SimConfig,
    critical_path_required,
    critical_path_sum,
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
def schedules(draw, max_seq, devices=(2, 16)):
    """(algo, N, block size, tile_q, tile_k) with N in ``devices``, N * c <= max_seq."""
    n = draw(st.integers(*devices))
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
@given(schedules(max_seq=160, devices=(17, 32)))
def test_closed_form_stats_equal_enumeration_beyond_the_cached_rings(schedule):
    # Above N = 16 the expansion is built on every call, not cached.
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


def _computed_interactions(mask, tile_q, tile_k):
    """Pairs in the tiles of ``mask`` that hold an allowed pair, from its dense tile sums."""
    rows, cols = mask.block_rows, mask.block_cols
    tiles = mask.allowed_block().reshape(rows // tile_q, tile_q, cols // tile_k, tile_k)
    return int((tiles.sum(axis=(1, 3)) > 0).sum()) * tile_q * tile_k


@BOUNDED
@given(schedules(max_seq=256, devices=(2, 32)))
def test_critical_path_sum_is_own_plus_the_heavier_relation(schedule):
    # Round 0 holds own blocks only; every later round holds a block
    # below the diagonal (k < j) and one above it (k > j), so the
    # heavier of the two sets the round.
    algo, n, c, tile_q, tile_k = schedule
    get_mask = get_mask_ring if algo is Algo.RING else get_mask_striped
    own, below, above = (
        _computed_interactions(get_mask(j, k, c, n), tile_q, tile_k)
        for j, k in ((0, 0), (1, 0), (0, 1))
    )
    assert critical_path_sum(schedule_work_stats(*schedule)) == own + (n - 1) * max(below, above)


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


@settings(BOUNDED, max_examples=200)
@given(
    st.sampled_from(list(MaskKind)), st.integers(1, 40), st.integers(1, 40),
    st.integers(-45, 45),
)
def test_whole_block_masks_match_position_arithmetic(kind, rows, cols, diagonal):
    # Every kind against its own arithmetic, then the same block moved to
    # an arbitrary line y <= x + diagonal, past either corner included:
    # the closed-form count must hold for any line, not only the four a
    # kind sets.
    mask = MaskSpec(kind, rows, cols)
    want = _raw_mask(kind, rows, cols)
    assert np.array_equal(mask.allowed_block(), want)
    assert mask.count_allowed() == want.sum()
    object.__setattr__(mask, "diagonal", diagonal)
    want = np.arange(cols) <= np.arange(rows)[:, None] + diagonal
    assert np.array_equal(mask.allowed_block(), want)
    assert mask.count_allowed() == want.sum()


@BOUNDED
@given(st.sampled_from(list(MaskKind)), st.integers(1, 48), st.integers(1, 48), st.data())
def test_tile_classes_match_dense_tile_sums(kind, rows, cols, data):
    # The kind's own line, then the block moved to a drawn line, past
    # either corner included: codes 0 skip, 1 partial, 2 full per tile.
    tile_q = data.draw(st.sampled_from([t for t in range(1, rows + 1) if rows % t == 0]))
    tile_k = data.draw(st.sampled_from([t for t in range(1, cols + 1) if cols % t == 0]))
    diagonal = data.draw(st.integers(-rows - 2, cols + 1))
    moved = MaskSpec(kind, rows, cols)
    object.__setattr__(moved, "diagonal", diagonal)
    for mask, allowed in (
        (MaskSpec(kind, rows, cols), _raw_mask(kind, rows, cols)),
        (moved, np.arange(cols) <= np.arange(rows)[:, None] + diagonal),
    ):
        sums = allowed.reshape(rows // tile_q, tile_q, cols // tile_k, tile_k).sum(axis=(1, 3))
        want = (sums > 0).astype(np.intp) + (sums == tile_q * tile_k)
        np.testing.assert_array_equal(classify_tiles(mask, tile_q, tile_k), want)
        census = tile_census(mask, tile_q, tile_k)
        assert (census.n_skip, census.n_partial, census.n_full) == tuple(
            np.bincount(want.ravel(), minlength=3)
        )


def _copy(state):
    return SoftmaxAccumulator(state.acc.copy(), state.m.copy(), state.l.copy())


@settings(BOUNDED, max_examples=40)
@given(
    st.sampled_from(list(MaskKind)), st.integers(1, 150), st.integers(1, 150),
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**16),
)
# Three row chunks from row 1, four devices in groups of three.
@example(MaskKind.CAUSAL_EXCLUSIVE, 129, 129, 4, 3, 1)
# Rows past the last key, and keys no row sees.
@example(MaskKind.CAUSAL_INCLUSIVE, 150, 70, 3, 2, 2)
@example(MaskKind.CAUSAL_EXCLUSIVE, 65, 150, 2, 1, 3)
def test_block_fold_matches_masked_tile(kind, rows, cols, g, group, seed):
    # Onto a random prior state, some of whose rows never attended, g
    # devices fold their blocks under one mask, ``group`` devices per call:
    # equal to a per-device masked tile over every key, dead rows left as
    # they were bit for bit, and the bytes of g one-device calls.
    rng = np.random.default_rng(seed)
    mask = MaskSpec(kind, rows, cols)
    q, k = (rng.standard_normal((g, n, 4)) for n in (rows, cols))
    v = rng.standard_normal((g, cols, 3))
    prior = SoftmaxAccumulator.fresh((g, rows), 3)
    never = rng.random((g, rows)) < 0.2
    prior.m[...] = np.where(never, -np.inf, rng.standard_normal((g, rows)))
    prior.l[...] = np.where(never, 0.0, rng.uniform(0.5, 2.0, (g, rows)))
    prior.acc[...] = np.where(never[..., None], 0.0, rng.standard_normal((g, rows, 3)))
    budget = group * min(rows, attention._CHUNK_ROWS) * cols
    with mock.patch.object(attention, "_CALL_SCORES", budget):
        got = accumulate_block(_copy(prior), q, k, v, mask)
        alone = [
            accumulate_block(_copy(prior).devices(j, j + 1), q[j:j + 1], k[j:j + 1],
                             v[j:j + 1], mask)
            for j in range(g)
        ]
    allowed = mask.allowed_block()
    dead = ~allowed.any(axis=1)
    for j in range(g):
        want = SoftmaxAccumulator(prior.acc[j].copy(), prior.m[j].copy(), prior.l[j].copy())
        accumulate_tile(want, q[j], k[j], v[j], allowed)
        for name in ("acc", "m", "l"):
            arr = getattr(got, name)[j]
            np.testing.assert_allclose(arr, getattr(want, name), rtol=1e-12, atol=1e-12)
            assert arr[dead].tobytes() == getattr(prior, name)[j][dead].tobytes()
            assert arr.tobytes() == getattr(alone[j], name)[0].tobytes()


@BOUNDED
@given(schedules(max_seq=64), st.integers(0, 2**16))
def test_simulate_matches_oracle(schedule, seed):
    algo, n, c, tile_q, tile_k = schedule
    config = SimConfig(
        algo=algo, n_devices=n, n_seq=n * c, d_head=4, tile_q=tile_q, tile_k=tile_k, seed=seed
    )
    assert oracle_error(simulate(config)) <= EXACT_TOL


_CHUNK = attention._CHUNK_ROWS
# The serial executor hands accumulate_block whole device ranges, and it
# folds max(1, budget // (min(c, _CHUNK) * c)) devices per call. The test
# lowers the budget to a quarter, so the edges of the rule fall at small
# blocks: c = 32 folds 16 devices per call (every range whole), 64 folds
# 4, 65 folds 3 and 128 folds 2 (each in two row chunks), and 129 folds
# one device per call in three chunks.
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
    with mock.patch.object(attention, "_CALL_SCORES", SMALL_BUDGET):
        serial = simulate(SimConfig(**base))
    threaded = simulate(SimConfig(executor="threads", **base))
    assert serial.output.tobytes() == threaded.output.tobytes()
    assert oracle_error(serial) <= ORACLE_TOLERANCE[precision]


@BOUNDED
@given(
    schedules(max_seq=128),
    st.sampled_from(["double", "single"]),
    st.integers(1, 6),
    st.integers(1, 8),
    st.integers(0, 2**16),
)
# The sweep's largest stack, five seeds at N = 2, c = 64, four blocks per call.
@example((Algo.STRIPED, 2, 64, 16, 32), "double", 5, 4, 1)
# Calls that split a device's copies: three blocks per call of N * B = 12.
@example((Algo.RING, 4, 8, 2, 4), "single", 3, 3, 2)
def test_stacked_serial_fold_equals_each_seeds_own_run(schedule, precision, copies, group, seed):
    # B seeds of one config fold as one serial stack of N * B device
    # blocks, ``group`` blocks per kernel call: every seed keeps the
    # bytes of its own serial and threaded runs, and the closed form.
    algo, n, c, tile_q, tile_k = schedule
    configs = [
        SimConfig(algo=algo, n_devices=n, n_seq=n * c, d_head=4, tile_q=tile_q, tile_k=tile_k,
                  seed=seed + s, precision=precision)
        for s in range(copies)
    ]
    inputs = [random_qkv(n * c, 4, config.seed, config.dtype) for config in configs]
    budget = group * min(c, attention._CHUNK_ROWS) * c
    with mock.patch.object(attention, "_CALL_SCORES", budget):
        stacked = simulator._simulate_stacked(configs, inputs)
    stats = schedule_work_stats(algo, n, c, tile_q, tile_k)
    for config, run in zip(configs, stacked):
        alone = simulate(config)
        threaded = simulate(dataclasses.replace(config, executor="threads"))
        assert run.output.tobytes() == alone.output.tobytes() == threaded.output.tobytes()
        assert run.config == config and run.stats == stats


@BOUNDED
@given(
    st.sampled_from(list(Algo)), st.integers(2, 16), st.integers(1, 16), st.integers(1, 3)
)
def test_gather_inverts_partition(scheme, n, c, width):
    layout = Layout(scheme, n * c, n)
    rng = np.random.default_rng(n * c)
    q, k, v = (rng.standard_normal((n * c, width)) for _ in range(3))
    batch = layout.partition(q, k, v)
    assert np.array_equal(layout.gather(list(batch.q)), q)
    assert np.array_equal(layout.gather(list(batch.k)), k)
    assert np.array_equal(layout.gather(list(batch.v)), v)


@BOUNDED
@given(st.sampled_from(list(Algo)), st.integers(2, 16), st.integers(1, 16))
def test_positions_place_every_row(scheme, n, c):
    layout = Layout(scheme, n * c, n)
    rows = np.arange(n * c)[:, None] * np.ones(2)
    batch = layout.partition(rows, rows, rows)
    order = layout.positions()
    for d in range(n):
        for x in range(c):
            want = d * c + x if scheme is Algo.RING else d + x * n
            assert layout.global_of(d, x) == order[d, x] == want
            assert np.array_equal(batch.q[d, x], rows[order[d, x]])


@pytest.mark.parametrize("algo", list(Algo))
def test_large_logits_stay_exact(algo):
    # Scores scaled by 1e3 make the softmax nearly one-hot; the running
    # maximum must keep the streamed result within the double gate.
    config = SimConfig(algo=algo, n_devices=8, n_seq=256, d_head=8, tile_q=4, tile_k=4, seed=1)
    q, k, v = random_qkv(256, 8, 1)
    assert oracle_error(simulate(config, (q * 1e3, k, v))) <= EXACT_TOL


# How one array argument goes wrong (``_spoil``), and per kind of function
# (the faults drawn, those it must refuse). NaN and inf are drawn only for
# the boundary functions: the kernel and the layout check structure, and
# leave values to ``check_sequence``.
_STRUCTURE = ("rank", "size", "ragged")
_DTYPES = ("other float", "int64", "float16", "complex", "object")
_BOUNDARY = (_STRUCTURE + _DTYPES + ("nan", "inf"),
             frozenset(_STRUCTURE + ("complex", "nan", "inf")))
_LAYOUT = (_STRUCTURE + _DTYPES, frozenset(_STRUCTURE))
_KERNEL = (_STRUCTURE + _DTYPES, frozenset(_STRUCTURE + _DTYPES))


def _spoil(x, fault):
    """``x`` with ``fault``: an extra axis, an extra leading row, a ragged
    nested list, another dtype, or one NaN or inf entry."""
    if fault is None:
        return x
    if fault == "rank":
        return x[..., None]
    if fault == "size":
        return np.concatenate([x, x[:1]])
    if fault == "ragged":  # the last leading entry loses a column
        return [*x[:-1].tolist(), x[-1, ..., :-1].tolist()]
    if fault in ("nan", "inf"):
        x = x.copy()
        x.flat[-1] = np.nan if fault == "nan" else np.inf
        return x
    if fault == "complex":
        return x + 1j
    return x.astype({"other float": np.float32 if x.dtype == np.float64 else np.float64,
                     "int64": np.int64, "float16": np.float16, "object": object}[fault])


_SMALL = st.integers(2, 4)  # every size; 2 or more, so a ragged list is ragged
_RUN = simulate(SimConfig(Algo.STRIPED, n_devices=2, n_seq=6, d_head=3, tile_q=1, tile_k=1))

# Each target takes (data, rng) and returns (call, good arrays, names,
# faults): call(arrays) calls the function, names are those its messages
# may start with, and faults is one of the three pairs above.


def _check_sequence(data, rng):
    x = rng.standard_normal((data.draw(_SMALL), data.draw(_SMALL)))
    faults, refuses = _BOUNDARY
    return lambda a: check_sequence("x", *a), [x], ("x",), (faults, refuses - {"size"})


def _simulate(data, rng):
    n, c, d = data.draw(_SMALL), data.draw(_SMALL), data.draw(_SMALL)
    config = SimConfig(data.draw(st.sampled_from(list(Algo))), n_devices=n, n_seq=n * c,
                       d_head=d, tile_q=1, tile_k=1,
                       precision=data.draw(st.sampled_from(["double", "single"])))
    qkv = [rng.standard_normal((n * c, d)) for _ in range(3)]
    return lambda a: simulate(config, a), qkv, ("Q", "K", "V", "inputs"), _BOUNDARY


def _oracle(data, rng):
    n, d, d_v = data.draw(_SMALL), data.draw(_SMALL), data.draw(_SMALL)
    qkv = [rng.standard_normal(shape) for shape in ((n, d), (n, d), (n, d_v))]
    return lambda a: oracle_causal_attention(*a), qkv, ("Q", "K", "V"), _BOUNDARY


def _oracle_error(data, rng):
    reference = oracle_causal_attention(_RUN.q, _RUN.k, _RUN.v)
    return lambda a: oracle_error(_RUN, *a), [reference], ("reference",), _BOUNDARY


def _partition(data, rng):
    n, c, d = data.draw(_SMALL), data.draw(_SMALL), data.draw(_SMALL)
    layout = Layout(data.draw(st.sampled_from(list(Algo))), n * c, n)
    qkv = [rng.standard_normal((n * c, d)) for _ in range(3)]
    return lambda a: layout.partition(*a), qkv, ("Q", "K", "V"), _LAYOUT


def _gather(data, rng):
    n, c, d = data.draw(_SMALL), data.draw(_SMALL), data.draw(_SMALL)
    layout = Layout(data.draw(st.sampled_from(list(Algo))), n * c, n)
    as_list = data.draw(st.booleans())  # one array per device

    def call(arrays):
        [x] = arrays
        return layout.gather(list(x) if as_list and isinstance(x, np.ndarray) else x)

    return call, [rng.standard_normal((n, c, d))], ("per_device",), _LAYOUT


def _accumulate_block(data, rng):
    g, rows, cols, d, d_v = (data.draw(_SMALL) for _ in range(5))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    mask = MaskSpec(data.draw(st.sampled_from(list(MaskKind))), rows, cols)
    qkv = [rng.standard_normal(shape).astype(dtype)
           for shape in ((g, rows, d), (g, cols, d), (g, cols, d_v))]

    def call(arrays):
        return accumulate_block(SoftmaxAccumulator.fresh((g, rows), d_v, dtype), *arrays, mask)

    return call, qkv, ("q", "k", "v", "state"), _KERNEL


def _accumulate_tile(data, rng):
    rows, width, d, d_v = (data.draw(_SMALL) for _ in range(4))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    arrays = [rng.standard_normal(shape).astype(dtype)
              for shape in ((rows, d), (width, d), (width, d_v))]
    if data.draw(st.booleans()):
        arrays.append(rng.random((rows, width)) < 0.5)  # else the tile is unmasked

    def call(arrays):
        return accumulate_tile(SoftmaxAccumulator.fresh(rows, d_v, dtype), *arrays)

    return call, arrays, ("q_tile", "k_tile", "v_tile", "allowed", "state"), _KERNEL


_TARGETS = {f.__name__.lstrip("_"): f for f in (
    _check_sequence, _simulate, _oracle, _oracle_error, _partition, _gather,
    _accumulate_block, _accumulate_tile,
)}


@pytest.mark.parametrize("target", sorted(_TARGETS))
@BOUNDED
@given(st.integers(0, 2**16), st.data())
def test_every_array_argument_is_used_or_refused_under_its_name(target, seed, data):
    # On drawn sizes, dtypes and layouts: the good arguments, then each
    # argument with each fault (an extra axis, a wrong size, a ragged list,
    # other dtypes, NaN and inf), then a random mix of faults. A call with
    # no fault the function refuses succeeds; one with such a fault raises
    # a ValueError that starts with a parameter's name. Two size faults
    # may agree with each other, so either is fine then. No other
    # exception and no warning may escape. simulate also gets two and four
    # arrays.
    rng = np.random.default_rng(seed)
    call, good, names, (faults, refuses) = _TARGETS[target](data, rng)
    cases = [[None] * len(good)]
    cases += [[fault if i == j else None for j in range(len(good))]
              for i in range(len(good)) for fault in faults]
    cases.append([None if rng.random() < 0.5 else faults[rng.integers(len(faults))] for _ in good])
    calls = [(case, [_spoil(x, fault) for x, fault in zip(good, case)]) for case in cases]
    if target == "simulate":
        calls += [(["count"], good[:2]), (["count"], good + good[:1])]
        refuses = refuses | {"count"}
    for case, arrays in calls:
        hits = [fault for fault in case if fault in refuses]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(arrays)
            except ValueError as exc:
                assert hits, f"{target} refused {case}: {exc}"
                assert re.match(f"({'|'.join(names)}) ", str(exc)), f"{target} {case}: {exc}"
            else:
                assert not hits or hits.count("size") == len(hits) > 1, f"{target} took {case}"
