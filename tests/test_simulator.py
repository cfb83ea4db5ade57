import dataclasses
import gc
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ringsim import attention, simulator
from ringsim.attention import (
    MaskKind,
    MaskSpec,
    get_mask_ring,
    get_mask_striped,
    oracle_causal_attention,
)
from ringsim.simulator import (
    Algo,
    SimConfig,
    critical_path_required,
    make_layout,
    oracle_error,
    random_qkv,
    round_critical_path,
    run_schedule,
    schedule_work_stats,
    simulate,
    simulated_speedup,
)

from helpers import dense_causal_reference, enumerated_work_stats


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_divisibility_checks():
    with pytest.raises(ValueError):
        SimConfig(algo=Algo.RING, n_devices=3, n_seq=16, d_head=4, tile_q=1, tile_k=1)
    with pytest.raises(ValueError):
        SimConfig(algo=Algo.RING, n_devices=4, n_seq=16, d_head=4, tile_q=3, tile_k=1)
    with pytest.raises(ValueError):
        SimConfig(algo=Algo.RING, n_devices=4, n_seq=16, d_head=4, tile_q=1, tile_k=8)
    with pytest.raises(ValueError):
        SimConfig(algo=Algo.RING, n_devices=4, n_seq=16, d_head=4, tile_q=1, tile_k=1,
                  precision="half")


SIZES = dict(n_devices=2, n_seq=8, d_head=4, tile_q=2, tile_k=2)


@pytest.mark.parametrize("name", list(SIZES))
@pytest.mark.parametrize("bad", [2.0, True, "2", None])
def test_config_rejects_non_integer_sizes(name, bad):
    with pytest.raises(ValueError, match=name):
        SimConfig(algo=Algo.RING, **{**SIZES, name: bad})


@pytest.mark.parametrize("args,message", [
    ((2.5, 2, 0), "n_seq must be an integer"), ((8, 0, 0), "d_head must be at least 1, got 0"),
    ((8, 2, -1), "seed must be at least 0, got -1"), ((8, 2, True), "seed must be an integer"),
    ((4, 2, 0, np.int32), "dtype must be float32 or float64, got int32"),
    ((4, 2, 0, np.float16), "dtype must be float32 or float64, got float16"),
])
def test_random_qkv_names_the_bad_argument(args, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        random_qkv(*args)


@pytest.mark.parametrize("bad,message", [(-1, "at least 0, got -1"), (True, "an integer"),
                                         (1.0, "an integer"), ("3", "an integer"),
                                         (None, "an integer")])
def test_config_rejects_a_bad_seed(bad, message):
    with pytest.raises(ValueError, match=f"seed must be {message}"):
        SimConfig(algo=Algo.RING, seed=bad, **SIZES)
    assert type(SimConfig(algo=Algo.RING, seed=np.int64(5), **SIZES).seed) is int


def test_config_is_frozen():
    config = SimConfig(algo=Algo.RING, **SIZES)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.tile_q = 2.0
    assert dataclasses.replace(config, tile_q=4).tile_q == 4
    with pytest.raises(ValueError, match="tile_q"):
        dataclasses.replace(config, tile_q=2.0)


@pytest.mark.parametrize("call", [
    lambda: schedule_work_stats(Algo.RING, 4, 8.0, 2, 2),
    lambda: schedule_work_stats(Algo.RING, 4.0, 8, 2, 2),
    lambda: schedule_work_stats(Algo.RING, 4, 8, 2.0, 2),
    lambda: schedule_work_stats(Algo.RING, 4, 8, 2, True),
], ids=["block_size", "n_devices", "tile_q", "tile_k"])
def test_schedule_work_stats_rejects_non_integer_sizes(call):
    # 8.0 used to give float counters (tiles_total=16.0).
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("sizes", [(4, 8.0), (4.0, 8), (4, np.float64(8))])
def test_critical_path_required_rejects_non_integer_sizes(sizes):
    # (4, 8.0) used to return 228.0.
    with pytest.raises(ValueError, match="must be an integer"):
        critical_path_required(Algo.RING, *sizes)


SCHEDULE = dict(n_devices=4, block_size=8, tile_q=2, tile_k=1)


@pytest.mark.parametrize("name,bad", [
    ("block_size", 8.0), ("block_size", np.float64(8)), ("n_devices", 4.0),
    ("n_devices", True), ("tile_q", 2.0), ("tile_k", True),
], ids=["block_size-float", "block_size-numpy", "n_devices-float", "n_devices-bool",
        "tile_q-float", "tile_k-bool"])
def test_schedule_work_stats_checks_sizes_on_every_call(name, bad):
    # The valid call caches its key; an equal value of the wrong type
    # (8.0 == 8, True == 1) must still be refused, under the caller's name
    # (block_size 8.0 used to be reported as "n_seq ... 32.0").
    assert schedule_work_stats(Algo.RING, **SCHEDULE) == enumerated_work_stats(
        Algo.RING, *SCHEDULE.values()
    )
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        schedule_work_stats(Algo.RING, **{**SCHEDULE, name: bad})


@pytest.mark.parametrize("name,bad", [
    ("block_size", 8.0), ("block_size", np.float64(8)), ("n_devices", 4.0), ("n_devices", True),
], ids=["block_size-float", "block_size-numpy", "n_devices-float", "n_devices-bool"])
def test_critical_path_required_checks_sizes_on_every_call(name, bad):
    sizes = dict(n_devices=4, block_size=8)
    assert critical_path_required(Algo.RING, **sizes) == 36 + 3 * 64
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        critical_path_required(Algo.RING, **{**sizes, name: bad})


def test_a_ring_beyond_the_cached_sizes_holds_no_memory_once_dropped():
    # At N = 256 the expanded result is 65,536 RoundStats, about 10 MB; it
    # must not stay cached once the caller drops it.
    schedule_work_stats(Algo.RING, 4, 1, 1, 1)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stats = schedule_work_stats(Algo.RING, 256, 1, 1, 1)
        assert stats[255].rounds[255].interactions_required == 1
        del stats
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


def test_work_stats_are_frozen():
    ws = schedule_work_stats(Algo.STRIPED, **SCHEDULE)[1]
    assert type(ws.rounds) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        ws.rounds = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ws.device = 0


def test_changing_the_returned_stats_leaves_the_next_call_alone():
    want = enumerated_work_stats(Algo.STRIPED, *SCHEDULE.values())
    stats = schedule_work_stats(Algo.STRIPED, **SCHEDULE)
    stats.append(stats[0])
    stats[1] = stats[2]
    assert schedule_work_stats(Algo.STRIPED, **SCHEDULE) == want
    config = SimConfig(algo=Algo.STRIPED, n_devices=4, n_seq=32, d_head=4, tile_q=2, tile_k=1)
    run = simulate(config)
    run.stats.clear()
    assert simulate(config).stats == want


def test_config_takes_numpy_integers():
    config = SimConfig(algo="ring", **{name: np.int64(v) for name, v in SIZES.items()})
    assert config == SimConfig(algo=Algo.RING, **SIZES)
    assert all(type(getattr(config, name)) is int for name in SIZES)


@pytest.mark.parametrize("precision,dtype", [("double", np.float32), ("single", np.float64),
                                             ("double", np.int64)])
@pytest.mark.parametrize("which", range(3))
def test_run_schedule_rejects_a_batch_of_another_dtype(precision, dtype, which):
    config = SimConfig(algo=Algo.STRIPED, precision=precision, **SIZES)
    qkv = [x.astype(config.dtype) for x in random_qkv(8, 4, 0)]
    qkv[which] = (qkv[which] * 4).astype(dtype)
    batch = make_layout(config).partition(*qkv)
    with pytest.raises(ValueError, match=rf"{'QKV'[which]} is {np.dtype(dtype)}.*"
                                         rf"{np.dtype(config.dtype)}"):
        run_schedule(config, batch)


def test_run_schedule_rejects_mismatched_batch():
    config = SimConfig(algo=Algo.STRIPED, n_devices=4, n_seq=16, d_head=4, tile_q=2, tile_k=2)
    wrong_layout = make_layout(
        SimConfig(algo=Algo.RING, n_devices=4, n_seq=16, d_head=4, tile_q=2, tile_k=2)
    )
    q, k, v = random_qkv(16, 4, 0)
    with pytest.raises(ValueError):
        run_schedule(config, wrong_layout.partition(q, k, v))
    small = make_layout(config)
    with pytest.raises(ValueError):
        run_schedule(
            SimConfig(algo=Algo.STRIPED, n_devices=4, n_seq=16, d_head=8, tile_q=2, tile_k=2),
            small.partition(q, k, v),
        )


def _stack_of_two(second_v_width=4, executor="serial"):
    config = SimConfig(algo=Algo.STRIPED, executor=executor, **SIZES)
    layout = make_layout(config)
    q, k, v = random_qkv(8, 4, 0)
    return config, [layout.partition(q, k, v), layout.partition(q, k, v[:, :second_v_width])]


@pytest.mark.parametrize("case,message", [
    ("other V width", r"batch V shape \(2, 4, 3\) does not match \(2, 4, 4\)"),
    ("other dtype", r"batch K is float32, expected float64"),
    ("threads", "the threads executor runs one batch at a time"),
])
def test_a_stacked_run_checks_every_batch(case, message):
    # Every batch of a stack is checked, not only the first, and all
    # share V's width; the threads executor takes one batch.
    config, batches = _stack_of_two(3 if case == "other V width" else 4,
                                    "threads" if case == "threads" else "serial")
    if case == "other dtype":
        batches[1] = dataclasses.replace(batches[1], k=batches[1].k.astype(np.float32))
    with pytest.raises(ValueError, match=message):
        simulator._run_stacked(config, batches)


def test_a_stacked_run_names_a_dead_row_by_device_and_copy(monkeypatch):
    # An exclusive own block and a masked earlier one leave row 0 of
    # device 1 (of 2) with no key: one batch names (device, row), a stack
    # (device, copy, row), never a stacked row index.
    def dead_first_row(algo, n, c):
        return tuple(MaskSpec(kind, c, c) for kind in (
            MaskKind.CAUSAL_EXCLUSIVE, MaskKind.FULLY_MASKED, MaskKind.FULLY_UNMASKED))

    monkeypatch.setattr(simulator, "_relation_masks", dead_first_row)
    config, batches = _stack_of_two()
    with pytest.raises(ValueError, match=r"first dead row: 1, 0\)"):
        run_schedule(config, batches[0])
    with pytest.raises(ValueError, match=r"first dead row: 1, 0, 0\)"):
        simulator._run_stacked(config, batches)


def test_a_stack_takes_configs_that_differ_only_in_seed():
    config = SimConfig(algo=Algo.STRIPED, **SIZES)
    inputs = [None, None]
    runs = simulator._simulate_stacked([config, dataclasses.replace(config, seed=3)], inputs)
    assert [run.config.seed for run in runs] == [0, 3]
    with pytest.raises(ValueError, match="stacked configs may differ only in seed"):
        simulator._simulate_stacked([config, dataclasses.replace(config, scale=True)], inputs)


@pytest.mark.parametrize("which,bad", [(0, np.nan), (1, np.inf), (2, -np.inf)])
def test_simulate_rejects_non_finite_inputs(which, bad):
    config = SimConfig(algo=Algo.STRIPED, n_devices=2, n_seq=8, d_head=4, tile_q=2, tile_k=2)
    inputs = [np.array(x) for x in random_qkv(8, 4, 0)]
    inputs[which][3, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        simulate(config, inputs)


@pytest.mark.parametrize("count", [0, 2, 4])
def test_simulate_takes_exactly_three_inputs(count):
    config = SimConfig(algo=Algo.STRIPED, n_devices=2, n_seq=8, d_head=4, tile_q=2, tile_k=2)
    q, k, v = random_qkv(8, 4, 0)
    with pytest.raises(ValueError, match=f"the three arrays Q, K and V, got {count}"):
        simulate(config, [q, k, v, v][:count])
    assert simulate(config, iter([q, k, v])).output.shape == (8, 4)


@pytest.mark.parametrize("which", range(3))
def test_simulate_rejects_complex_inputs(which):
    config = SimConfig(algo=Algo.STRIPED, n_devices=2, n_seq=8, d_head=4, tile_q=2, tile_k=2)
    inputs = list(random_qkv(8, 4, 0))
    inputs[which] = inputs[which] * (1 + 5j)
    with pytest.raises(ValueError, match="must be real"):
        simulate(config, inputs)


@pytest.mark.parametrize("which", range(3))
def test_single_precision_rejects_inputs_beyond_float32_range(which):
    # 1e300 is finite in float64; the cast to float32 must not silently
    # (or, under -W error, loudly) turn it into inf first.
    config = SimConfig(
        algo=Algo.RING, n_devices=2, n_seq=8, d_head=4, tile_q=2, tile_k=2, precision="single"
    )
    inputs = [np.array(x) for x in random_qkv(8, 4, 0)]
    inputs[which][3, 1] = -1e300
    with pytest.raises(ValueError, match="beyond the float32 range"):
        simulate(config, inputs)


def test_single_precision_casts_given_inputs():
    config = SimConfig(
        algo=Algo.RING, n_devices=4, n_seq=32, d_head=8, tile_q=2, tile_k=4, seed=2,
        precision="single",
    )
    inputs = random_qkv(32, 8, 2)  # float64
    from_double = simulate(config, inputs)
    from_single = simulate(config, [x.astype(np.float32) for x in inputs])
    assert from_double.output.dtype == np.float32
    assert from_double.output.tobytes() == from_single.output.tobytes()


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algo", list(Algo))
def test_schedule_matches_oracle(algo):
    config = SimConfig(algo=algo, n_devices=4, n_seq=16, d_head=8, tile_q=2, tile_k=2, seed=1)
    run = simulate(config)
    assert oracle_error(run) <= 1e-12


@pytest.mark.parametrize("algo", list(Algo))
def test_schedule_matches_independent_reference(algo):
    # Not just the package oracle: also the loop-based dense reference.
    config = SimConfig(algo=algo, n_devices=2, n_seq=8, d_head=4, tile_q=2, tile_k=2, seed=4)
    run = simulate(config)
    want = dense_causal_reference(run.q, run.k, run.v)
    assert np.max(np.abs(run.output - want)) <= 1e-12


def test_single_precision_exactness():
    config = SimConfig(
        algo=Algo.STRIPED, n_devices=4, n_seq=64, d_head=16, tile_q=4, tile_k=8, seed=5,
        precision="single",
    )
    run = simulate(config)
    assert run.output.dtype == np.float32
    assert oracle_error(run) <= 1e-4


def test_scale_flag_matches_scaled_oracle():
    config = SimConfig(
        algo=Algo.RING, n_devices=4, n_seq=32, d_head=8, tile_q=2, tile_k=4, seed=6, scale=True
    )
    run = simulate(config)
    assert oracle_error(run) <= 1e-12
    want = dense_causal_reference(run.q, run.k, run.v, scale=True)
    assert np.max(np.abs(run.output - want)) <= 1e-12


@pytest.mark.parametrize("algo", list(Algo))
def test_output_does_not_depend_on_the_tiling(algo):
    # The modelled tile drives the work counters only; the numerics fold
    # in fixed row chunks, so every tiling gives the same bytes.
    n, n_seq = 4, 128
    c = n_seq // n
    outputs = {
        simulate(
            SimConfig(algo=algo, n_devices=n, n_seq=n_seq, d_head=8, tile_q=tq, tile_k=tk, seed=9)
        ).output.tobytes()
        for tq, tk in ((1, 1), (2, 4), (8, 8), (c, c))
    }
    assert len(outputs) == 1


@pytest.mark.parametrize("algo", list(Algo))
@pytest.mark.parametrize("precision,tol", [("double", 1e-9), ("single", 1e-3)])
def test_block_larger_than_a_row_chunk(algo, precision, tol):
    # Full row chunks plus a ragged remainder: two chunks and 44 rows, and
    # one chunk and a single row, which sees its whole key slab and is
    # folded without a mask. An exclusive block (striped, k > j) starts its
    # chunks at row 1, because row 0 sees no key: at c = chunk + 1 its rows
    # fill exactly one chunk, at c = chunk and chunk - 1 one short chunk.
    chunk = attention._CHUNK_ROWS
    for c in (2 * chunk + 44, chunk + 1, chunk, chunk - 1):
        base = dict(algo=algo, n_devices=2, n_seq=2 * c, d_head=8, tile_q=c, tile_k=c, seed=3,
                    precision=precision)
        serial = simulate(SimConfig(executor="serial", **base))
        threaded = simulate(SimConfig(executor="threads", **base))
        assert oracle_error(serial) <= tol
        assert threaded.output.tobytes() == serial.output.tobytes()


def test_oracle_error_takes_a_precomputed_reference():
    run = simulate(SimConfig(algo=Algo.STRIPED, n_devices=2, n_seq=16, d_head=4,
                             tile_q=2, tile_k=2, seed=2))
    reference = oracle_causal_attention(run.q, run.k, run.v)
    assert oracle_error(run, reference) == oracle_error(run)
    assert oracle_error(run, np.zeros_like(reference)) == float(np.max(np.abs(run.output)))
    with pytest.raises(ValueError, match=r"^reference shape \(8, 4\) does not match \(16, 4\)$"):
        oracle_error(run, reference[:8])


# ---------------------------------------------------------------------------
# schedule structure and work accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algo", list(Algo))
def test_block_rotation_invariant(algo):
    n = 4
    run = simulate(SimConfig(algo=algo, n_devices=n, n_seq=16, d_head=4, tile_q=2, tile_k=2))
    for ws in run.stats:
        for i, rs in enumerate(ws.rounds):
            assert rs.round == i
            assert rs.block_index == (ws.device - i) % n


def test_ring_round2_mask_extremes():
    config = SimConfig(algo=Algo.RING, n_devices=4, n_seq=32, d_head=4, tile_q=2, tile_k=2)
    run = simulate(config)
    c = config.block_size
    by_device = {ws.device: ws.rounds[2] for ws in run.stats}
    assert by_device[1].block_index == 3
    assert by_device[1].tiles_skipped == by_device[1].tiles_total
    assert by_device[1].interactions_computed == 0
    assert by_device[3].block_index == 1
    assert by_device[3].tiles_skipped == 0
    assert by_device[3].interactions_computed == c * c


@pytest.mark.parametrize("algo", list(Algo))
def test_work_counter_bounds(algo):
    run = simulate(SimConfig(algo=algo, n_devices=4, n_seq=32, d_head=4, tile_q=2, tile_k=4))
    area = 2 * 4
    for ws in run.stats:
        for rs in ws.rounds:
            assert rs.tiles_skipped + rs.tiles_partial + rs.tiles_full == rs.tiles_total
            assert rs.interactions_required <= rs.interactions_computed
            assert rs.interactions_computed <= rs.tiles_total * area


@pytest.mark.parametrize("algo", list(Algo))
def test_coverage_exactly_once(algo):
    # Union over rounds/devices of allowed (query, key) global pairs is the
    # full lower triangle, without duplicates.
    n, n_seq = 4, 32
    config = SimConfig(algo=algo, n_devices=n, n_seq=n_seq, d_head=4, tile_q=2, tile_k=2)
    run = simulate(config)
    c = config.block_size
    mask_fn = get_mask_ring if algo is Algo.RING else get_mask_striped
    seen = {}
    for j in range(n):
        for i in range(n):
            k = (j - i) % n
            allowed = mask_fn(j, k, c, n_devices=n).allowed_block()
            for x, y in zip(*np.nonzero(allowed)):
                pair = (run.layout.global_of(j, int(x)), run.layout.global_of(k, int(y)))
                seen[pair] = seen.get(pair, 0) + 1
    assert all(count == 1 for count in seen.values())
    assert set(seen) == {(query, key) for query in range(n_seq) for key in range(query + 1)}
    total_required = sum(rs.interactions_required for ws in run.stats for rs in ws.rounds)
    assert total_required == n_seq * (n_seq + 1) // 2


@pytest.mark.parametrize("algo", list(Algo))
@pytest.mark.parametrize("n_devices,n_seq,tile_q,tile_k", [
    (2, 16, 2, 4),
    (4, 32, 2, 2),
    (4, 16, 1, 1),
    (3, 24, 4, 2),
    (8, 64, 4, 8),
])
def test_run_stats_equal_closed_form_stats(algo, n_devices, n_seq, tile_q, tile_k):
    config = SimConfig(
        algo=algo, n_devices=n_devices, n_seq=n_seq, d_head=4, tile_q=tile_q, tile_k=tile_k
    )
    want = enumerated_work_stats(algo, n_devices, config.block_size, tile_q, tile_k)
    assert schedule_work_stats(algo, n_devices, config.block_size, tile_q, tile_k) == want
    assert simulate(config).stats == want


def test_striped_balance_ratio():
    c = 16
    stats = schedule_work_stats(Algo.STRIPED, 4, c, 1, 1)
    inc, exc = c * (c + 1) // 2, c * (c - 1) // 2
    for i in range(4):
        values = {ws.rounds[i].interactions_required for ws in stats}
        assert values <= {inc, exc}
        if i >= 1:
            assert values == {inc, exc}
            assert max(values) / min(values) == (c + 1) / (c - 1)


def test_ring_imbalance_extremes():
    c = 16
    stats = schedule_work_stats(Algo.RING, 4, c, 1, 1)
    for i in range(1, 4):
        values = [ws.rounds[i].interactions_required for ws in stats]
        assert 0 in values
        assert c * c in values


# ---------------------------------------------------------------------------
# determinism and executors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algo", list(Algo))
def test_serial_and_threaded_runs_are_bit_identical(algo):
    base = dict(algo=algo, n_devices=4, n_seq=32, d_head=8, tile_q=2, tile_k=4, seed=11)
    serial = simulate(SimConfig(executor="serial", **base))
    rerun = simulate(SimConfig(executor="serial", **base))
    threaded = simulate(SimConfig(executor="threads", **base))
    assert rerun.output.tobytes() == serial.output.tobytes()
    assert threaded.output.tobytes() == serial.output.tobytes()
    assert rerun.stats == serial.stats
    assert threaded.stats == serial.stats == enumerated_work_stats(algo, 4, 8, 2, 4)


def test_threads_share_one_stacked_state_under_fast_switching():
    # Eight workers, more than the cores, fold into adjacent rows of one
    # stacked accumulator; with the interpreter switching threads as often
    # as it can, a lost or crossed update would change the bytes.
    base = dict(algo=Algo.STRIPED, n_devices=8, n_seq=128, d_head=4, tile_q=4, tile_k=4, seed=7)
    serial = simulate(SimConfig(**base))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        for _ in range(5):
            threaded = simulate(SimConfig(executor="threads", **base))
            assert threaded.output.tobytes() == serial.output.tobytes()
    finally:
        sys.setswitchinterval(old_interval)
    assert time.perf_counter() - start < 30.0


class InjectedFault(Exception):
    pass


@pytest.mark.parametrize("algo", list(Algo))
def test_threaded_fault_fails_fast(monkeypatch, algo):
    # Device 0 raises on its second fold, in round 1, when it holds block
    # N-1; its peers must stop at once instead of waiting out the channel
    # timeout.
    n = 4
    real_fold = simulator.accumulate_block
    folds = []  # appended to by device 0's thread only

    def faulty_fold(*args):
        if threading.current_thread().name == "device-0":
            folds.append(1)
            if len(folds) == 2:
                raise InjectedFault("device 0, round 1")
        return real_fold(*args)

    monkeypatch.setattr(simulator, "accumulate_block", faulty_fold)
    config = SimConfig(
        algo=algo, n_devices=n, n_seq=32, d_head=4, tile_q=2, tile_k=2, executor="threads"
    )
    start = time.perf_counter()
    with pytest.raises(InjectedFault, match="device 0, round 1"):
        simulate(config)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# critical path and speedup
# ---------------------------------------------------------------------------


def test_round_critical_path_formulas():
    c, n = 8, 4
    ring = schedule_work_stats(Algo.RING, n, c, 1, 1)
    striped = schedule_work_stats(Algo.STRIPED, n, c, 1, 1)
    assert round_critical_path(ring, 0) == c * (c + 1) // 2
    for i in range(1, n):
        assert round_critical_path(ring, i) == c * c
    for i in range(n):
        assert round_critical_path(striped, i) == c * (c + 1) // 2


@pytest.mark.parametrize("bad", [True, 1.0, -1, 4])
def test_round_critical_path_rejects_a_bad_round(bad):
    stats = schedule_work_stats(Algo.RING, 4, 8, 1, 1)
    message = {-1: "at least 0, got -1", 4: "below 4, got 4"}.get(bad, "an integer")
    with pytest.raises(ValueError, match=f"^round_i must be {message}"):
        round_critical_path(stats, bad)


def test_simulated_speedup_closed_form_n4():
    c = 1024
    ring = schedule_work_stats(Algo.RING, 4, c, 1, 1)
    striped = schedule_work_stats(Algo.STRIPED, 4, c, 1, 1)
    got = simulated_speedup(ring, striped)
    inc = c * (c + 1) // 2
    assert got == pytest.approx((inc + 3 * c * c) / (4 * inc), abs=1e-12)
    assert f"{got:.4f}" == "1.7485"


def test_simulated_speedup_n2_approaches_three_halves():
    previous = 0.0
    for c in (64, 1024, 8192):
        ring = schedule_work_stats(Algo.RING, 2, c, 1, 1)
        striped = schedule_work_stats(Algo.STRIPED, 2, c, 1, 1)
        value = simulated_speedup(ring, striped)
        assert previous < value < 1.5
        previous = value
    assert previous == pytest.approx(1.5, abs=2e-4)


def test_simulated_speedup_rejects_mismatched_runs():
    ring = schedule_work_stats(Algo.RING, 4, 16, 1, 1)
    striped = schedule_work_stats(Algo.STRIPED, 4, 16, 2, 2)
    with pytest.raises(ValueError):
        simulated_speedup(ring, striped)
    with pytest.raises(ValueError):
        simulated_speedup(ring, schedule_work_stats(Algo.STRIPED, 2, 16, 1, 1))
