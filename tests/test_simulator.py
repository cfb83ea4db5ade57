import time

import numpy as np
import pytest

from ringsim import simulator
from ringsim.attention import get_mask_ring, get_mask_striped
from ringsim.simulator import (
    Algo,
    SimConfig,
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


@pytest.mark.parametrize("which,bad", [(0, np.nan), (1, np.inf), (2, -np.inf)])
def test_simulate_rejects_non_finite_inputs(which, bad):
    config = SimConfig(algo=Algo.STRIPED, n_devices=2, n_seq=8, d_head=4, tile_q=2, tile_k=2)
    inputs = [np.array(x) for x in random_qkv(8, 4, 0)]
    inputs[which][3, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        simulate(config, inputs)


@pytest.mark.parametrize("which", range(3))
def test_simulate_rejects_complex_inputs(which):
    config = SimConfig(algo=Algo.STRIPED, n_devices=2, n_seq=8, d_head=4, tile_q=2, tile_k=2)
    inputs = list(random_qkv(8, 4, 0))
    inputs[which] = inputs[which] * (1 + 5j)
    with pytest.raises(ValueError, match="must be real"):
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
    # A block of two full row chunks plus a ragged remainder.
    c = 2 * simulator._CHUNK_ROWS + 44
    base = dict(algo=algo, n_devices=2, n_seq=2 * c, d_head=8, tile_q=c, tile_k=c, seed=3,
                precision=precision)
    serial = simulate(SimConfig(executor="serial", **base))
    threaded = simulate(SimConfig(executor="threads", **base))
    assert oracle_error(serial) <= tol
    assert threaded.output.tobytes() == serial.output.tobytes()


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
            allowed = mask_fn(j, k, c).materialize()
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
    assert threaded.stats == serial.stats


class InjectedFault(Exception):
    pass


@pytest.mark.parametrize("algo", list(Algo))
def test_threaded_fault_fails_fast(monkeypatch, algo):
    # Device 0 raises in round 1, when it holds block N-1; its peers must
    # stop at once instead of waiting out the channel timeout.
    n = 4
    real_mask = simulator._block_mask

    def faulty_mask(algo_, j, k, c, n_devices):
        if j == 0 and k == n - 1:
            raise InjectedFault("device 0, round 1")
        return real_mask(algo_, j, k, c, n_devices)

    monkeypatch.setattr(simulator, "_block_mask", faulty_mask)
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
