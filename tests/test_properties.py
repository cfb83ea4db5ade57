"""Property tests: random ring sizes, block sizes, tilings and layouts
against the dense oracle and the tile-by-tile enumeration of work."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ringsim.costmodel import PRESETS, TmsQuery, tms  # noqa: E402
from ringsim.layout import Layout  # noqa: E402
from ringsim.simulator import (  # noqa: E402
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


@BOUNDED
@given(schedules(max_seq=64), st.integers(0, 2**16))
def test_simulate_matches_oracle(schedule, seed):
    algo, n, c, tile_q, tile_k = schedule
    config = SimConfig(
        algo=algo, n_devices=n, n_seq=n * c, d_head=4, tile_q=tile_q, tile_k=tile_k, seed=seed
    )
    assert oracle_error(simulate(config)) <= EXACT_TOL


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
