import numpy as np
import pytest

from ringsim.attention import oracle_causal_attention
from ringsim.layout import Algo, Layout

from helpers import dense_masked_reference

# The ids keep the names these tests had before the layout enum was merged.
SCHEMES = pytest.mark.parametrize(
    "scheme", list(Algo), ids=["Scheme.CONTIGUOUS", "Scheme.STRIPED"]
)


def test_global_of_striped_examples():
    layout = Layout(Algo.STRIPED, 16, 4)
    assert [layout.global_of(0, x) for x in range(4)] == [0, 4, 8, 12]
    assert layout.global_of(1, 2) == 9


def test_global_of_contiguous_example():
    layout = Layout(Algo.RING, 16, 4)
    assert layout.global_of(2, 3) == 11


def test_global_of_range_checks():
    layout = Layout(Algo.STRIPED, 16, 4)
    with pytest.raises(ValueError):
        layout.global_of(4, 0)
    with pytest.raises(ValueError):
        layout.global_of(0, 4)


@pytest.mark.parametrize("scheme", list(Algo), ids=lambda a: a.value)
def test_layout_takes_the_scheme_by_name(scheme):
    by_name = Layout(scheme.value, 8, 2)
    assert by_name.scheme is scheme
    np.testing.assert_array_equal(by_name.positions(), Layout(scheme, 8, 2).positions())


def test_layout_rejects_an_unknown_scheme_name():
    with pytest.raises(ValueError):
        Layout("zigzag", 8, 2)


@pytest.mark.parametrize("sizes", [(8.0, 2), (8, 2.0), (True, 2), ("8", 2)])
def test_layout_rejects_non_integer_sizes(sizes):
    # Layout("ring", 8.0, 2) used to construct, and positions() then raised a TypeError.
    name = "n_devices" if type(sizes[0]) is int else "n_seq"
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        Layout("ring", *sizes)


def test_layout_stores_int_sizes():
    # Layout("ring", np.int64(8), 2).n_seq used to stay numpy.int64.
    layout = Layout("ring", np.int64(8), np.int64(2))
    assert layout == Layout("ring", 8, 2)
    assert all(type(x) is int for x in (layout.n_seq, layout.n_devices, layout.block_size))


def test_layout_requires_even_division():
    with pytest.raises(ValueError):
        Layout(Algo.RING, 16, 3)
    with pytest.raises(ValueError):
        Layout(Algo.STRIPED, 8, 1)


@SCHEMES
@pytest.mark.parametrize("n_devices,n_seq", [(2, 4), (2, 16), (4, 16), (8, 64)])
def test_global_of_is_a_bijection(scheme, n_devices, n_seq):
    layout = Layout(scheme, n_seq, n_devices)
    seen = sorted(
        layout.global_of(d, x) for d in range(n_devices) for x in range(layout.block_size)
    )
    assert seen == list(range(n_seq))


def test_partition_striped_rows():
    layout = Layout(Algo.STRIPED, 4, 2)
    rows = np.arange(4.0)[:, None]
    batch = layout.partition(rows, rows, rows)
    np.testing.assert_array_equal(batch.q[0, :, 0], [0.0, 2.0])
    np.testing.assert_array_equal(batch.q[1, :, 0], [1.0, 3.0])


def test_partition_contiguous_rows():
    layout = Layout(Algo.RING, 4, 2)
    rows = np.arange(4.0)[:, None]
    batch = layout.partition(rows, rows, rows)
    np.testing.assert_array_equal(batch.q[0, :, 0], [0.0, 1.0])
    np.testing.assert_array_equal(batch.q[1, :, 0], [2.0, 3.0])


def test_gather_identity_sequence():
    layout = Layout(Algo.STRIPED, 16, 4)
    ident = np.arange(16.0)[:, None]
    batch = layout.partition(ident, ident, ident)
    np.testing.assert_array_equal(layout.gather(list(batch.q)), ident)


@SCHEMES
@pytest.mark.parametrize("n_devices", [2, 4, 8])
def test_gather_inverts_partition(scheme, n_devices):
    rng = np.random.default_rng(n_devices)
    n_seq = 8 * n_devices
    layout = Layout(scheme, n_seq, n_devices)
    q, k, v = (rng.standard_normal((n_seq, 5)) for _ in range(3))
    batch = layout.partition(q, k, v)
    np.testing.assert_array_equal(layout.gather(list(batch.q)), q)
    np.testing.assert_array_equal(layout.gather(list(batch.k)), k)
    np.testing.assert_array_equal(layout.gather(list(batch.v)), v)


@SCHEMES
def test_partition_stacks_by_device(scheme):
    layout = Layout(scheme, 12, 3)
    q, k, v = (np.arange(24.0).reshape(12, 2) + offset for offset in (0, 100, 200))
    batch = layout.partition(q, k, v)
    assert batch.q.shape == batch.k.shape == batch.v.shape == (3, 4, 2)
    np.testing.assert_array_equal(layout.gather(batch.q), q)  # stacked, one scatter
    np.testing.assert_array_equal(layout.gather(list(batch.v)), v)


def test_partition_and_gather_shape_errors():
    layout = Layout(Algo.STRIPED, 8, 2)
    with pytest.raises(ValueError, match=r"^Q shape \(6, 2\) does not match \(8, \*\)$"):
        layout.partition(np.zeros((6, 2)), np.zeros((8, 2)), np.zeros((8, 2)))
    with pytest.raises(ValueError, match=r"^per_device shape \(1, 4, 2\) does not match"):
        layout.gather([np.zeros((4, 2))])  # wrong shard count
    with pytest.raises(ValueError, match="^per_device is not one array"):
        layout.gather([np.zeros((3, 2)), np.zeros((4, 2))])  # ragged: wrong row count
    with pytest.raises(ValueError, match=r"^per_device shape \(2, 3, 2\) does not match \(2, 4,"):
        layout.gather(np.zeros((2, 3, 2)))  # stacked, wrong row count


@pytest.mark.parametrize("n_devices", [2, 4])
def test_attention_commutes_with_the_striped_permutation(n_devices):
    # Run dense attention on the permuted sequence, masking by original
    # positions, then un-permute: must equal the oracle on the original order.
    rng = np.random.default_rng(17)
    n_seq = 8 * n_devices
    layout = Layout(Algo.STRIPED, n_seq, n_devices)
    q, k, v = (rng.standard_normal((n_seq, 4)) for _ in range(3))
    batch = layout.partition(q, k, v)
    qp, kp, vp = (x.reshape(n_seq, -1) for x in (batch.q, batch.k, batch.v))
    c = layout.block_size
    original = [layout.global_of(p // c, p % c) for p in range(n_seq)]
    allowed = [[original[col] <= original[row] for col in range(n_seq)] for row in range(n_seq)]
    permuted_out = dense_masked_reference(qp, kp, vp, allowed)
    per_device = [permuted_out[d * c:(d + 1) * c] for d in range(n_devices)]
    got = layout.gather(per_device)
    want = oracle_causal_attention(q, k, v)
    assert np.max(np.abs(got - want)) <= 1e-12
