"""Every integer size and index of the public callables, every dtype, and
the array faults that used to escape unnamed, fail as a ``ValueError``
whose message starts with the parameter's name."""

import re

import numpy as np
import pytest

from ringsim.attention import (
    MaskKind,
    MaskSpec,
    SoftmaxAccumulator,
    accumulate_block,
    accumulate_tile,
    check_sequence,
    check_tiling,
    get_mask_ring,
    get_mask_striped,
    oracle_causal_attention,
)
from ringsim.costmodel import PRESET_FIELDS, PRESETS, ModelPreset, TmsQuery
from ringsim.layout import Layout, check_split
from ringsim.simulator import (
    Algo,
    SimConfig,
    critical_path_required,
    oracle_error,
    random_qkv,
    round_critical_path,
    schedule_work_stats,
    simulate,
)

SIZES = dict(n_devices=2, n_seq=8, d_head=4, tile_q=2, tile_k=2, seed=0)
PRESET = {name: getattr(PRESETS["1b"], name) for name in PRESET_FIELDS}
SCHEDULE = dict(n_devices=4, block_size=8, tile_q=2, tile_k=2)
STATS = schedule_work_stats(Algo.RING, 4, 8, 1, 1)  # four rounds

# (id, call taking the one value under test, parameter name, least, below)
PARAMETERS = [
    ("MaskSpec", lambda x: MaskSpec(MaskKind.CAUSAL_INCLUSIVE, x, 4), "block_rows", 1, None),
    ("MaskSpec", lambda x: MaskSpec(MaskKind.CAUSAL_INCLUSIVE, 4, x), "block_cols", 1, None),
    *(
        (get_mask.__name__, call, name, least, below)
        for get_mask in (get_mask_ring, get_mask_striped)
        for call, name, least, below in (
            (lambda x, f=get_mask: f(x, 0, 8, 4), "j", 0, 4),
            (lambda x, f=get_mask: f(0, x, 8, 4), "k", 0, 4),
            (lambda x, f=get_mask: f(1, 0, x, 4), "c", 1, None),
            (lambda x, f=get_mask: f(0, 0, 8, x), "n_devices", 1, None),
        )
    ),
    ("check_tiling", lambda x: check_tiling(x, 8, 2, 2), "block_rows", 1, None),
    ("check_tiling", lambda x: check_tiling(8, x, 2, 2), "block_cols", 1, None),
    ("check_tiling", lambda x: check_tiling(8, 8, x, 2), "tile_q", 1, None),
    ("check_tiling", lambda x: check_tiling(8, 8, 2, x), "tile_k", 1, None),
    ("fresh-size", lambda x: SoftmaxAccumulator.fresh(x, 3), "rows", 1, None),
    ("fresh-shape", lambda x: SoftmaxAccumulator.fresh((2, x), 3), "rows", 1, None),
    ("fresh", lambda x: SoftmaxAccumulator.fresh(2, x), "cols", 1, None),
    ("check_split", lambda x: check_split(x, 4), "n_seq", 4, None),
    ("check_split", lambda x: check_split(8, x), "n_devices", 2, None),
    ("Layout", lambda x: Layout("ring", x, 4), "n_seq", 4, None),
    ("Layout", lambda x: Layout("ring", 8, x), "n_devices", 2, None),
    ("global_of", lambda x: Layout("striped", 8, 2).global_of(x, 0), "device", 0, 2),
    ("global_of", lambda x: Layout("striped", 8, 2).global_of(0, x), "local", 0, 4),
    *(
        ("SimConfig", lambda x, name=name: SimConfig(Algo.RING, **{**SIZES, name: x}),
         name, least, None)
        for name, least in (("n_devices", 2), ("n_seq", 2), ("d_head", 1), ("tile_q", 1),
                            ("tile_k", 1), ("seed", 0))
    ),
    ("random_qkv", lambda x: random_qkv(x, 2, 0), "n_seq", 1, None),
    ("random_qkv", lambda x: random_qkv(4, x, 0), "d_head", 1, None),
    ("random_qkv", lambda x: random_qkv(4, 2, x), "seed", 0, None),
    *(
        ("ModelPreset", lambda x, name=name: ModelPreset("x", **{**PRESET, name: x}), name, 1, None)
        for name in PRESET_FIELDS
    ),
    ("TmsQuery", lambda x: TmsQuery(PRESETS["1b"], 1024, x), "sp", 2, None),
    ("TmsQuery", lambda x: TmsQuery(PRESETS["1b"], x, 4), "n_seq", 4, None),
    ("round_critical_path", lambda x: round_critical_path(STATS, x), "round_i", 0, 4),
    *(
        ("schedule_work_stats", lambda x, name=name: schedule_work_stats(
            Algo.STRIPED, **{**SCHEDULE, name: x}), name, least, None)
        for name, least in (("n_devices", 2), ("block_size", 1), ("tile_q", 1), ("tile_k", 1))
    ),
    ("critical_path_required", lambda x: critical_path_required(Algo.RING, x, 8), "n_devices", 2,
     None),
    ("critical_path_required", lambda x: critical_path_required(Algo.RING, 4, x), "block_size", 1,
     None),
]


@pytest.mark.parametrize("call,name,least,below", [case[1:] for case in PARAMETERS],
                         ids=[f"{case[0]}-{case[2]}" for case in PARAMETERS])
def test_every_bad_integer_is_refused_under_its_name(call, name, least, below):
    # get_mask_ring(0.5, 0, 8, 4) used to return a fully unmasked mask,
    # global_of(1.0, 2) leaked a numpy IndexError, and
    # schedule_work_stats(Algo.RING, 4, 0, 1, 1) named no parameter.
    bad = [(value, f"an integer, got {value!r}") for value in (2.5, True, np.float64(2), "2")]
    bad.append((least - 1, f"at least {least}, got {least - 1}"))
    if below is not None:
        bad.append((below, f"below {below}, got {below}"))
    for value, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {message}')}$"):
            call(value)


@pytest.mark.parametrize("call", [lambda dtype: random_qkv(4, 2, 0, dtype),
                                  lambda dtype: SoftmaxAccumulator.fresh(2, 2, dtype)],
                         ids=["random_qkv", "fresh"])
def test_a_value_that_names_no_dtype_is_refused_under_its_name(call):
    # Both used to raise numpy's TypeError "data type 'foo' not understood".
    for dtype in ("foo", object()):
        message = f"dtype must be a numpy dtype, got {dtype!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(dtype)


RUN = simulate(SimConfig(Algo.STRIPED, n_devices=2, n_seq=8, d_head=2, tile_q=1, tile_k=1))
REFERENCE = oracle_causal_attention(RUN.q, RUN.k, RUN.v)
ONES = np.ones((2, 4, 2))
UNMASKED = MaskSpec(MaskKind.FULLY_UNMASKED, 4, 4)

# (id, call, the message's start)
ARRAYS = [
    # Each of these used to fold float64 into float32 (or back) unchecked.
    ("accumulate_block-q", lambda: accumulate_block(
        SoftmaxAccumulator.fresh((2, 4), 2, np.float32), ONES, ONES, ONES, UNMASKED),
     "q is float64, expected float32"),
    ("accumulate_block-v", lambda: accumulate_block(
        SoftmaxAccumulator.fresh((2, 4), 2), ONES, ONES, ONES.astype(np.float32), UNMASKED),
     "v is float32, expected float64"),
    # These leaked numpy's matmul or broadcast text, which names no parameter.
    ("accumulate_tile-k_tile", lambda: accumulate_tile(
        SoftmaxAccumulator.fresh(4, 2), ONES[0], np.ones((3, 3)), np.ones((3, 2))),
     "k_tile shape (3, 3) does not match (*, 2)"),
    ("accumulate_tile-v_tile", lambda: accumulate_tile(
        SoftmaxAccumulator.fresh(4, 2), ONES[0], ONES[0], np.ones((4, 3))),
     "v_tile shape (4, 3) does not match (4, 2)"),
    ("accumulate_tile-allowed", lambda: accumulate_tile(
        SoftmaxAccumulator.fresh(4, 2), ONES[0], ONES[0], ONES[0], np.ones((4, 4), int)),
     "allowed is int64, expected bool"),
    # oracle_error took a NaN reference and returned nan, which passes a
    # ``err > tol`` gate, and a complex one raised numpy's UFuncTypeError.
    ("oracle_error-nan", lambda: oracle_error(RUN, np.full((8, 2), np.nan)),
     "reference contains non-finite entries"),
    ("oracle_error-complex", lambda: oracle_error(RUN, REFERENCE + 1j),
     "reference must be real, got dtype complex128"),
    ("oracle_error-rank", lambda: oracle_error(RUN, REFERENCE[None]),
     "reference shape (1, 8, 2) does not match (*, *)"),
    # An object array's failed cast to float escaped as numpy's TypeError.
    ("check_sequence-object", lambda: check_sequence("Q", np.array([[1.0, 1j]], dtype=object)),
     "Q must be real numbers: "),
    # Its overflow to float32 went by with numpy's RuntimeWarning, to inf.
    ("check_sequence-object-overflow", lambda: check_sequence(
        "Q", np.array([[1e300, 1.0]], dtype=object), dtype=np.float32),
     "Q has finite entries beyond the float32 range"),
    # Python's "'int' object is not iterable".
    ("simulate-inputs", lambda: simulate(RUN.config, 5),
     "inputs must be the three arrays Q, K and V, got int"),
    # numpy's "zero-size array to reduction operation maximum".
    ("accumulate_tile-empty-k_tile", lambda: accumulate_tile(
        SoftmaxAccumulator.fresh(4, 2), ONES[0], np.ones((0, 2)), np.ones((0, 2))),
     "k_tile must hold at least one key, got shape (0, 2)"),
    # A ragged list raised numpy's "inhomogeneous shape", naming nothing.
    ("gather-ragged", lambda: RUN.layout.gather([np.ones((4, 2)), np.ones((4, 3))]),
     "per_device is not one array: "),
    ("partition-ragged", lambda: RUN.layout.partition([[1.0], [1.0, 2.0]], REFERENCE, REFERENCE),
     "Q is not one array: "),
    ("oracle-ragged", lambda: oracle_causal_attention([[1.0], [1.0, 2.0]], REFERENCE, REFERENCE),
     "Q is not one array: "),
]


@pytest.mark.parametrize("call,message", [case[1:] for case in ARRAYS],
                         ids=[case[0] for case in ARRAYS])
def test_every_bad_array_is_refused_under_its_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


def test_oracle_error_takes_a_reference_as_a_list():
    # It used to raise AttributeError: 'list' object has no attribute 'shape'.
    assert oracle_error(RUN, REFERENCE.tolist()) == oracle_error(RUN, REFERENCE) <= 1e-9
