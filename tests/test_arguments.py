"""Every integer size and index of the public callables, and every dtype,
fails as a ``ValueError`` whose message starts with the parameter's name."""

import re

import numpy as np
import pytest

from ringsim.attention import (
    MaskKind,
    MaskSpec,
    SoftmaxAccumulator,
    check_tiling,
    get_mask_ring,
    get_mask_striped,
)
from ringsim.costmodel import PRESET_FIELDS, PRESETS, ModelPreset, TmsQuery
from ringsim.layout import Layout, check_split
from ringsim.simulator import (
    Algo,
    SimConfig,
    critical_path_required,
    random_qkv,
    round_critical_path,
    schedule_work_stats,
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
