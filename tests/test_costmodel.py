import json

import pytest

from ringsim.costmodel import (
    PRESETS,
    SPEEDUP_TOLERANCE,
    ModelPreset,
    TmsQuery,
    attention_flops_per_token,
    compare_golden,
    golden_rows,
    load_preset,
    non_attention_flops_per_token,
    tms,
)
from ringsim.simulator import Algo, critical_path_required


def test_builtin_presets():
    assert PRESETS["1b"] == ModelPreset("1b", 32000, 2048, 5504, 22, 16)
    assert PRESETS["3b"] == ModelPreset("3b", 32000, 3200, 8640, 26, 32)
    assert PRESETS["7b"] == ModelPreset("7b", 32000, 4096, 11008, 32, 32)


@pytest.mark.parametrize(
    "model,sp,flop_weight,n_seq,expected",
    [
        ("1b", 4, 2.0, 262144, 1.72),
        ("1b", 4, 2.0, 32768, 1.57),
        ("3b", 4, 2.0, 262144, 1.71),
        ("7b", 8, 1.0, 32768, 1.40),
        ("1b", 8, 1.0, 786432, 1.85),
        ("3b", 8, 1.0, 786432, 1.84),
        ("1b", 2, 2.0, 131072, 1.46),
        ("3b", 8, 1.0, 131072, 1.71),
    ],
)
def test_tms_reference_points(model, sp, flop_weight, n_seq, expected):
    value = tms(TmsQuery(PRESETS[model], n_seq, sp, flop_weight))
    assert round(value, 2) == expected


def test_tms_strictly_increasing_in_n_seq_and_sp():
    preset = PRESETS["1b"]
    seqs = [16384, 32768, 65536, 131072, 262144, 655360, 786432]
    values = [tms(TmsQuery(preset, n, 4, 2.0)) for n in seqs]
    assert all(second > first for first, second in zip(values, values[1:]))
    values = [tms(TmsQuery(preset, 786432, sp, 2.0)) for sp in (2, 4, 8, 16)]
    assert all(second > first for first, second in zip(values, values[1:]))


def test_tms_limits():
    preset = PRESETS["7b"]
    for sp in (2, 4, 8):
        huge = tms(TmsQuery(preset, sp * 2**40, sp, 1.0))
        assert huge == pytest.approx(2 - 1 / sp, rel=1e-6)
    assert tms(TmsQuery(preset, 1024 * 2**40, 1024, 1.0)) == pytest.approx(2.0, rel=1e-3)


def test_tms_is_scale_free():
    preset = PRESETS["3b"]
    query = TmsQuery(preset, 65536, 4, 2.0)
    other = non_attention_flops_per_token(preset)
    attn = attention_flops_per_token(preset, 65536)
    c = 65536 // 4
    ring, striped = (critical_path_required(algo, 4, c) / (4 * c * c) for algo in Algo)
    for scale in (1.0, 137.0, 1e-6):
        numerator = scale * other + 2.0 * scale * attn * ring
        denominator = scale * other + 2.0 * scale * attn * striped
        assert numerator / denominator == pytest.approx(tms(query), rel=1e-12)


def test_tms_query_validation():
    preset = PRESETS["1b"]
    with pytest.raises(ValueError):
        TmsQuery(preset, 16384, 1, 2.0)
    with pytest.raises(ValueError):
        TmsQuery(preset, 1000, 3, 2.0)
    with pytest.raises(ValueError):
        TmsQuery(preset, 16384, 4, 0.0)


@pytest.mark.parametrize("sizes,name", [
    ((1.5, 2, 2, 2, 2), "n_vocab"), ((2, 2, 2, True, 2), "n_layer"), ((2, 2, 2, 2, "2"), "n_head"),
])
def test_model_preset_names_the_non_integer_size(sizes, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        ModelPreset("x", *sizes)


@pytest.mark.parametrize("n_seq,sp", [(1024, 4.0), (1024.0, 4), (1024, True)])
def test_tms_query_rejects_non_integer_sizes(n_seq, sp):
    with pytest.raises(ValueError, match="must be an integer"):
        TmsQuery(PRESETS["1b"], n_seq, sp)


@pytest.mark.parametrize("n_seq,sp,name", [
    (1024, 4.0, "sp"), (1024, True, "sp"), (1024.0, 4, "n_seq"),
])
def test_tms_query_names_the_non_integer_size(n_seq, sp, name):
    # sp=4.0 used to be reported as "n_devices must be an integer".
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        TmsQuery(PRESETS["1b"], n_seq, sp)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_tms_query_rejects_non_finite_flop_weight(weight):
    with pytest.raises(ValueError, match="flop_weight must be positive and finite"):
        TmsQuery(PRESETS["1b"], 16384, 4, weight)


@pytest.mark.parametrize(
    "d_model,weight", [(10**300, 2.0), (2048, 1e308)], ids=["huge-d_model", "huge-weight"]
)
def test_tms_rejects_overflowing_flop_terms(d_model, weight):
    preset = ModelPreset("huge", 32000, d_model, 5504, 22, 16)
    with pytest.raises(ValueError, match="FLOP terms of model 'huge' at n_seq=4096 overflow"):
        tms(TmsQuery(preset, 4096, 2, weight))


def test_tms_table_reproduces_reference_column():
    seqs = [16384, 32768, 65536, 98304, 131072, 196608, 262144]
    got = [(n, round(tms(TmsQuery(PRESETS["1b"], n, 4, 2.0)), 2)) for n in seqs]
    assert got == [
        (16384, 1.46),
        (32768, 1.57),
        (65536, 1.65),
        (98304, 1.68),
        (131072, 1.70),
        (196608, 1.71),
        (262144, 1.72),
    ]


def test_golden_table_loads_and_matches():
    rows = golden_rows()
    assert len(rows) == 137
    hardwares = {row.hardware for row in rows}
    assert hardwares == {"a100", "tpuv3", "tpuv4"}
    assert all(row.flop_weight == (2.0 if row.hardware == "a100" else 1.0) for row in rows)
    deltas = compare_golden(rows)
    outside = [d for d in deltas if not d.within_tolerance]
    assert outside == []
    assert max(abs(d.delta) for d in deltas) <= SPEEDUP_TOLERANCE


def test_golden_rows_returns_a_new_list_each_call():
    rows = golden_rows()
    want = list(rows)
    rows.clear()
    assert golden_rows() == want


def test_golden_rows_rereads_an_explicit_path(tmp_path):
    path = tmp_path / "golden.csv"
    header = "hardware,model,mesh_mp,mesh_sp,n_seq,flop_weight,tms\n"
    path.write_text(header + "a100,1b,2,4,262144,2,1.72\n", encoding="utf-8")
    assert [row.tms for row in golden_rows(path)] == [1.72]
    path.write_text(header + "a100,1b,2,4,262144,2,1.10\n", encoding="utf-8")
    assert [row.tms for row in golden_rows(path)] == [1.10]


def test_load_preset_roundtrip(tmp_path):
    path = tmp_path / "tiny.json"
    payload = {"n_vocab": 1000, "d_model": 64, "d_ff": 256, "n_layer": 2, "n_head": 4}
    path.write_text(json.dumps(payload), encoding="utf-8")
    preset = load_preset(path)
    assert preset == ModelPreset("tiny", 1000, 64, 256, 2, 4)
    value = tms(TmsQuery(preset, 4096, 2, 1.0))
    assert 1.0 < value < 2.0


def test_load_preset_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_vocab": 1000}), encoding="utf-8")
    with pytest.raises(ValueError, match="missing keys"):
        load_preset(path)


TINY = {"n_vocab": 1000, "d_model": 64, "d_ff": 256, "n_layer": 2, "n_head": 4}


@pytest.mark.parametrize("payload", [5, [1, 2], "tiny", None])
def test_load_preset_rejects_non_object(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="must hold a JSON object"):
        load_preset(path)


@pytest.mark.parametrize("value", [None, "64", True, [64], 64.5, float("nan")])
def test_load_preset_rejects_non_whole_values(tmp_path, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TINY, "d_model": value}), encoding="utf-8")
    with pytest.raises(ValueError, match="d_model must be a whole number"):
        load_preset(path)


def test_load_preset_accepts_whole_floats(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({**TINY, "d_model": 64.0, "n_vocab": 1e3}), encoding="utf-8")
    assert load_preset(path) == ModelPreset("tiny", 1000, 64, 256, 2, 4)
