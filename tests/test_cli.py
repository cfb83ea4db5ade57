import csv
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from ringsim import cli, simulator, verify
from ringsim.attention import MaskKind, MaskSpec
from ringsim.cli import STATS_CSV_HEADER, main
from ringsim.simulator import Algo, SimConfig

DATA = Path(__file__).parent / "data"


def test_simulate_both_with_oracle_check(capsys):
    code = main(
        "simulate --algo both --devices 4 --seq-len 256 --d-head 16 "
        "--tile-q 16 --tile-k 16 --seed 7 --check-oracle".split()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("oracle max abs error") == 2
    assert "OK" in out
    assert "simulated speedup" in out


def test_simulate_stdout_matches_fixture(capsys):
    code = main(
        "simulate --algo both --devices 4 --seq-len 64 --tile-q 4 --tile-k 8 "
        "--check-oracle".split()
    )
    assert code == 0
    want = (DATA / "simulate_both_oracle.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_simulate_rejects_non_dividing_devices(capsys):
    code = main("simulate --devices 3 --seq-len 16 --tile-q 1 --tile-k 1".split())
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_a_negative_seed(capsys):
    code = main("simulate --devices 2 --seq-len 8 --tile-q 1 --tile-k 1 --seed -1".split())
    assert code == 2
    assert "error: seed must be at least 0, got -1" in capsys.readouterr().err


def test_simulate_rejects_non_dividing_tiles(capsys):
    code = main("simulate --devices 4 --seq-len 16 --tile-q 3 --tile-k 1".split())
    assert code == 2


def test_simulate_csv_schema_and_round1_imbalance(tmp_path, capsys):
    path = tmp_path / "stats.csv"
    code = main(
        f"simulate --algo ring --devices 4 --seq-len 16 --d-head 4 "
        f"--tile-q 1 --tile-k 1 --seed 0 --csv {path}".split()
    )
    assert code == 0
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == STATS_CSV_HEADER
    assert len(rows) == 16  # 4 devices x 4 rounds
    c = 4
    round1 = [int(r["interactions_required"]) for r in rows if r["round"] == "1"]
    assert set(round1) == {0, c * c}
    for r in rows:
        skipped = int(r["tiles_skipped"])
        partial = int(r["tiles_partial"])
        full = int(r["tiles_full"])
        assert skipped + partial + full == int(r["tiles_total"])
        assert int(r["block_index"]) == (int(r["device"]) - int(r["round"])) % 4


def test_simulate_csv_bytes_are_deterministic(tmp_path, capsys):
    args = "simulate --algo both --devices 2 --seq-len 16 --d-head 4 --tile-q 2 --tile-k 2 --seed 3"
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args.split() + ["--csv", str(first)]) == 0
    assert main(args.split() + ["--csv", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "args,expected",
    [
        ("tms --model 1b --sp 4 --flop-weight 2 --seq-len 262144", "1.72"),
        ("tms --model 3b --sp 8 --flop-weight 1 --seq-len 786432", "1.84"),
        ("tms --model 1b --sp 2 --flop-weight 2 --seq-len 131072", "1.46"),
    ],
)
def test_tms_reference_values(capsys, args, expected):
    assert main(args.split()) == 0
    assert expected in capsys.readouterr().out


def test_tms_unknown_preset(capsys):
    assert main("tms --model nope --sp 4 --seq-len 1024".split()) == 2
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_tms_rejects_non_finite_flop_weight(capsys, weight):
    argv = f"tms --model 1b --sp 4 --seq-len 16384 --flop-weight {weight}".split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "flop_weight must be positive and finite" in captured.err
    assert "TMS" not in captured.out


@pytest.mark.parametrize(
    "text,message",
    [
        ("5", "must hold a JSON object"),
        ('{"n_vocab": null, "d_model": 64, "d_ff": 256, "n_layer": 2, "n_head": 4}',
         "n_vocab must be a whole number"),
        ('{"n_vocab": 1000, "d_model": 2048.5, "d_ff": 256, "n_layer": 2, "n_head": 4}',
         "d_model must be a whole number"),
    ],
    ids=["scalar", "null", "fraction"],
)
def test_tms_rejects_bad_preset_file(capsys, tmp_path, text, message):
    path = tmp_path / "preset.json"
    path.write_text(text, encoding="utf-8")
    assert main(["tms", "--model", str(path), "--sp", "2", "--seq-len", "4096"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "d_model,weight", [("1e300", "2"), ("2048", "1e308")], ids=["huge-d_model", "huge-weight"]
)
def test_tms_rejects_overflowing_flop_terms(capsys, tmp_path, d_model, weight):
    path = tmp_path / "huge.json"
    path.write_text(
        f'{{"n_vocab": 32000, "d_model": {d_model}, "d_ff": 5504, "n_layer": 22, "n_head": 16}}',
        encoding="utf-8",
    )
    argv = ["tms", "--model", str(path), "--sp", "2", "--seq-len", "4096", "--flop-weight", weight]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "FLOP terms of model 'huge' at n_seq=4096 overflow" in captured.err
    assert "TMS" not in captured.out


def test_simulate_both_computes_the_oracle_once(monkeypatch, capsys):
    calls = []
    real = cli.oracle_causal_attention
    monkeypatch.setattr(
        cli, "oracle_causal_attention", lambda *a, **kw: calls.append(1) or real(*a, **kw)
    )
    argv = "simulate --algo both --devices 2 --seq-len 32 --tile-q 4 --tile-k 4 --check-oracle"
    assert main(argv.split()) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.count(": OK") == 2


def test_build_report_rejects_configs_with_different_inputs():
    base = dict(n_devices=2, n_seq=16, d_head=4, tile_q=2, tile_k=2)
    configs = {
        Algo.RING: SimConfig(algo=Algo.RING, seed=1, **base),
        Algo.STRIPED: SimConfig(algo=Algo.STRIPED, seed=2, **base),
    }
    with pytest.raises(ValueError, match="may differ only in algo"):
        cli.build_report(configs, with_oracle=True)


def test_exactness_sweep_computes_one_oracle_per_input(monkeypatch):
    calls = []
    real = verify.oracle_causal_attention
    monkeypatch.setattr(
        verify, "oracle_causal_attention", lambda *a, **kw: calls.append(1) or real(*a, **kw)
    )
    exactness, conservation = verify.check_exactness(quick=True)
    assert exactness.passed and conservation.passed
    assert exactness.detail.startswith("16 runs")
    assert len(calls) == 4  # (n_seq, seed) in {16, 64} x {0, 1}


def test_exactness_sweep_draws_each_input_once(monkeypatch):
    calls = []
    real = verify.random_qkv
    monkeypatch.setattr(verify, "random_qkv", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    exactness, _ = verify.check_exactness(quick=True)
    assert exactness.passed
    assert len(calls) == 4  # one draw per (n_seq, seed), shared by both layouts and every N


@pytest.mark.parametrize(
    "quick,n_seq,seed", [(True, 64, 1), (False, 256, 3)], ids=["quick", "full"]
)
def test_exactness_detail_names_the_first_config_with_a_wrong_reference(
    monkeypatch, quick, n_seq, seed
):
    # One input's oracle output is off by 1e-6. Its stack folds passing
    # seeds with it, and the first config in sweep order that reads it is
    # the contiguous layout at N = 2: the detail names that config.
    real = verify.oracle_causal_attention
    wrong_q = verify.random_qkv(n_seq, 16, seed)[0]

    def one_wrong_reference(q, k, v, scale=False):
        out = real(q, k, v, scale=scale)
        if np.array_equal(q, wrong_q):
            out[n_seq // 2, 3] += 1e-6
        return out

    monkeypatch.setattr(verify, "oracle_causal_attention", one_wrong_reference)
    exactness, conservation = verify.check_exactness(quick=quick)
    assert not exactness.passed and not conservation.passed
    assert exactness.detail.startswith(
        f"algo=ring N=2 n_seq={n_seq} seed={seed}: max abs err 1.000e-06 > 1e-09"
    )


def test_exactness_detail_names_a_failing_stack_by_its_first_config(monkeypatch):
    # Blocks of 16 rows occur first at ring, N = 4, n_seq = 64 in the quick
    # sweep; the fault does not depend on the seed, so the stack's first
    # config is named, as a run of that config alone would be.
    real = simulator.accumulate_block

    def faulty(state, q, k, v, mask):
        if mask.block_rows == 16:
            raise RuntimeError("injected")
        return real(state, q, k, v, mask)

    monkeypatch.setattr(simulator, "accumulate_block", faulty)
    exactness, conservation = verify.check_exactness(quick=True)
    assert exactness.detail == "algo=ring N=4 n_seq=64 seed=0: injected"
    assert conservation.detail == "not evaluated (algo=ring N=4 n_seq=64 seed=0 failed)"


@pytest.mark.parametrize(
    "family,wrong,detail",
    [
        # Block 1 precedes block 2 in the contiguous layout: fully unmasked.
        ("ring", (3, 2, 2, 1, MaskKind.FULLY_MASKED), "ring mask wrong at N=3 c=2 j=2 k=1"),
        # Stripe 3 after stripe 1: the exclusive triangle.
        ("striped", (4, 3, 1, 3, MaskKind.CAUSAL_INCLUSIVE),
         "striped mask wrong at N=4 c=3 j=1 k=3"),
    ],
)
def test_mask_check_names_the_wrong_pair(monkeypatch, family, wrong, detail):
    n, c, j, k, kind = wrong
    name = f"get_mask_{family}"
    real = getattr(verify, name)

    def one_wrong_mask(a, b, size, n_devices=None):
        if (n_devices, size, a, b) == (n, c, j, k):
            return MaskSpec(kind, size, size)
        return real(a, b, size, n_devices=n_devices)

    monkeypatch.setattr(verify, name, one_wrong_mask)
    result = verify.check_masks()
    assert not result.passed
    assert result.detail == detail


def test_tile_check_names_the_first_wrong_tile(monkeypatch):
    real_classify = verify.classify_tiles

    def one_wrong_class(mask, tq, tk):
        grid = real_classify(mask, tq, tk)
        if mask.kind is MaskKind.CAUSAL_INCLUSIVE and (mask.block_rows, tq, tk) == (16, 2, 3):
            grid[5, 2] = 0  # skip; rows 10-11 see keys 6-8: a full tile
        return grid

    monkeypatch.setattr(verify, "classify_tiles", one_wrong_class)
    result = verify.check_tiles()
    assert not result.passed
    assert result.detail == (
        "causal_inclusive block 16x48 tiles 2x3 tile (5,2): skip != full"
    )

    monkeypatch.setattr(verify, "classify_tiles", real_classify)
    real_count = MaskSpec.count_allowed

    def one_wrong_count(self):
        count = real_count(self)
        if self.kind is MaskKind.FULLY_UNMASKED and (self.block_rows, self.block_cols) == (8, 8):
            count += 1
        return count

    monkeypatch.setattr(MaskSpec, "count_allowed", one_wrong_count)
    result = verify.check_tiles()
    assert not result.passed
    assert result.detail == "fully_unmasked block 8x8: count_allowed mismatch"


def test_tms_missing_flags(capsys):
    assert main(["tms"]) == 2


def test_tms_golden_comparison(capsys):
    with resources.as_file(resources.files("ringsim").joinpath("data/tms_appendix.csv")) as p:
        code = main(["tms", "--golden", str(p)])
    out = capsys.readouterr().out
    assert code == 0
    assert "compared 137 rows" in out
    assert "0 outside" in out


def test_tms_golden_output_matches_fixture(capsys):
    with resources.as_file(resources.files("ringsim").joinpath("data/tms_appendix.csv")) as p:
        assert main(["tms", "--golden", str(p)]) == 0
    want = (DATA / "tms_golden.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_tms_golden_filters_by_an_sp_of_0(capsys):
    # --sp 0 used to compare all 137 rows: 0 is falsy, so it filtered nothing.
    with resources.as_file(resources.files("ringsim").joinpath("data/tms_appendix.csv")) as p:
        assert main(["tms", "--golden", str(p), "--sp", "0"]) == 2
    assert "error: no golden rows match the given filters" in capsys.readouterr().err


def test_tms_golden_detects_bad_rows(capsys, tmp_path):
    bad = tmp_path / "golden.csv"
    bad.write_text(
        "hardware,model,mesh_mp,mesh_sp,n_seq,flop_weight,tms\n"
        "a100,1b,2,4,262144,2,1.10\n",
        encoding="utf-8",
    )
    assert main(["tms", "--golden", str(bad)]) == 1


def test_verify_quick_passes_fast(capsys):
    start = time.monotonic()
    code = main(["verify", "--quick"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert code == 0
    assert len(lines) >= 6
    assert all(line.startswith("PASS") for line in lines)
    assert elapsed < 60.0


def test_exactness_check_catches_flipped_striped_mask(monkeypatch):
    # Swap the inclusive/exclusive inequality and the sweep must fail.
    def flipped(j, k, c, n_devices=None):
        kind = MaskKind.CAUSAL_EXCLUSIVE if k <= j else MaskKind.CAUSAL_INCLUSIVE
        return MaskSpec(kind, c, c)

    monkeypatch.setattr("ringsim.simulator.get_mask_striped", flipped)
    exactness, _ = verify.check_exactness(quick=True)
    assert not exactness.passed


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ringsim", "tms", "--model", "7b", "--sp", "8",
         "--flop-weight", "1", "--seq-len", "32768"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1.40" in proc.stdout


def test_tms_names_a_bad_sp(capsys):
    # --sp 0 used to be reported as a missing flag.
    assert main("tms --model 1b --sp 0 --seq-len 1024".split()) == 2
    assert "error: sp must be at least 2, got 0" in capsys.readouterr().err
