"""The benchmark's own tests: python -m pytest perfbench (about a minute)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def one_cold_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPS", 1)


def _short(name, trace=False):
    return harness.run(WORKLOADS[name], seed=3, seconds=0, trace=trace, root=ROOT)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_each_workload(name):
    for trace, names in ((True, harness.PER_LAYER), (False, harness.END_TO_END)):
        result = _short(name, trace)
        assert result.correct, result.problems
        assert result.failed == 0 and result.attempted >= 2
        assert list(result.metrics) == [n for n, _ in names]
    assert all(v > 0 for v, _ in result.metrics.values())


def test_counts_repeat_exactly():
    runs = [_short("threaded", trace=True).metrics for _ in range(2)]
    for name, unit in harness.PER_LAYER:
        if unit in ("count", "bytes") or name == "simulator.simulated_speedup":
            assert runs[0][name] == runs[1][name], name


def test_wrong_output_raises_fail_ratio(monkeypatch):
    from ringsim.layout import Layout

    gather = Layout.gather
    monkeypatch.setattr(Layout, "gather", lambda self, shards: gather(self, shards) + 1e-6)
    result = _short("fine-tiles")
    assert not result.correct
    # The cold set-up runs in a fresh interpreter, without the injected fault.
    assert result.failed == result.attempted - 1
    assert any("oracle max abs error" in p for p in result.problems)


def test_failed_property_raises_fail_ratio(monkeypatch):
    from ringsim import verify

    monkeypatch.setattr(
        verify, "check_masks", lambda: verify.PropertyResult("mask-exhaustive", False, "injected")
    )
    result = _short("checks", trace=True)
    assert result.failed == result.attempted
    assert result.metrics["verify.properties_failed"][0] == 1


def test_self_times_on_synthetic_span_tree():
    spans = [
        Span("job", 0.0, 10.0, None, "0"),
        Span("a", 1.0, 4.0, 0, "0"),
        Span("a.inner", 2.0, 3.0, 1, "0"),
        Span("b", 3.5, 6.0, 0, "0"),   # overlaps a: the overlap is covered once
        Span("c", 9.0, 12.0, 0, "0"),  # overhangs job: only 9..10 is covered
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_records_parents_and_jobs():
    tr = Tracer()
    tr.job = "7"
    with tr.span("job"):
        with tr.span("layer", "ring"):
            pass
    assert [(s.name, s.parent, s.job, s.tag) for s in tr.spans] == [
        ("job", None, "7", None),
        ("layer", 0, "7", "ring"),
    ]
    own = self_times(tr.spans)
    assert own[0] + own[1] == pytest.approx(tr.spans[0].end - tr.spans[0].start)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert harness.tail([float(x) for x in range(30)]) == (19.0, pytest.approx(200 / 3), 30)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_compare_verdicts():
    parent = [1.0 + 0.001 * i for i in range(10)]
    assert compare.verdict(parent, [x * 0.8 for x in parent], "lower", 0.1) == "better"
    assert compare.verdict(parent, [x * 1.3 for x in parent], "lower", 0.1) == "worse"
    assert compare.verdict(parent, [x * 1.3 for x in parent], "higher", 0.1) == "better"
    assert compare.verdict(parent, [x * 1.01 for x in parent], "lower", 0.1) == "within bound"
    noisy = [1.0, 2.0] * 5
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1) == "unresolved"
    assert compare.verdict(parent[:5], [x * 0.8 for x in parent[:5]], "lower", 0.1) == (
        "within bound"  # a gain needs at least ten pairs
    )


def _result_set(path, spec, seeds, seconds=50, failed=0, scale=1.0):
    with path.open("w") as fh:
        for seed in seeds:
            metrics = {m["name"]: {"value": scale * (1.0 + 0.001 * (seed % 10)), "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            result = {"correct": not failed, "attempted": 40, "failed": failed, "metrics": metrics}
            fh.write(json.dumps({"workload": "checks", "seed": seed, "seconds": seconds,
                                 "trace": 0, "result": result}) + "\n")
    return path


def test_compare_pairs_runs_by_seed(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = _result_set(tmp_path / "parent.jsonl", spec, range(10))
    change = _result_set(tmp_path / "change.jsonl", spec, range(10))
    lines = compare.compare(parent, change, spec)[1:]
    assert len(lines) == len(spec["end_to_end"])
    assert all("within bound (10 pairs" in line for line in lines)
    other = _result_set(tmp_path / "other.jsonl", spec, range(100, 110))
    assert "fewer than 2 runs paired by seed" in compare.compare(parent, other, spec)[1]


def test_compare_refuses_more_failures_or_other_seconds(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = _result_set(tmp_path / "parent.jsonl", spec, range(10))
    faster_but_wrong = _result_set(tmp_path / "wrong.jsonl", spec, range(10), failed=1, scale=0.5)
    lines = compare.compare(parent, faster_but_wrong, spec)
    assert lines[1:] == ["checks       change failed 10/400 jobs, parent 0/400: no verdict"]
    shorter = _result_set(tmp_path / "short.jsonl", spec, range(10), seconds=10)
    lines = compare.compare(parent, shorter, spec)
    assert len(lines) == 2 and "different --seconds" in lines[1]


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {w["name"] for w in spec["workloads"]}
    assert gated <= set(WORKLOADS) and len(gated) >= 2
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_cli_prints_result_last_and_fails_without_sources(tmp_path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "threaded", "--seed", "1",
           "--seconds", "0", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
