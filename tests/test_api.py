"""The package's top-level API: the exported names, pinned, and every name
the benchmark harness imports from the package's modules."""

import ast
import importlib
from pathlib import Path

import ringsim

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

EXPORTS = [
    "Algo",
    "Layout",
    "ModelPreset",
    "ORACLE_TOLERANCE",
    "PRESETS",
    "PropertyResult",
    "RoundStats",
    "SPEEDUP_TOLERANCE",
    "SimConfig",
    "SimRun",
    "TmsQuery",
    "WorkStats",
    "compare_golden",
    "critical_path_sum",
    "golden_rows",
    "load_preset",
    "oracle_causal_attention",
    "oracle_error",
    "run_checks",
    "schedule_work_stats",
    "simulate",
    "simulated_speedup",
    "tms",
]


def test_exports_are_pinned():
    assert sorted(ringsim.__all__) == EXPORTS


def test_every_export_resolves():
    for name in ringsim.__all__:
        assert getattr(ringsim, name) is not None, name


def test_every_name_the_benchmark_imports_resolves():
    # A simplification must not delete a name perfbench still imports.
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ringsim")
        for alias in node.names
    ]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
