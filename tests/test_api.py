"""The package's top-level API: the exported names, pinned."""

import ringsim

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
