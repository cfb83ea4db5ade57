"""Simulator and analytic cost model for distributed exact causal attention.

Executes the N-round ring schedule over simulated devices under two token
layouts (contiguous blocks and modulo-N stripes), proves both exact against
a dense reference, accounts per-device work at tile granularity, and
reproduces reference speedup tables with a matmul-FLOP cost model.

The names below are the API the command line is built on. Masks, tile
classification and the streaming-softmax accumulator live in
``ringsim.attention``; the schedule's executors in ``ringsim.simulator``.
"""

from .attention import oracle_causal_attention
from .costmodel import (
    PRESETS,
    SPEEDUP_TOLERANCE,
    ModelPreset,
    TmsQuery,
    compare_golden,
    golden_rows,
    load_preset,
    tms,
)
from .layout import Algo, Layout
from .simulator import (
    ORACLE_TOLERANCE,
    RoundStats,
    SimConfig,
    SimRun,
    WorkStats,
    critical_path_sum,
    oracle_error,
    schedule_work_stats,
    simulate,
    simulated_speedup,
)
from .verify import PropertyResult, run_checks

__version__ = "0.1.0"

__all__ = [
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
