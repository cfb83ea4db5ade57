"""Simulator and analytic cost model for distributed exact causal attention.

Executes the N-round ring schedule over simulated devices under two token
layouts (contiguous blocks and modulo-N stripes), proves both exact against
a dense reference, accounts per-device work at tile granularity, and
reproduces reference speedup tables with a matmul-FLOP cost model.
"""

from .attention import (
    MaskKind,
    MaskSpec,
    SoftmaxAccumulator,
    TileCensus,
    TileClass,
    accumulate_tile,
    classify_tiles,
    finalize,
    get_mask_ring,
    get_mask_striped,
    oracle_causal_attention,
    tile_census,
)
from .costmodel import (
    PRESETS,
    GoldenDelta,
    GoldenRow,
    ModelPreset,
    TmsQuery,
    TmsRow,
    compare_golden,
    golden_rows,
    load_preset,
    tms,
    tms_table,
    work,
)
from .layout import Layout, PermutedBatch, Scheme, Shard
from .simulator import (
    Algo,
    RoundStats,
    SimConfig,
    SimRun,
    WorkStats,
    make_layout,
    oracle_error,
    random_qkv,
    round_critical_path,
    run_schedule,
    schedule_work_stats,
    simulate,
    simulated_speedup,
)
from .verify import PropertyResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "Algo",
    "GoldenDelta",
    "GoldenRow",
    "Layout",
    "MaskKind",
    "MaskSpec",
    "ModelPreset",
    "PRESETS",
    "PermutedBatch",
    "PropertyResult",
    "RoundStats",
    "Scheme",
    "Shard",
    "SimConfig",
    "SimRun",
    "SoftmaxAccumulator",
    "TileCensus",
    "TileClass",
    "TmsQuery",
    "TmsRow",
    "WorkStats",
    "accumulate_tile",
    "classify_tiles",
    "compare_golden",
    "finalize",
    "get_mask_ring",
    "get_mask_striped",
    "golden_rows",
    "load_preset",
    "make_layout",
    "oracle_causal_attention",
    "oracle_error",
    "random_qkv",
    "round_critical_path",
    "run_checks",
    "run_schedule",
    "schedule_work_stats",
    "simulate",
    "simulated_speedup",
    "tile_census",
    "tms",
    "tms_table",
    "work",
]
