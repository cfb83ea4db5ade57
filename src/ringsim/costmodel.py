"""Analytic matmul-FLOP cost model for ring vs striped scheduling.

Counts, per token and per layer, the matmul FLOPs of a decoder transformer
split into pairwise attention work (which grows with sequence length and
is where the two schedules differ) and everything else (projections, MLP,
amortized output logits). The headline number is the best-case speedup of
the striped schedule over the contiguous one for a whole training step:
the ratio of weighted critical-path FLOPs, treating communication as fully
hidden behind compute. Attention FLOPs can be weighted (e.g. 2x) to model
hardware that executes them in a costlier precision than the rest.

The causal fraction of each schedule, its critical-path pairwise work over
the unmasked work, is exact at the finite block size c = n_seq / sp: it
is the simulator's ``critical_path_required``, counted from the same block
masks the schedule runs. As c grows the fractions tend to (sp - 0.5) / sp
for the contiguous layout and 1/2 for the striped one.

The reference speedup tables this model reproduces are transcribed in
``data/tms_appendix.csv``; ``compare_golden`` recomputes every row.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .attention import check_integer
from .layout import Algo, check_split
from .simulator import critical_path_required

_GOLDEN_RESOURCE = "data/tms_appendix.csv"
PRESET_FIELDS = ("n_vocab", "d_model", "d_ff", "n_layer", "n_head")
SPEEDUP_TOLERANCE = 0.02  # reference tables print 2 decimals


@dataclass(frozen=True)
class ModelPreset:
    """Decoder-transformer hyperparameters the FLOP model needs."""

    name: str
    n_vocab: int
    d_model: int
    d_ff: int
    n_layer: int
    n_head: int

    def __post_init__(self):
        for field_name in PRESET_FIELDS:
            check_integer(field_name, getattr(self, field_name), 1)


PRESETS = {
    "1b": ModelPreset("1b", n_vocab=32000, d_model=2048, d_ff=5504, n_layer=22, n_head=16),
    "3b": ModelPreset("3b", n_vocab=32000, d_model=3200, d_ff=8640, n_layer=26, n_head=32),
    "7b": ModelPreset("7b", n_vocab=32000, d_model=4096, d_ff=11008, n_layer=32, n_head=32),
}


def load_preset(path) -> ModelPreset:
    """Read a preset from a JSON file keyed by the hyperparameter names."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"preset file {path} must hold a JSON object, got {type(raw).__name__}")
    missing = [key for key in PRESET_FIELDS if key not in raw]
    if missing:
        raise ValueError(f"preset file {path} missing keys: {', '.join(missing)}")
    for key in PRESET_FIELDS:
        value = raw[key]  # a JSON number; true/false load as bool and are refused
        if not (type(value) is int or type(value) is float and value.is_integer()):
            raise ValueError(f"preset file {path}: {key} must be a whole number, got {value!r}")
    name = str(raw.get("name", path.stem))
    return ModelPreset(name, **{key: int(raw[key]) for key in PRESET_FIELDS})


def non_attention_flops_per_token(preset: ModelPreset) -> float:
    """Matmul FLOPs per token per layer outside the pairwise score work.

    QKV plus output projections (8 d^2), a two-matrix MLP (4 d d_ff), and
    the vocabulary projection amortized over layers (2 d n_vocab / n_layer).
    """
    d = preset.d_model
    return 8.0 * d * d + 4.0 * d * preset.d_ff + 2.0 * d * preset.n_vocab / preset.n_layer


def attention_flops_per_token(preset: ModelPreset, n_seq: int) -> float:
    """Pairwise matmul FLOPs per token per layer with nothing masked:
    2*n*d for the scores plus 2*n*d for the value contraction."""
    return 4.0 * n_seq * preset.d_model


@dataclass(frozen=True)
class TmsQuery:
    preset: ModelPreset
    n_seq: int
    sp: int                   # sequence-parallel degree (ring size)
    flop_weight: float = 2.0  # attention-FLOP cost relative to other FLOPs

    def __post_init__(self):
        check_split(self.n_seq, check_integer("sp", self.sp, 2))
        if not 0 < self.flop_weight < math.inf:
            raise ValueError(f"flop_weight must be positive and finite, got {self.flop_weight}")


def tms(query: TmsQuery) -> float:
    """Best-case striped-over-ring speedup for a whole training step.

    Returned unrounded (it is strictly increasing in n_seq and sp); round
    to 2 decimals when comparing against published tables. Scale-free: any
    common rescaling of the per-token FLOP terms cancels in the ratio.
    Raises ``ValueError`` when a FLOP term overflows to inf, which would
    make the ratio NaN.
    """
    other = non_attention_flops_per_token(query.preset)
    attn = query.flop_weight * attention_flops_per_token(query.preset, query.n_seq)
    c = query.n_seq // query.sp
    ring, striped = (
        other + attn * (critical_path_required(algo, query.sp, c) / (query.sp * c * c))
        for algo in (Algo.RING, Algo.STRIPED)
    )
    if not (math.isfinite(ring) and math.isfinite(striped)):
        raise ValueError(
            f"FLOP terms of model {query.preset.name!r} at n_seq={query.n_seq} overflow "
            f"(per token: {other:.3g} non-attention, {attn:.3g} weighted attention)"
        )
    return ring / striped


@dataclass(frozen=True)
class GoldenRow:
    hardware: str
    model: str
    mesh: tuple[int, int]
    n_seq: int
    flop_weight: float
    tms: float


@dataclass(frozen=True)
class GoldenDelta:
    row: GoldenRow
    computed: float  # rounded to 2 decimals
    delta: float     # computed - expected, rounded to 2 decimals

    @property
    def within_tolerance(self) -> bool:
        return abs(self.delta) <= SPEEDUP_TOLERANCE + 1e-9


def golden_rows(path=None) -> list[GoldenRow]:
    """Load a reference speedup table (the packaged transcription by default).

    The packaged table is parsed once in a process and each call returns
    a new list of its frozen rows; a file at ``path`` is read on every call.
    """
    if path is None:
        return list(_packaged_golden_rows())
    rows = []
    for rec in csv.DictReader(Path(path).read_text(encoding="utf-8").splitlines()):
        rows.append(
            GoldenRow(
                hardware=rec["hardware"],
                model=rec["model"],
                mesh=(int(rec["mesh_mp"]), int(rec["mesh_sp"])),
                n_seq=int(rec["n_seq"]),
                flop_weight=float(rec["flop_weight"]),
                tms=float(rec["tms"]),
            )
        )
    if not rows:
        raise ValueError("golden table is empty")
    return rows


@functools.lru_cache(maxsize=1)
def _packaged_golden_rows() -> tuple[GoldenRow, ...]:
    with resources.as_file(resources.files("ringsim").joinpath(_GOLDEN_RESOURCE)) as path:
        return tuple(golden_rows(path))


def compare_golden(rows=None) -> list[GoldenDelta]:
    """Recompute every golden row and report computed-minus-expected deltas."""
    rows = golden_rows() if rows is None else rows
    out = []
    for row in rows:
        if row.model not in PRESETS:
            raise ValueError(f"golden row references unknown model preset {row.model!r}")
        value = tms(TmsQuery(PRESETS[row.model], row.n_seq, row.mesh[1], row.flop_weight))
        computed = round(value, 2)
        out.append(GoldenDelta(row=row, computed=computed, delta=round(computed - row.tms, 2)))
    return out
