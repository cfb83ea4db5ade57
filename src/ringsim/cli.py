"""Command-line front end: run schedule simulations, reproduce speedup
tables, and drive the self-check suite.

Exit codes: 0 success, 1 a check or property failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .attention import oracle_causal_attention
from .costmodel import (
    PRESETS,
    SPEEDUP_TOLERANCE,
    TmsQuery,
    compare_golden,
    golden_rows,
    load_preset,
    tms,
)
from .simulator import (
    ORACLE_TOLERANCE,
    Algo,
    SimConfig,
    WorkStats,
    critical_path_sum,
    oracle_error,
    round_critical_path,
    simulate,
    simulated_speedup,
)
from .verify import run_checks

# One row per device per round; header mandatory, UTF-8, newline-terminated.
STATS_CSV_HEADER = [
    "algo",
    "round",
    "device",
    "block_index",
    "tiles_total",
    "tiles_skipped",
    "tiles_partial",
    "tiles_full",
    "interactions_computed",
    "interactions_required",
]


@dataclass
class RunReport:
    """Everything cmd_simulate prints; fully determined by flags and seed."""

    label: str
    stats: dict[str, list[WorkStats]]  # by algorithm name, in run order
    oracle_errors: dict[str, float] = field(default_factory=dict)
    speedup: float | None = None


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def build_report(configs: dict[Algo, SimConfig], with_oracle: bool) -> RunReport:
    first = next(iter(configs.values()))
    label = (
        f"devices={first.n_devices} seq_len={first.n_seq} d_head={first.d_head} "
        f"tile={first.tile_q}x{first.tile_k} seed={first.seed} "
        f"precision={first.precision} executor={first.executor}"
    )
    if any(replace(config, algo=first.algo) != first for config in configs.values()):
        raise ValueError("the configs of one report may differ only in algo")
    report = RunReport(label=label, stats={})
    reference = None  # every run draws the same Q, K, V, so one oracle serves all
    for algo, config in configs.items():
        run = simulate(config)
        report.stats[algo.value] = run.stats
        if with_oracle:
            if reference is None:
                reference = oracle_causal_attention(run.q, run.k, run.v, scale=config.scale)
            report.oracle_errors[algo.value] = oracle_error(run, reference)
    if len(configs) == 2:
        report.speedup = simulated_speedup(report.stats["ring"], report.stats["striped"])
    return report


def _print_report(report: RunReport, precision: str) -> None:
    print(report.label)
    for algo, stats in report.stats.items():
        print(f"-- {algo} --")
        print(
            f"{'round':>5} {'critical':>10} {'computed':>11} "
            f"{'required':>11} {'skipped':>8} {'tiles':>7}"
        )
        for i in range(len(stats)):
            per_round = [ws.rounds[i] for ws in stats]
            print(
                f"{i:>5} {round_critical_path(stats, i):>10} "
                f"{sum(r.interactions_computed for r in per_round):>11} "
                f"{sum(r.interactions_required for r in per_round):>11} "
                f"{sum(r.tiles_skipped for r in per_round):>8} "
                f"{sum(r.tiles_total for r in per_round):>7}"
            )
        computed = sum(rs.interactions_computed for ws in stats for rs in ws.rounds)
        required = sum(rs.interactions_required for ws in stats for rs in ws.rounds)
        print(
            f"totals: critical-path sum={critical_path_sum(stats)} "
            f"computed={computed} required={required}"
        )
        if algo in report.oracle_errors:
            err = report.oracle_errors[algo]
            tol = ORACLE_TOLERANCE[precision]
            verdict = "OK" if err <= tol else "FAIL"
            print(f"oracle max abs error: {err:.3e} (tolerance {tol:g}): {verdict}")
    if report.speedup is not None:
        print(f"simulated speedup (ring / striped critical-path sums): {report.speedup:.4f}")


def _write_stats_csv(path: str, runs: list[tuple[str, list[WorkStats]]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_CSV_HEADER)
        for algo, stats in runs:
            for i in range(len(stats)):
                for ws in stats:
                    rs = ws.rounds[i]
                    writer.writerow(
                        [
                            algo,
                            rs.round,
                            ws.device,
                            rs.block_index,
                            rs.tiles_total,
                            rs.tiles_skipped,
                            rs.tiles_partial,
                            rs.tiles_full,
                            rs.interactions_computed,
                            rs.interactions_required,
                        ]
                    )


def cmd_simulate(args) -> int:
    algos = [Algo.RING, Algo.STRIPED] if args.algo == "both" else [Algo(args.algo)]
    try:
        configs = {
            algo: SimConfig(
                algo=algo,
                n_devices=args.devices,
                n_seq=args.seq_len,
                d_head=args.d_head,
                tile_q=args.tile_q,
                tile_k=args.tile_k,
                seed=args.seed,
                precision=args.precision,
                scale=args.scale,
                executor=args.executor,
            )
            for algo in algos
        }
    except ValueError as exc:
        return _usage_error(str(exc))

    report = build_report(configs, with_oracle=args.with_oracle)
    _print_report(report, args.precision)
    if args.csv:
        _write_stats_csv(args.csv, list(report.stats.items()))
        print(f"wrote per-device round stats to {args.csv}")

    tolerance = ORACLE_TOLERANCE[args.precision]
    failed = [a for a, err in report.oracle_errors.items() if err > tolerance]
    if failed:
        print(f"oracle check failed for: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _resolve_preset(name_or_path: str):
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]
    if Path(name_or_path).is_file():
        return load_preset(name_or_path)
    raise ValueError(f"unknown preset {name_or_path!r} (use 1b/3b/7b or a JSON preset file)")


def _run_golden_compare(args) -> int:
    deltas = compare_golden(golden_rows(args.golden))
    if args.model:
        deltas = [d for d in deltas if d.row.model == args.model]
    if args.sp is not None:
        deltas = [d for d in deltas if d.row.mesh[1] == args.sp]
    if not deltas:
        return _usage_error("no golden rows match the given filters")
    print(f"{'model':>5} {'mesh':>6} {'n_seq':>8} {'w':>3} {'expected':>8} {'computed':>8} {'delta':>6}")
    for d in deltas:
        mesh = f"{d.row.mesh[0]}x{d.row.mesh[1]}"
        print(
            f"{d.row.model:>5} {mesh:>6} {d.row.n_seq:>8} {d.row.flop_weight:>3g} "
            f"{d.row.tms:>8.2f} {d.computed:>8.2f} {d.delta:>+6.2f}"
        )
    bad = [d for d in deltas if not d.within_tolerance]
    worst = max(abs(d.delta) for d in deltas)
    print(
        f"compared {len(deltas)} rows: max |delta| = {worst:.2f}, "
        f"{len(bad)} outside +/-{SPEEDUP_TOLERANCE}"
    )
    return 1 if bad else 0


def cmd_tms(args) -> int:
    if args.golden:
        try:
            return _run_golden_compare(args)
        except (OSError, ValueError, KeyError) as exc:
            return _usage_error(str(exc))
    if not args.model or args.sp is None or not args.seq_len:
        return _usage_error("tms needs --model, --sp and --seq-len (or --golden PATH)")
    try:
        preset = _resolve_preset(args.model)
        queries = [TmsQuery(preset, n, args.sp, args.flop_weight) for n in args.seq_len]
        rows = [(q.n_seq, round(tms(q), 2)) for q in queries]
    except ValueError as exc:
        return _usage_error(str(exc))
    print(f"# model={preset.name} sp={args.sp} flop_weight={args.flop_weight:g}")
    print(f"{'n_seq':>9} {'TMS':>6}")
    for n_seq, value in rows:
        print(f"{n_seq:>9} {value:>6.2f}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "sp", "flop_weight", "n_seq", "tms"])
            for n_seq, value in rows:
                writer.writerow([preset.name, args.sp, args.flop_weight, n_seq, f"{value:.2f}"])
        print(f"wrote TMS rows to {args.csv}")
    return 0


def cmd_verify(args) -> int:
    results = run_checks(quick=args.quick)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name:<22} {result.detail}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringsim",
        description=(
            "Simulate exact causal attention scheduled over a ring of devices "
            "(contiguous or striped token layout), account per-device work, and "
            "evaluate the analytic speedup model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the schedule simulator")
    p.add_argument("--algo", choices=["ring", "striped", "both"], default="both")
    p.add_argument("--devices", type=int, default=4, help="ring size N")
    p.add_argument("--seq-len", type=int, default=1024)
    p.add_argument("--d-head", type=int, default=64)
    p.add_argument("--tile-q", type=int, default=64)
    p.add_argument("--tile-k", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", choices=["single", "double"], default="double")
    p.add_argument("--scale", action="store_true", help="apply 1/sqrt(d_head) to scores")
    p.add_argument("--executor", choices=["serial", "threads"], default="serial")
    p.add_argument("--check-oracle", action="store_true", dest="with_oracle",
                   help="compare the reassembled output against the dense reference")
    p.add_argument("--csv", metavar="PATH", help="write per-device per-round stats")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tms", help="evaluate the analytic speedup model")
    p.add_argument("--model", help="1b|3b|7b or path to a JSON preset file")
    p.add_argument("--sp", type=int, help="sequence-parallel degree")
    p.add_argument("--seq-len", type=int, nargs="+", help="one or more sequence lengths")
    p.add_argument("--flop-weight", type=float, default=2.0,
                   help="attention FLOP cost relative to other FLOPs (2 GPU, 1 TPU)")
    p.add_argument("--csv", metavar="PATH", help="write the computed rows")
    p.add_argument("--golden", metavar="PATH",
                   help="compare against a transcribed reference CSV and report deltas")
    p.set_defaults(func=cmd_tms)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--quick", action="store_true", help="reduced sweep")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
