"""ringsim benchmark: run one workload, or compare two result sets.

    python3 perfbench/run.py --workload fine-tiles --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload checks --seed 1 --seconds 50 --trace 1 --out r.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run prints the environment, every metric by name with its unit, and as its
last line one JSON object {correct, attempted, failed, metrics}. It exits 1
when any job fails its correctness gate, and also, with a message on
standard error and no result, when ringsim cannot be imported from this
checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread, whatever the caller's environment says: on a shared 2-core
# machine the default pool spin-waits, which inflated CPU per job by half and
# widened the run-to-run spread. Set before numpy loads; child processes
# inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _import_checkout_ringsim() -> None:
    src = ROOT / "src"
    if not (src / "ringsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no ringsim package under {src}; run from a ringsim checkout")
    sys.path.insert(0, str(src))
    import ringsim

    if not Path(ringsim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported ringsim from {ringsim.__file__}, not from {src}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the result record to this JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        import compare

        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        print("\n".join(compare.compare(*args.compare, spec)))
        return 0
    _import_checkout_ringsim()
    import envinfo
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: --workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = envinfo.environment(ROOT, args.seed)
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# seed {args.seed}, {args.seconds:g} s closed loop, one client, trace={args.trace}")
    print("# env " + json.dumps(env))
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit:<8} {result.notes.get(name, '')}")
    ratio = result.failed / result.attempted
    print(f"{'fail_ratio':<40} {ratio:>16.6g} {'ratio':<8} "
          f"{result.failed} failed / {result.attempted} attempted jobs, warm-ups and cold set-ups included")
    if not args.trace:
        print(f"{'simulated_speedup':<40} {workload.speedup!r:>16} {'ratio':<8} "
              f"counted, beside job_s_p50 {result.metrics['job_s_p50'][0]:.4g} s; the measured "
              f"critical path waits for per-(device, round) spans inside ringsim")
    for problem in dict.fromkeys(result.problems):
        print(f"# GATE FAILED: {problem}")
    if result.tracer is not None:
        out_dir = ROOT / "perfbench" / "results"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
        result.tracer.write(trace_path)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    summary = result.summary()
    if args.out:
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "result": summary}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
