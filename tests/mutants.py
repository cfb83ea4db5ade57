"""Mutation check of the tier-1 suite: every mutant below must make it fail.

Run by hand from anywhere: ``python tests/mutants.py``. pytest does not
collect this file. Each mutant is one exact string replacement that must
match its file exactly once; it is applied to a fresh copy of ``src/`` in
a temporary directory of its own, and the tier-1 suite (``tests/``) runs
against that copy with ``-x -q`` and its own ``--basetemp``. The runner
checks that ``ringsim`` was imported from the copy before it starts
pytest. The unmutated copy runs first, alone, and must pass, so a mutant
counts as killed only because of what it changed. Then the mutants run
``WORKERS`` at a time; their results are printed in ``MUTANTS`` order.

Exit status: 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # the mutants run two at a time, one suite process each, on a 2-core machine

# (name, file under src/ringsim, exact text, replacement)
MUTANTS = [
    (
        "_tile_bounds clips the skip start at 1, not 0",
        "attention.py",
        "np.maximum((line + tile_q - 1) // tile_k + 1, 0)",
        "np.maximum((line + tile_q - 1) // tile_k + 1, 1)",
    ),
    (
        "count_allowed counts the exclusive triangle as inclusive",
        "attention.py",
        "        s, width = self.diagonal + 1, self.block_cols",
        "        s, width = self.diagonal + 1 + (self.diagonal == -1), self.block_cols",
    ),
    (
        "striped mask wrong at one (j, k)",
        "attention.py",
        "    kind = MaskKind.CAUSAL_INCLUSIVE if k <= j else MaskKind.CAUSAL_EXCLUSIVE",
        "    kind = (MaskKind.CAUSAL_INCLUSIVE if k <= j or (j, k) == (2, 3)\n"
        "            else MaskKind.CAUSAL_EXCLUSIVE)",
    ),
    (
        "group K/V slice shifted by one device",
        "simulator.py",
        "        k0 = (a - i) % n  #",
        "        k0 = (a + 1 - i) % n  #",
    ),
    (
        "one ulp added to acc in _fold",
        "attention.py",
        "    acc += p @ v_tile\n",
        "    acc += p @ v_tile\n    acc[...] = np.nextafter(acc, np.inf)\n",
    ),
    (
        "threaded executor: a failing worker does not abort its peers",
        "simulator.py",
        "            for inbox in inboxes:\n",
        "            for inbox in []:\n",
    ),
    (
        "check_sequence casts without errstate",
        "attention.py",
        '            with np.errstate(over="raise"):\n'
        "                arr = arr.astype(dtype)\n",
        "            arr = arr.astype(dtype)\n",
    ),
    (
        "check_integer's early return lets bool through",
        "attention.py",
        "    if type(value) is not int:",
        "    if type(value) not in (int, bool):",
    ),
    (
        "finalize raises only when every row is dead",
        "attention.py",
        "    if not state.l.all():",
        "    if not state.l.any():",
    ),
    (
        "random_qkv without its dtype check",
        "simulator.py",
        "    if _as_dtype(dtype) not in (np.float32, np.float64):",
        "    if False:",
    ),
    (
        "SoftmaxAccumulator.fresh takes an empty shape",
        "attention.py",
        "        if not shape:\n",
        "        if False:\n",
    ),
    (
        "SoftmaxAccumulator.fresh takes a non-float dtype",
        "attention.py",
        '        if dtype.kind != "f":',
        "        if False:",
    ),
    (
        "critical_path_required takes the lighter relation",
        "simulator.py",
        "    return own[-1] + (n - 1) * max(below[-1], above[-1])",
        "    return own[-1] + (n - 1) * min(below[-1], above[-1])",
    ),
    (
        "accumulate_block visits the exclusive triangle's dead row 0",
        "attention.py",
        "        for r0 in range(max(0, -d), rows, _CHUNK_ROWS):",
        "        for r0 in range(0, rows, _CHUNK_ROWS):",
    ),
    (
        "accumulate_block gives every device of a group the first one's V",
        "attention.py",
        "scores, v[a:b, :width])",
        "scores, v[a:a + 1, :width])",
    ),
    (
        "Layout keeps a scheme name uncoerced",
        "layout.py",
        '        object.__setattr__(self, "scheme", Algo(self.scheme))\n',
        "",
    ),
    (
        "run_schedule checks only the dtype kind",
        "simulator.py",
        "(n, c, width), config.dtype)",
        "(n, c, width),\n"
        "                    x.dtype if x.dtype.kind == np.dtype(config.dtype).kind\n"
        "                    else config.dtype)",
    ),
    (
        "check_integer accepts bool sizes",
        "attention.py",
        "    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
        "    if not isinstance(value, (int, np.integer)):",
    ),
    (
        "striped positions() not transposed",
        "layout.py",
        "        return order.reshape(self.block_size, self.n_devices).T",
        "        return order.reshape(self.n_devices, self.block_size)",
    ),
    (
        "_device_rounds swaps the below and above masks",
        "simulator.py",
        "(max(i, first), stop, below if i else own),\n"
        "                           (first, min(i, stop), above)):",
        "(max(i, first), stop, above if i else own),\n"
        "                           (first, min(i, stop), below)):",
    ),
    (
        "check_split without its n_seq check",
        "layout.py",
        '    n_seq = check_integer("n_seq", n_seq, n_devices)\n',
        "",
    ),
    (
        "_check_block_indices without its upper bounds",
        "attention.py",
        'check_integer("j", j, 0, n_devices), check_integer("k", k, 0, n_devices)',
        'check_integer("j", j, 0), check_integer("k", k, 0)',
    ),
    (
        "SimConfig not frozen",
        "simulator.py",
        "@dataclass(frozen=True)\nclass SimConfig:",
        "@dataclass\nclass SimConfig:",
    ),
    (
        "SimConfig accepts a negative seed",
        "simulator.py",
        '("tile_k", 1), ("seed", 0)',
        '("tile_k", 1), ("seed", None)',
    ),
    (
        "simulate takes any number of input arrays",
        "simulator.py",
        "                q, k, v = given\n",
        "                q, k, v = (list(given) * 3)[:3]\n",
    ),
    (
        "WorkStats not frozen",
        "simulator.py",
        "@dataclass(frozen=True)\nclass WorkStats:",
        "@dataclass\nclass WorkStats:",
    ),
    (
        "schedule_work_stats passes tile_q to the cache unchecked",
        "simulator.py",
        '    tile_q, tile_k = check_integer("tile_q", tile_q), check_integer("tile_k", tile_k)\n',
        '    tile_k = check_integer("tile_k", tile_k)\n',
    ),
    (
        "schedule_work_stats hands every caller one shared list per key",
        "simulator.py",
        "    return list(expand(Algo(algo), n, c, tile_q, tile_k))\n",
        "    key = (Algo(algo), n, c, tile_q, tile_k)\n"
        "    return _LISTS.setdefault(key, list(expand(*key)))\n\n\n_LISTS = {}\n",
    ),
    (
        "schedule_work_stats caches the expansion at every N",
        "simulator.py",
        "    expand = _work_stats if n <= _EXPANDED_MAX_DEVICES else _work_stats.__wrapped__\n",
        "    expand = _work_stats\n",
    ),
    (
        "critical_path_required reads the computed count",
        "simulator.py",
        "    return own[-1] + (n - 1) * max(below[-1], above[-1])",
        "    return own[-2] + (n - 1) * max(below[-2], above[-2])",
    ),
    (
        "simulate lets a non-iterable inputs escape as Python's TypeError",
        "simulator.py",
        "            except (TypeError, ValueError):\n                got = ",
        "            except ValueError:\n                got = ",
    ),
    (
        "accumulate_tile folds an empty key tile",
        "attention.py",
        "    if not len(k_tile):\n",
        "    if False:\n",
    ),
    (
        "ModelPreset without its integer check",
        "costmodel.py",
        "            check_integer(field_name, getattr(self, field_name), 1)",
        "            getattr(self, field_name)",
    ),
    (
        "random_qkv without its argument checks",
        "simulator.py",
        "        check_integer(name, value, least)\n",
        "        pass\n",
    ),
    (
        "round_critical_path takes a bool as a round",
        "simulator.py",
        '    round_i = check_integer("round_i", round_i, 0, len(stats[0].rounds))\n',
        "",
    ),
    (
        "SoftmaxAccumulator.fresh without its rows check",
        "attention.py",
        '        shape = tuple(check_integer("rows", size, 1) for size in shape)\n',
        "",
    ),
    (
        "SoftmaxAccumulator.fresh without its cols check",
        "attention.py",
        '        cols = check_integer("cols", cols, 1)\n',
        "",
    ),
    (
        "accumulate_block takes q of any rank and dtype",
        "attention.py",
        '    q = check_array("q", q, (None, rows, None), dtype)\n',
        "    q = np.asarray(q)\n",
    ),
    (
        "accumulate_block folds keys of any count",
        "attention.py",
        '    k = check_array("k", k, (g, cols, q.shape[2]), dtype)',
        '    k = check_array("k", k, (g, None, q.shape[2]), dtype)',
    ),
    (
        "accumulate_block folds into a state of any shape",
        "attention.py",
        '    d_v = check_array("state", state.acc, (g, rows, None)).shape[2]',
        "    d_v = state.acc.shape[-1]",
    ),
    (
        "MaskSpec without its integer check",
        "attention.py",
        '        for name in ("block_rows", "block_cols"):\n'
        "            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))\n",
        "",
    ),
    (
        "check_integer's least bound is off by one",
        "attention.py",
        "    if least is not None and value < least:",
        "    if least is not None and value <= least:",
    ),
    (
        "check_integer's below bound is off by one",
        "attention.py",
        "    if below is not None and value >= below:",
        "    if below is not None and value > below:",
    ),
    (
        "a value that names no dtype escapes as numpy's TypeError",
        "attention.py",
        "    except TypeError:\n        raise ValueError(f\"dtype must be a numpy dtype",
        "    except ValueError:\n        raise ValueError(f\"dtype must be a numpy dtype",
    ),
    (
        "get_mask_ring and get_mask_striped do not check c",
        "attention.py",
        '    check_integer("c", c, 1)\n',
        "",
    ),
    (
        "schedule_work_stats lets a block size of 0 through to the masks",
        "simulator.py",
        'check_integer("block_size", block_size, 1)\n'
        '    tile_q, tile_k =',
        'check_integer("block_size", block_size)\n'
        '    tile_q, tile_k =',
    ),
    (
        "Layout.global_of without its local check",
        "layout.py",
        '        local = check_integer("local", local, 0, self.block_size)\n',
        "",
    ),
    (
        "check_array ignores the dtype",
        "attention.py",
        "    if dtype is not None and arr.dtype != dtype:",
        "    if False:",
    ),
    (
        "check_array's fast path skips the dtype",
        "attention.py",
        "x.shape == shape and (dtype is None or x.dtype == dtype):",
        "x.shape == shape:",
    ),
    (
        "check_array treats a fixed size as a wildcard",
        "attention.py",
        "        if want is not None and size != want:",
        "        if False:",
    ),
    (
        "accumulate_block without its dtype check",
        "attention.py",
        '    dtype = state.acc.dtype\n    q = check_array("q"',
        '    dtype = None\n    q = check_array("q"',
    ),
    (
        "oracle_error without the reference's value checks",
        "simulator.py",
        '        reference = check_sequence("reference", reference)\n',
        "        reference = np.asarray(reference)\n",
    ),
    (
        "check_sequence lets a failed cast escape as numpy's error",
        "attention.py",
        "    except (TypeError, ValueError, OverflowError) as exc:",
        "    except OverflowError as exc:",
    ),
    (
        "check_tiling takes any block size",
        "attention.py",
        '    block_rows = check_integer("block_rows", block_rows, 1)\n'
        '    block_cols = check_integer("block_cols", block_cols, 1)\n',
        "",
    ),
    (
        "tms --golden takes --sp 0 as no filter",
        "cli.py",
        "    if args.sp is not None:\n        deltas",
        "    if args.sp:\n        deltas",
    ),
    (
        "Layout keeps numpy sizes",
        "layout.py",
        "            object.__setattr__(self, name, check_integer(name, getattr(self, name)))\n",
        "            check_integer(name, getattr(self, name))\n",
    ),
    (
        "stacked held blocks sliced per device, not per copy",
        "simulator.py",
        "        rows = slice(k0 * copies, (k0 + b - a) * copies)",
        "        rows = slice(k0, (k0 + b - a) * copies)",
    ),
    (
        "every stacked seed's output split from copy 0",
        "simulator.py",
        "    return [outputs[:, s] for s in range(copies)], stats",
        "    return [outputs[:, 0] for s in range(copies)], stats",
    ),
    (
        "the exactness sweep compares every seed with its stack's first reference",
        "verify.py",
        "[oracle_error(run, drawn[key][1]) for run, key in zip(runs, keys)]",
        "[oracle_error(run, drawn[keys[0]][1]) for run, key in zip(runs, keys)]",
    ),
    (
        "a stacked run checks only its first batch",
        "simulator.py",
        "    for batch in batches:\n        if batch.layout != layout:",
        "    for batch in batches[:1]:\n        if batch.layout != layout:",
    ),
    (
        "a stacked run lets V's width differ between batches",
        "simulator.py",
        '("V", batch.v, d_v))',
        '("V", batch.v, None))',
    ),
    (
        "the threads executor takes a stack of batches",
        "simulator.py",
        '    if copies > 1 and config.executor == "threads":\n',
        "    if False:\n",
    ),
    (
        "a stacked run names a dead row by its stacked row index",
        "simulator.py",
        "    outputs = finalize(state)\n",
        "    outputs = finalize(acc).reshape(n, copies, c, d_v)\n",
    ),
    (
        "a stack takes configs that differ beyond the seed",
        "simulator.py",
        '        if vars(config) | {"seed": first.seed} != vars(first):',
        "        if False:",
    ),
]

# Imports ringsim, and runs pytest only if it came from the copy (else exits 99).
_RUNNER = (
    "import sys, pytest, ringsim; "
    "sys.exit(pytest.main(sys.argv[2:]) if ringsim.__file__.startswith(sys.argv[1]) else 99)"
)


def _mutated_source(name: str, file: str, old: str, new: str) -> tuple[Path, str]:
    path = Path("ringsim") / file
    text = (ROOT / "src" / path).read_text()
    if text.count(old) != 1:
        raise SystemExit(f"mutant {name!r}: its text occurs {text.count(old)} times in {path}")
    return path, text.replace(old, new)


def _run_suite(
    src: Path, name: str, path: Path | None, text: str | None
) -> tuple[int, str, float]:
    """Exit code, deciding output line and seconds of the tier-1 suite against a
    fresh copy of ``src/`` made in ``src``'s directory, with ``text`` at ``path``."""
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if path is not None:
        (src / path).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-c", _RUNNER, str(src), "-x", "-q", "-p", "no:cacheprovider",
           f"--basetemp={src.parent / 'basetemp'}"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode == 99:
        raise SystemExit(f"{name}: the suite did not import ringsim from the mutated copy")
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    line = (failed or lines[-1:] or ["(no output)"])[0][:110]
    return proc.returncode, line, time.perf_counter() - start


def main() -> int:
    sources = [(name, *_mutated_source(name, *edit)) for name, *edit in MUTANTS]
    survivors = []
    with tempfile.TemporaryDirectory(prefix="ringsim-mutants-") as tmp:
        # Each run gets its own directory: its copy of src/ and pytest's --basetemp.
        def judge(i: int, source: tuple) -> tuple[int, str, float]:
            return _run_suite(Path(tmp) / str(i) / "src", *source)

        code, line, seconds = judge(0, ("unmutated", None, None))
        if code != 0:
            raise SystemExit(f"the unmutated suite fails (exit {code}): {line}")
        print(f"{'passes':8} {seconds:5.1f}s  unmutated\n         {line}")
        with ThreadPoolExecutor(WORKERS) as pool:
            results = pool.map(judge, range(1, len(sources) + 1), sources)  # in MUTANTS order
            for (name, _, _), (code, line, seconds) in zip(sources, results):
                verdict = "killed" if code != 0 else "SURVIVED"
                if code == 0:
                    survivors.append(name)
                print(f"{verdict:8} {seconds:5.1f}s  {name}\n         {line}", flush=True)
    print(f"{len(sources) - len(survivors)} of {len(sources)} mutants killed")
    for name in survivors:
        print(f"survived: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
