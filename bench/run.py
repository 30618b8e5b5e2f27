"""The symres benchmark: seeded closed-loop workloads, checked answers.

    python3 bench/run.py --workload int_verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

One caller in one process and thread sends the next problem only after
the previous answer has been checked (a closed loop).  Set-up imports
symres from ``src/`` next to this directory and generates the seeded
inputs; it is repeated and its median reported as ``setup_s``.

With ``--trace 0`` the problem list is run in whole passes until the next
pass would end after ``--seconds``, at least once, with no wrappers
installed; ``wall_s`` is the median pass time and ``problem_tail_s`` the
per-problem latency (median over passes) with ten problems beyond it.
With ``--trace 1`` one untraced pass is followed by one traced pass, and
the per-layer metrics come from the traced pass's spans.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-problem records (and, for
a traced run, every span) go to ``bench/out/``.  ``error_rate`` is
``failed / attempted``; it is printed with the other end-to-end figures
but is not one of the JSON metrics, which must never be zero.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import gen
import problems
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
TAIL_BEYOND = 10

UNITS = {
    "wall_s": "s", "problem_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
    "ring.det_calls": "count", "ring.det_s": "s", "ring.det_max_dim": "rows",
    "ring.det_ops": "ops", "ring.det_const_share": "ratio",
    "ring.coeff_mul_calls": "count", "ring.coeff_mul_s": "s",
    "ring.coeff_div_calls": "count", "ring.coeff_div_s": "s",
    "ring.coeff_pow_s": "s",
    "resultant.calls": "count", "resultant.s": "s",
    "resultant.attempts": "count", "resultant.useful_ratio": "ratio",
    "resultant.perturbed": "count", "resultant.build_s": "s",
    "resultant.max_matrix_dim": "rows", "resultant.max_dod_dim": "rows",
    "divdiff.check_s": "s", "divdiff.table_s": "s",
    "divdiff.table_entries": "count", "equivariant.specialize_s": "s",
    "equivariant.chains": "count", "equivariant.chain_s": "s",
    "equivariant.chain_max_s": "s", "equivariant.verify_direct_s": "s",
    "discriminant.partials_s": "s", "discriminant.decompose_s": "s",
    "discriminant.value_s": "s",
    "parser.parse_s": "s", "parser.parse_bytes": "bytes",
    "parser.print_s": "s", "cli.main_calls": "count", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def tail(samples: Sequence[float],
         beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that
    still has ``beyond`` samples above it: the (beyond+1)-th largest."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    return sorted(samples)[n - beyond - 1], 100.0 * (n - beyond) / n, n


def setup(workload: str, seed: int, workdir: Path):
    """Import symres afresh and generate (and write) the seeded inputs."""
    for name in [m for m in sys.modules
                 if m == "symres" or m.startswith("symres.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    symres = importlib.import_module("symres")
    importlib.import_module("symres.cli")
    origin = Path(symres.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"symres was imported from {origin}, not {SRC}")
    todo = gen.workload(workload, seed)
    problems.write_inputs(todo, workdir)
    return todo


def run_pass(todo, workdir: Path, tracer=None):
    """One closed-loop pass; (wall seconds, outcomes)."""
    outcomes = []
    t0 = time.perf_counter()
    for problem in todo:
        if tracer is None:
            outcomes.append(problems.run_problem(problem, workdir))
        else:
            with tracer.span("problem", problem.pid):
                outcomes.append(problems.run_problem(
                    problem, workdir, tracer.check_scope))
    return time.perf_counter() - t0, outcomes


def measure(todo, workdir: Path, seconds: float):
    """Whole passes until the next one would end after ``seconds``."""
    walls, passes = [], []
    start = time.perf_counter()
    while True:
        wall, outcomes = run_pass(todo, workdir)
        walls.append(wall)
        passes.append(outcomes)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, passes


def problem_records(todo, passes, details=None) -> List[dict]:
    records = []
    for i, problem in enumerate(todo):
        runs = [outcomes[i] for outcomes in passes]
        rec = {
            "problem": problem.pid, "kind": problem.kind,
            "n": problem.n, "d": problem.d, "params": len(problem.params),
            "latency_s": statistics.median(o.latency_s for o in runs),
            "check_s": statistics.median(o.check_s for o in runs),
            "ok": all(o.ok for o in runs),
            "errors": sorted({o.error for o in runs if o.error}),
        }
        rec.update((details or {}).get(problem.pid, {}))
        records.append(rec)
    return records


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def run_one(args) -> int:
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            try:
                todo = setup(args.workload, args.seed, workdir)
            except ImportError as exc:
                print(f"error: cannot import symres: {exc}", file=sys.stderr)
                return 2
            times.append(time.perf_counter() - t0)
        setup_s = statistics.median(times)
        report: Dict[str, object] = {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "setup_runs_s": times}
        if args.trace:
            plain_wall, plain = run_pass(todo, workdir)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_wall, traced = run_pass(todo, workdir, tracer)
            finally:
                tracer.remove()
            passes = [plain, traced]
            values = spans.layer_metrics(tracer.spans)
            values["trace.overhead_s"] = traced_wall - plain_wall
            report.update(
                untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                self_s=spans.self_time_by_name(tracer.spans),
                problems=problem_records(
                    todo, [traced], spans.problem_details(tracer.spans)),
                spans=spans.to_records(tracer.spans))
            shown = [("traced wall_s", traced_wall, "s")]
            # where the traced pass spent its time, largest self times first
            selfs = sorted(report["self_s"].items(), key=lambda kv: -kv[1])
            shown += [(f"self-time share {name}", secs / traced_wall, "ratio")
                      for name, secs in selfs[:6]]
        else:
            walls, passes = measure(todo, workdir, args.seconds)
            records = problem_records(todo, passes)
            value, pct, count = tail([r["latency_s"] for r in records])
            values = {
                "wall_s": statistics.median(walls),
                "problem_tail_s": value,
                "setup_s": setup_s,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            report.update(pass_walls_s=walls, tail_percentile=pct,
                          tail_samples=count, problems=records)
            shown = [("passes", len(walls), "count"),
                     ("problem_tail_s percentile", pct, "%"),
                     ("problem_tail_s samples", count, "count")]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p) for p in passes)
    failed = sum(not o.ok for p in passes for o in p)
    shown.append(("error_rate", failed / attempted, "ratio"))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: metric(k, v) for k, v in values.items()}}
    report["result"] = result
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    for o in (o for p in passes for o in p if not o.ok):
        print(f"FAILED {o.pid}: {o.error}")
    for key, value in values.items():
        print(f"{args.workload} {key} = {value:.6g} {UNITS[key]}")
    for key, value, unit in shown:
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    status = 0
    results = {}
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode or not lines:
            status = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
