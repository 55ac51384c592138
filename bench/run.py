"""Benchmark of irs-planner: timed workloads, output checks, per-layer trace.

Run from the root of a source checkout:

    python3 bench/run.py --workload map --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The package is imported from `src/` of the checkout and nowhere else.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md in
this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One process, no helper threads: numpy's BLAS pool is never used by the
# program's elementwise work, so pin it before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("map", "sweep", "compare-fine", "scalar")
SETUP_LAUNCHES = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import irs_planner; "
    "irs_planner.default_scenario()"
)
P90_MIN_OPS = 100


def sweep_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def import_program():
    """The package from this checkout's src/, or SystemExit."""
    if not (SRC / "irs_planner" / "__init__.py").is_file():
        sys.exit(f"error: no irs_planner package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import irs_planner
    import irs_planner.cli  # noqa: F401  (cli is traced and driven by name)

    if Path(irs_planner.__file__).resolve().parent != SRC / "irs_planner":
        sys.exit(f"error: imported irs_planner from {irs_planner.__file__}, not {SRC}")
    return irs_planner


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing the package and building a scenario."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
        times.append(time.perf_counter() - start)
    return times


def run_phase(ops, seconds: float, tracer=None) -> dict:
    """Repeat the round of operations until `seconds` have passed; whole rounds only.

    With a tracer, rounds alternate untraced and traced, so both halves see
    the same machine and their ratio is the tracing overhead.
    """
    samples = []  # (wall s, cpu s, items, label, traced) of each operation that passed
    attempted = failed = rounds = 0
    failures: list[str] = []
    start = time.perf_counter()
    while rounds < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and rounds % 2 == 1
        restore = tracer.install() if traced else None
        try:
            for op in ops:
                attempted += 1
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    result = op.run()
                    wall = time.perf_counter() - t0
                    cpu = time.process_time() - cpu0
                    if traced and op.out is not None:
                        tracer.add("cli.out_bytes", os.path.getsize(op.out))
                    op.check(result)  # outside the timed span
                except Exception as exc:  # a crash or a wrong output fails this operation
                    failed += 1
                    failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    continue
                samples.append((wall, cpu, op.items, op.label, traced))
        finally:
            if restore is not None:
                restore()
        rounds += 1
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "rounds": rounds, "failures": failures[:10],
            "elapsed_s": time.perf_counter() - start}


def end_to_end(samples: list, setup: list[float]) -> dict:
    walls = [s[0] for s in samples]
    items = sum(s[2] for s in samples)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "items_per_s": (items / sum(walls), "1/s"),
        "cpu_us_per_item": (sum(s[1] for s in samples) / items * 1e6, "us"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(tracer, ops_done: int) -> dict:
    """Layer metrics per operation; every name is reported, zero where unused."""
    from tracer import SPANS

    totals = tracer.totals()
    get = lambda name: totals.get(name, [0, 0.0, 0])  # noqa: E731
    units = {"calls": "calls/op", "self_s": "s/op", "points": "points/op", "bytes": "bytes/op"}
    metrics = {}
    for name, fields in SPANS.items():
        for field in fields:
            value = get(name)[{"calls": 0, "self_s": 1}.get(field, 2)]  # else: work count
            metrics[f"{name}.{field}"] = (value / ops_done, units[field])
    metrics["linkbudget.distance.calls"] = (get("linkbudget.distance")[0] / ops_done, "calls/op")
    metrics["cli.out_bytes"] = (tracer.counters.get("cli.out_bytes", 0) / ops_done, "bytes/op")
    metrics["placement.candidates"] = (get("placement.optimize_placement")[2] / ops_done, "cand/op")
    map_points = get("coverage.sinr_map_irs")[2] + get("coverage.sinr_map_conventional")[2]
    ratio = get("coverage.edge_stats")[2] / map_points if map_points else 0.0
    metrics["coverage.edge_points_per_map_point"] = (ratio, "ratio")
    compares = get("placement.compare_models")[0]
    ratio = get("coverage.sinr_map_irs")[0] / compares if compares else 0.0
    metrics["placement.irs_maps_per_compare"] = (ratio, "maps/call")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(args) -> int:
    program = import_program()
    import reference
    import workloads
    from tracer import Tracer

    os.environ["IRS_PLANNER_THREADS"] = str(sweep_threads())
    (BENCH / "work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "work")
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, work)
        setup = measure_setup()
        try:
            spot_points = reference.mp_spot_checks(workloads.scalar_evaluate)
            correct = True
        except reference.CheckError as exc:
            print(f"mpmath spot check failed: {exc}", file=sys.stderr)
            spot_points, correct = None, False
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "sweep_threads": sweep_threads(), "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__, "program": program.__version__,
            "operations": [op.label for op in ops], "setup_launches_s": setup,
            "mpmath_spot_checks": spot_points,
        }
        tracer = Tracer() if args.trace else None
        phase = run_phase(ops, args.seconds, tracer)
        record["failures"] = phase["failures"]
        plain = [s for s in phase["samples"] if not s[4]]
        traced = [s for s in phase["samples"] if s[4]]
        if not plain or (tracer and not traced):
            sys.exit("error: every operation failed:\n" + "\n".join(phase["failures"]))
        walls = [s[0] for s in plain]
        record.update(rounds=phase["rounds"], elapsed_s=phase["elapsed_s"],
                      operations_timed=len(walls), op_walls_s=walls)
        by_label: dict[str, list] = {}
        for s in plain:
            by_label.setdefault(s[3], []).append(s[0])
        record["op_p50_s_by_operation"] = {k: statistics.median(v) for k, v in by_label.items()}
        if len(walls) >= P90_MIN_OPS:
            record["op_p90_s"] = statistics.quantiles(walls, n=10)[-1]
        if tracer:
            metrics = per_layer(tracer, len(traced))
            untraced_p50 = statistics.median(walls)
            traced_p50 = statistics.median(s[0] for s in traced)
            overhead = traced_p50 / untraced_p50 - 1.0
            record["trace_overhead"] = {"untraced_op_p50_s": untraced_p50,
                                        "traced_op_p50_s": traced_p50,
                                        "overhead_fraction": overhead}
            print(f"trace overhead on {args.workload}: op_p50 {untraced_p50:.6f} s untraced, "
                  f"{traced_p50:.6f} s traced ({100.0 * overhead:+.1f}%)")
            write_json("traces", args, tracer.edges())
        else:
            metrics = end_to_end(plain, setup)
        record["metrics"] = metrics
        write_json("results", args, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in record["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    for key, metric in metrics.items():
        print(f"{args.workload:>12}  {key:<44} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": phase["attempted"],
                      "failed": phase["failed"], "metrics": metrics}))
    return 0


def write_json(directory: str, args, content) -> None:
    path = BENCH / directory
    path.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (path / name).write_text(json.dumps(content, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload in turn, each in its own process so peak RSS stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with status {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
