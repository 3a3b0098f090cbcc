"""Benchmark of scgroups: three workloads, each run in one process.

    python3 bench/run.py --workload groups|queries|tree --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all        # each workload in its own process

A run sets the program up SETUPS times (fresh import each time) and reports
the median set-up time, then repeats whole rounds of the workload until
--seconds have passed (at least one round).  Times are scaled to a nominal
machine speed (see workloads.SpeedClock); standard error shows the wall
seconds as well.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 they are the
per-layer ones, and the spans are written to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def check_program_location():
    """Refuse to run without this checkout's src/scgroups, or against a
    scgroups imported from anywhere else."""
    try:
        import scgroups
    except ImportError as exc:
        raise SystemExit(f"cannot import scgroups from {ROOT / 'src'}: {exc}") from None
    where = Path(scgroups.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"scgroups imported from {where}, not from {ROOT / 'src'}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = workloads.WORKLOADS[name]()
    tracer = spans.Tracer() if traced else None
    clock = workloads.SpeedClock()

    def set_up():
        prog = workloads.load_program(tracer)
        return prog, wl.setup(prog)

    setup_times = []
    for _ in range(SETUPS):
        # free the previous set-up first, so that two copies of the
        # program's presentations are never alive at once
        prog = state = None
        gc.collect()
        mark = len(tracer.spans) if tracer else 0
        clock.restart()
        prog, state = clock.run("setup", set_up)
        setup_times.append(clock.take("setup"))
        if tracer:
            tracer.mark("setup", mark)
    inputs = wl.inputs(prog, state, seed)

    rounds, walls = [], []
    attempted = failed = 0
    first_fail = None
    start = time.perf_counter()
    while True:
        mark = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        res = wl.round(prog, state, inputs, clock)
        walls.append(time.perf_counter() - t0)
        if tracer:
            tracer.mark("round", mark)
        rounds.append(res)
        attempted += len(res.checks)
        for label, ok in res.checks:
            if not ok:
                failed += 1
                first_fail = first_fail or label
        if time.perf_counter() - start >= seconds:
            break

    print(
        f"{name}: seed {seed}, {len(rounds)} round(s); wall seconds: round "
        f"{statistics.median(walls):.3f}, timed parts {statistics.median(r.raw_s for r in rounds):.3f}, "
        "setups " + ", ".join(f"{raw:.3f}" for _, raw in setup_times)
        + (f"; first failure: {first_fail}" if first_fail else ""),
        file=sys.stderr,
    )
    if tracer:
        metrics = tracer.layer_metrics()
        metrics["trace.round_s"] = {"value": statistics.median(walls), "unit": "s"}
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for s, _ in setup_times), "unit": "s"},
            "bulk_s": {"value": statistics.median(r.bulk_s for r in rounds), "unit": "s"},
            "items_per_s": {
                "value": statistics.median(r.items / r.items_s for r in rounds),
                "unit": "1/s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Run every workload in a child process, one after the other."""
    status = 0
    summary = {}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        if not result["correct"]:
            status = 1
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    check_program_location()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
