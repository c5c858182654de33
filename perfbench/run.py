"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

The program is imported from ``src/`` of the same checkout.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter imports of the program timed per run for ``setup_s``.
IMPORTS = 3

#: Per-layer metrics a workload does not exercise, reported as 0.
NOT_EXERCISED = {
    "paper_sweep": ("server.", "batching."),
    "hw_grid": ("store.", "server.", "batching.", "core.predictor_mape_pct"),
    "serve": ("core.predictor_mape_pct",),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: test-sized inputs"
    )
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU.

    The server's request hand-offs between its event loop and its worker
    thread then never wait for a second virtual CPU that the host may not be
    running, and numpy's BLAS starts one thread instead of one per CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_seconds(repeats: int, host: HostSpeed) -> tuple[float, float]:
    """Median raw and scaled time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "import repro, repro.server"]
    times = [
        host.timed(subprocess.run, command, env=env, cwd=ROOT, check=True)[1:]
        for _ in range(repeats)
    ]
    return tuple(statistics.median(column) for column in zip(*times))


def run_all(spec: dict, args) -> int:
    """Run every workload in its own process and print all their metrics."""
    summary = {}
    status = 0
    for workload in spec["workloads"]:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
            "--seed", str(args.seed), "--trace", str(args.trace), "--scale", args.scale,
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            summary[workload["name"]] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[workload["name"]] = {"correct": False, "attempted": 1, "failed": 1}
        if completed.returncode or not summary[workload["name"]]["correct"]:
            status = 1
    print(json.dumps({
        "correct": all(entry["correct"] for entry in summary.values()),
        "attempted": sum(entry["attempted"] for entry in summary.values()),
        "failed": sum(entry["failed"] for entry in summary.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, entry in summary.items()
            for metric, value in entry.get("metrics", {}).items()
        },
    }))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(spec, args)
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import run_workload

    host = HostSpeed()
    import_s, import_scaled = import_seconds(IMPORTS, host)

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(
            args.workload, args.scale, args.seed, seconds, bool(args.trace), workdir, host
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.end_to_end["setup_s"] = result.end_to_end.get("setup_s", 0.0) + import_scaled
    result.raw["setup_s"] = result.raw.get("setup_s", 0.0) + import_s
    result.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name in (metric["name"] for metric in spec["per_layer"]):
        if name.startswith(NOT_EXERCISED[args.workload]):
            result.per_layer.setdefault(name, 0.0)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result.per_layer if args.trace else result.end_to_end
    missing = [metric["name"] for metric in declared if metric["name"] not in values]
    if missing:
        raise SystemExit(f"error: {args.workload} did not measure {missing}")

    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  trace {args.trace}")
    for metric in declared:
        print(f"  {metric['name']:<32} {values[metric['name']]:>14.6g} {metric['unit']}"
              f"  ({metric['better']} is better)")
    for key, value in sorted(result.context.items()):
        print(f"  context {key}: {json.dumps(value, sort_keys=True)}")
    print(f"  context host_slowdown: {host.slowdown():.6f} (median of {len(host.samples)} blocks)")
    for name, value in result.raw.items():
        print(f"  context raw {name}: {value:.6g}")
    print(f"  context import_s: {import_s:.6f}")
    print(f"  context error_rate: {result.failed / result.attempted:.6g}")
    for problem in dict.fromkeys(result.problems):
        print(f"  CHECK FAILED: {problem}")
    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
