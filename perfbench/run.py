"""End-to-end benchmark of the PowerMove reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 \\
        --trace 0

Workloads: ``ladder`` and ``paper-suite``, both through the in-process
engine; the traced ``paper-suite`` run adds a ``repro serve`` daemon
and a ``repro coordinate`` fleet.  See ``perfbench/NOTES.md``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once traced and
reports the per-layer metrics, writing the spans to
``.perfbench/reports/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import jobsets  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Set-up runs measured per run: this process plus fresh probes.
SETUP_PROBES = 4


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload and metric names with units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set the workload up, print the set-up seconds, exit",
    )
    return parser.parse_args(argv)


def _probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Set the workload up in a fresh process; its set-up seconds and
    the machine scale right after."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True,
    )
    seconds, scale = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(scale)


def main(argv: list[str]) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(
        OUT, "work", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(workdir)
    import engine_workloads

    try:
        if args.setup_probe:
            print(*engine_workloads.setup_probe(
                args.workload, args.seed, workdir, STARTED
            ))
            return 0
        metrics, checks, report = engine_workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir, STARTED,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        for m in spec["per_layer"]:
            if m["name"] not in metrics.values:
                metrics.set(m["name"], 0.0, m["unit"], 0)
        report_dir = os.path.join(OUT, "reports")
        os.makedirs(report_dir, exist_ok=True)
        path = os.path.join(
            report_dir, f"trace-{args.workload}-{args.seed}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": metrics.values, **report}, handle)
        print(f"trace report: {os.path.relpath(path, ROOT)}")
        for name, m in metrics.values.items():
            if name.endswith("p95_s") and m["samples"]:
                rank = jobsets.percentile_rank(m["samples"])
                print(f"{name} rests on {m['samples']} samples; the highest "
                      f"percentile with ten beyond them: {rank}")
    else:
        setups, scales = zip(report["setup_first"], *(
            _probe_setup(args) for _ in range(SETUP_PROBES)
        ))
        metrics.median(
            "setup_s", [s * k for s, k in zip(setups, scales)], "s"
        )
        print(f"machine scale: {report['scale']:.4f} reference s per s, "
              f"over {len(report['reference_walls'])} reference loops")
        print("set-up scales:", *(f"{k:.4f}" for k in scales))
        for label, walls in (("set-ups", setups),
                             ("cold rounds", report["cold_walls"]),
                             ("hit rounds", report["hit_walls"]),
                             ("reference loops", report["reference_walls"])):
            print(f"{label} (measured s):", *(f"{w:.3f}" for w in walls))
        names = [m["name"] for m in spec["end_to_end"]]

    print(metrics.table())
    print(f"operations: attempted {checks.attempted}, "
          f"failed {checks.failed}")
    for error in checks.errors:
        print(f"failed: {error}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics.values[name]["value"],
                   "unit": metrics.values[name]["unit"]}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
