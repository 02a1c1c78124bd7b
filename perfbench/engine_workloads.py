"""The in-process engine workloads: ``ladder`` and ``paper-suite``.

Both drive ``CompilationEngine(workers=1)`` in the benchmark process.
An untraced run measures rounds of every job alone: a cold run (empty
cache: compile, validate, fidelity, serialize, cache put), then a hit
run on that warm cache (key, cache get, decode, fidelity replay), until
the run has measured ``--seconds`` seconds.  A traced run times one
cold and one hit pass over the whole job set.  On 2 cores a process
pool would measure the scheduler, so there is none.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
import tracemalloc
from typing import Any, Callable

import repro.engine.engine as engine_module
import repro.engine.jobs as jobs_module
from repro.benchsuite.scaling import scaling_workload
from repro.benchsuite.suite import PAPER_ORDER, BenchmarkSpec
from repro.circuits.circuit import Circuit
from repro.engine import CompilationEngine, CompileJob, ProgramCache
from repro.engine.jobs import job_compiler
from repro.fidelity.model import FidelityModel
from repro.pipeline.registry import PipelineCompiler
from repro.schedule.serialize import program_from_dict, program_to_dict

import jobsets
from calibrate import Calibration, scale_now
from checks import OutputChecks
from report import Metrics, peak_rss_mib
from service_workloads import service_stage
from tracer import Tracer

#: Layer calls the traced pass wraps: (owner, attribute, span name).
LAYER_TARGETS = (
    (BenchmarkSpec, "build", "circuits.build"),
    (Circuit, "digest", "circuits.digest"),
    (engine_module, "job_cache_key", "engine.cache_key"),
    (ProgramCache, "get", "engine.cache_get"),
    (ProgramCache, "put", "engine.cache_put"),
    (PipelineCompiler, "compile", "pipeline.compile"),
    (jobs_module, "validate_program", "schedule.validate"),
    (engine_module, "validate_program", "schedule.validate"),
    (jobs_module, "program_to_dict", "schedule.encode"),
    (engine_module, "program_from_dict", "schedule.decode"),
    (FidelityModel, "evaluate", "fidelity.evaluate"),
    (CompilationEngine, "run", "engine.run"),
)

#: Measured seconds of work between two reference-loop samples of a
#: run of single jobs (about 80 samples in a 40 s run).
CALIBRATION_EVERY_S = 0.5

#: Direct children of ``engine.run`` whose time is the layers' own.
ENGINE_CHILDREN = (
    "circuits.build", "circuits.digest", "engine.cache_key",
    "engine.cache_get", "engine.cache_put", "pipeline.compile",
    "schedule.validate", "schedule.encode", "schedule.decode",
    "fidelity.evaluate",
)


class EngineWorkload:
    """Job set + cache spec of one engine workload.

    An untraced run measures at least ``rounds`` rounds of every job
    alone (see :func:`_job_rounds`).
    """

    def __init__(
        self,
        make_jobs: Callable[[Tracer], list[CompileJob]],
        cache_spec: Callable[[str], str],
        rounds: int,
        memory_rungs: tuple[int, ...] = (),
        service_stage: bool = False,
    ) -> None:
        self.make_jobs = make_jobs
        self.cache_spec = cache_spec
        self.rounds = rounds
        self.memory_rungs = memory_rungs
        self.service_stage = service_stage


def ladder(seed: int) -> EngineWorkload:
    specs = jobsets.ladder_specs(seed)

    def make_jobs(tracer: Tracer) -> list[CompileJob]:
        jobs = []
        for spec in specs:
            with tracer.span("circuits.build"):
                circuit = scaling_workload(
                    spec["num_qubits"], spec["circuit_seed"]
                )
            jobs.append(
                CompileJob(backend=spec["backend"], circuit=circuit,
                           seed=spec["seed"])
            )
        return jobs

    # The memory pass runs on the smallest rung of each backend:
    # tracemalloc multiplies call time 5-20x.
    smallest = {}
    for index, spec in enumerate(specs):
        best = smallest.get(spec["backend"])
        if best is None or spec["num_qubits"] < specs[best]["num_qubits"]:
            smallest[spec["backend"]] = index
    # Rounds of each rung alone: a whole-ladder pass is one sample of
    # 8-20 s, and one slow stretch of the machine moves it by a quarter;
    # the median of each rung over five or more rounds does not move
    # with it (NOTES.md).
    return EngineWorkload(
        make_jobs, lambda _dir: "memory", rounds=5,
        memory_rungs=tuple(sorted(smallest.values())),
    )


def paper_suite(seed: int) -> EngineWorkload:
    specs = jobsets.paper_suite_specs(seed, list(PAPER_ORDER))

    def make_jobs(_tracer: Tracer) -> list[CompileJob]:
        return [
            CompileJob(benchmark=s["benchmark"], backend=s["backend"],
                       seed=s["seed"])
            for s in specs
        ]

    # At least three rounds (a round is about 9 s).  Its traced run
    # also measures the service and coordinator layers.
    return EngineWorkload(
        make_jobs, lambda directory: f"disk:{directory}", rounds=3,
        service_stage=True,
    )


WORKLOADS = {"ladder": ladder, "paper-suite": paper_suite}


class _Pass:
    """One timed ``engine.run``; ``wall`` is its last run's seconds."""

    def __init__(self, engine: CompilationEngine, jobs) -> None:
        self.engine = engine
        self.jobs = jobs

    def run(self, collect: bool = True):
        if collect:
            gc.collect()
        start = time.perf_counter()
        results = self.engine.run(self.jobs, on_error="collect")
        self.wall = time.perf_counter() - start
        return results


def _check_results(
    checks: OutputChecks, phase: str, results, circuits: dict
) -> None:
    for result in results:
        what = f"{phase} {result.job.label}"
        if not result.ok:
            checks.count(what, result.error.describe())
            continue
        checks.count(what, checks.verify(
            result.key, result.program, circuits[result.index],
            result.job.backend_name,
        ))


def _passes(
    workload: EngineWorkload, jobs: list[CompileJob], workdir: str
) -> dict[str, Any]:
    """One cold pass over the job set on a fresh cache, then one hit
    pass on that cache (the traced run and its untraced twin)."""
    os.makedirs(workdir)
    timed = _Pass(
        CompilationEngine(workers=1, cache=workload.cache_spec(workdir)),
        jobs,
    )
    out: dict[str, Any] = {"cold": timed.run()}
    cold_wall = timed.wall
    stats = timed.engine.cache.stats
    out["cold_lookups"] = (stats.hits, stats.misses)
    out["hit"] = timed.run()
    out["wall"] = cold_wall + timed.wall
    out["engine"] = timed.engine
    return out


def _job_rounds(
    workload: EngineWorkload,
    jobs: list[CompileJob],
    workdir: str,
    budget_s: float,
    on_results: Callable[[str, list, int], None],
    calibration: Calibration,
) -> dict[str, Any]:
    """Rounds of every job alone: a cold run on a fresh cache, then a
    hit run on it; at least ``workload.rounds`` rounds, more until the
    run has measured ``budget_s``.

    ``cold_s`` and ``hit_s`` are the sums over jobs of each job's
    median: what one ``workers=1`` pass over the job set costs, with a
    slow stretch of the machine dropped from every job's samples.
    ``on_results`` receives each run's phase, results and job index.
    ``gc.collect()`` runs once a round, not before every run: a full
    collection costs more than most paper-suite jobs.  ``calibration``
    times its reference loop before a run whenever the runs since its
    last sample have measured ``CALIBRATION_EVERY_S``.
    """
    walls: dict[str, list[list[float]]] = {
        "cold": [[] for _ in jobs], "hit": [[] for _ in jobs],
    }
    out: dict[str, Any] = {"cold": [None] * len(jobs)}
    measured = 0.0
    calibrated_at = -CALIBRATION_EVERY_S
    rounds = 0
    while rounds < workload.rounds or measured < budget_s:
        gc.collect()
        for index, job in enumerate(jobs):
            out["cold"][index] = None
            cache_dir = os.path.join(workdir, f"round{rounds}-job{index}")
            timed = _Pass(
                CompilationEngine(
                    workers=1, cache=workload.cache_spec(cache_dir)
                ),
                [job],
            )
            for phase in ("cold", "hit"):
                if measured - calibrated_at >= CALIBRATION_EVERY_S:
                    calibration.sample()
                    calibrated_at = measured
                results = timed.run(collect=False)
                walls[phase][index].append(timed.wall)
                measured += timed.wall
                on_results(phase, results, index)
                if phase == "cold":
                    out["cold"][index] = results[0]
            del results, timed
        rounds += 1
    for phase, per_job in walls.items():
        out[f"{phase}_s"] = sum(statistics.median(w) for w in per_job)
        out[f"{phase}_walls"] = [sum(w) for w in zip(*per_job)]
    return out


def _quality(metrics: Metrics, results) -> None:
    ok = [r for r in results if r.ok]
    exe = sum(r.fidelity.execution_time for r in ok)
    log10_f = -sum(sum(r.fidelity.log_breakdown().values()) for r in ok)
    metrics.set("exe_time_s", exe, "s", len(ok))
    metrics.set("log10_fidelity", log10_f, "log10", len(ok))


def setup_probe(
    name: str, seed: int, workdir: str, started: float
) -> tuple[float, float]:
    """Set-up seconds of a fresh process (imports, inputs, circuits)
    and the machine scale right after it."""
    for job in WORKLOADS[name](seed).make_jobs(Tracer(enabled=False)):
        job.resolve_circuit()
    return time.perf_counter() - started, scale_now()


def run(
    name: str, seed: int, seconds: float, trace: bool, workdir: str,
    started: float,
) -> tuple[Metrics, OutputChecks, dict[str, Any]]:
    """Run one engine workload; returns metrics, checks and a report."""
    workload = WORKLOADS[name](seed)
    checks = OutputChecks()
    metrics = Metrics()
    report: dict[str, Any] = {}
    jobs = workload.make_jobs(Tracer(enabled=False))
    circuits = {i: job.resolve_circuit() for i, job in enumerate(jobs)}
    setup_s = time.perf_counter() - started

    if not trace:
        setup_scale = scale_now()
        calibration = Calibration()
        rounds = _job_rounds(
            workload, jobs, os.path.join(workdir, "untraced"), seconds,
            on_results=lambda phase, results, index: _check_results(
                checks, phase, results, {0: circuits[index]}
            ),
            calibration=calibration,
        )
        # Reference seconds: see calibrate.py.
        scale = calibration.scale()
        for phase in ("cold", "hit"):
            metrics.set(
                f"{phase}_s", rounds[f"{phase}_s"] * scale, "s",
                len(rounds[f"{phase}_walls"]),
            )
        _quality(metrics, rounds["cold"])
        metrics.set("peak_rss_mb", peak_rss_mib(), "MiB")
        return metrics, checks, {
            "setup_first": (setup_s, setup_scale),
            "cold_walls": rounds["cold_walls"],
            "hit_walls": rounds["hit_walls"],
            "scale": scale,
            "reference_walls": calibration.samples,
        }

    untraced = _passes(workload, jobs, os.path.join(workdir, "untraced"))
    for phase in ("cold", "hit"):
        _check_results(checks, phase, untraced[phase], circuits)
    untraced_wall = untraced["wall"]
    del untraced
    tracer = Tracer()
    with tracer.patched(LAYER_TARGETS):
        traced_jobs = workload.make_jobs(tracer)
        traced = _passes(
            workload, traced_jobs, os.path.join(workdir, "traced")
        )
    for phase in ("cold", "hit"):
        _check_results(checks, f"traced {phase}", traced[phase], circuits)
    _layer_metrics(metrics, tracer, traced, workload, traced_jobs)
    metrics.set(
        "bench.trace_overhead_s", traced["wall"] - untraced_wall, "s"
    )
    engine_total = tracer.total("engine.run")
    children = tracer.child_totals("engine.run")
    report["engine_attribution"] = {
        "engine.run_s": engine_total,
        "children_s": children,
        "engine.self_s": tracer.self_time("engine.run"),
        "unattributed_s": engine_total - sum(children.values())
        - tracer.self_time("engine.run"),
    }
    if workload.service_stage:
        report.update(
            service_stage(seed, workdir, checks, metrics, tracer)
        )
    report["spans"] = tracer.report()
    return metrics, checks, report


def _layer_metrics(
    metrics: Metrics, tracer: Tracer, traced: dict, workload, jobs
) -> None:
    for span in ENGINE_CHILDREN:
        metrics.set(f"{span}_s", tracer.total(span), "s", tracer.count(span))
    metrics.set(
        "engine.run_s", tracer.total("engine.run"), "s",
        tracer.count("engine.run"),
    )
    metrics.set(
        "engine.self_s", tracer.self_time("engine.run"), "s",
        tracer.count("engine.run"),
    )
    # Over the hit pass only: any value but 1.0 shows a cache defect.
    stats = traced["engine"].cache.stats
    cold_hits, cold_misses = traced["cold_lookups"]
    hits = stats.hits - cold_hits
    lookups = hits + stats.misses - cold_misses
    metrics.set(
        "engine.hit_ratio", hits / lookups if lookups else 0.0,
        "ratio", lookups,
    )
    cold_ok = [r for r in traced["cold"] if r.ok]
    pass_totals: dict[str, float] = {}
    for r in cold_ok:
        for pass_name, seconds in r.stats.get("pass_timings", {}).items():
            pass_totals[pass_name] = pass_totals.get(pass_name, 0.0) + seconds
    for pass_name, seconds in pass_totals.items():
        metrics.set(f"pipeline.{pass_name}_s", seconds, "s", len(cold_ok))
    metrics.set(
        "schedule.instructions",
        sum(len(r.program.instructions) for r in cold_ok), "count",
        len(cold_ok),
    )
    metrics.set(
        "schedule.program_bytes",
        sum(len(json.dumps(program_to_dict(r.program),
                           separators=(",", ":")))
            for r in cold_ok),
        "bytes", len(cold_ok),
    )
    peaks = _memory_pass(jobs, workload.memory_rungs)
    for name, value in peaks.items():
        metrics.set(name, value, "MiB", len(workload.memory_rungs))


def _memory_pass(jobs, rungs) -> dict[str, float]:
    """Peak traced allocation of compile, replay and decode (MiB)."""
    peaks = {"pipeline.peak_alloc_mb": 0.0, "fidelity.peak_alloc_mb": 0.0,
             "schedule.decode_peak_alloc_mb": 0.0}
    if not rungs:
        return peaks
    tracemalloc.start()
    try:
        for index in rungs:
            job = jobs[index]
            circuit = job.resolve_circuit()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            compiled = job_compiler(job).compile(circuit)
            peaks["pipeline.peak_alloc_mb"] = max(
                peaks["pipeline.peak_alloc_mb"],
                (tracemalloc.get_traced_memory()[1] - base) / 2**20,
            )
            doc = program_to_dict(compiled.program)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            program = program_from_dict(doc)
            peaks["schedule.decode_peak_alloc_mb"] = max(
                peaks["schedule.decode_peak_alloc_mb"],
                (tracemalloc.get_traced_memory()[1] - base) / 2**20,
            )
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            FidelityModel(job.params).evaluate(program)
            peaks["fidelity.peak_alloc_mb"] = max(
                peaks["fidelity.peak_alloc_mb"],
                (tracemalloc.get_traced_memory()[1] - base) / 2**20,
            )
            del compiled, doc, program
    finally:
        tracemalloc.stop()
    return peaks

