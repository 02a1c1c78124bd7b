"""Seeded inputs of the benchmark: job sets and arrival schedules.

Everything here is a pure function of the ``--seed`` argument (and,
for the open-loop schedule, of the phase length), so two runs with the
same seed hand the program the same inputs.  Nothing imports
:mod:`repro`; job specs are plain tuples and manifest dicts that the
workloads turn into program inputs.
"""

from __future__ import annotations

import hashlib
import math
import random

#: Ladder rungs: (backend, qubit count), largest first, as a batch
#: scheduler orders work (the engine returns hits in this order).  The
#: super-linear layers (CollMove grouping, fidelity replay, the
#: validator, Enola's annealed placement) dominate at these sizes.
#: A round of all three, cold then hit, takes about 7 s, so a run
#: measures each rung five or more times (N = 4096 alone would take
#: 11 s a round).
LADDER_RUNGS = (
    ("powermove", 2048),
    ("powermove", 1024),
    ("enola-windowed", 512),
)

#: The Table-3 backends the paper compares (Atomique is not one).
PAPER_BACKENDS = ("powermove", "powermove-nonstorage", "enola")

#: Circuits of the service workload (Table-2 row keys).
SERVICE_BENCHMARKS = ("BV-14", "QAOA-regular3-30", "QFT-18")

#: Compile seeds per service benchmark available to the warm sets.
SERVICE_WARM_SEEDS = 32

#: Open-loop arrival rate (requests per second) of the service's
#: interactive phase: a fixed number, about a quarter of the daemon's
#: bulk hit capacity on a 2-core machine.
SERVICE_RATE_HZ = 10.0

#: Length of the service's interactive phase: 200 requests at 10 Hz,
#: so its p95 has ten samples beyond it.  Fixed, not ``--seconds``,
#: so the traced run stays well inside its time limit.
SERVICE_INTERACTIVE_S = 20.0

#: Share of service interactive requests that use a fresh seed (a
#: cache miss, so the daemon writes beside its reads).
SERVICE_FRESH_SHARE = 0.25


def derive_seed(seed: int, tag: str) -> int:
    """A stable 31-bit sub-seed of ``seed`` for the input named ``tag``."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def ladder_specs(seed: int) -> list[dict]:
    """One spec per ladder rung: backend, size and two sub-seeds.

    ``circuit_seed`` draws the random 3-regular graph, ``seed`` is the
    compiler seed.
    """
    return [
        {
            "backend": backend,
            "num_qubits": n,
            "circuit_seed": derive_seed(seed, f"ladder-graph-{n}"),
            "seed": derive_seed(seed, f"ladder-{backend}-{n}"),
        }
        for backend, n in LADDER_RUNGS
    ]


def paper_suite_specs(seed: int, rows: list[str]) -> list[dict]:
    """Every Table-2 row x Table-3 backend x two derived seeds.

    The two seeds of a row sit side by side, so any prefix of the batch
    (the median job's latency covers half of it) mixes both seeds'
    instances instead of resting on one.
    """
    seeds = [derive_seed(seed, "paper-a"), derive_seed(seed, "paper-b")]
    return [
        {"benchmark": row, "backend": backend, "seed": s}
        for row in rows
        for backend in PAPER_BACKENDS
        for s in seeds
    ]


def service_warm_jobs(seed: int, tag: str = "service-warm") -> list[dict]:
    """A warm set: manifest entries a cold submission compiles."""
    base = derive_seed(seed, tag) % 1_000_000
    return [
        {"benchmark": bench, "backend": "powermove", "seed": base + k}
        for k in range(SERVICE_WARM_SEEDS)
        for bench in SERVICE_BENCHMARKS
    ]


def poisson_schedule(
    seed: int, rate_hz: float, duration_s: float, tag: str
) -> list[float]:
    """Due times (seconds from phase start) of an open-loop Poisson
    arrival process at ``rate_hz``: ``rate_hz * duration_s`` requests
    (rounded), so the sample count is fixed whatever the seed."""
    rng = random.Random(derive_seed(seed, f"arrivals-{tag}"))
    due: list[float] = []
    t = 0.0
    for _ in range(round(rate_hz * duration_s)):
        t += rng.expovariate(rate_hz)
        due.append(t)
    return due


def interactive_jobs(
    seed: int,
    warm: list[dict],
    count: int,
    fresh_share: float,
    tag: str,
) -> list[dict]:
    """One single-job manifest entry per arrival.

    The composition is exact, only its order is drawn: each benchmark
    gets a third of the requests, and ``fresh_share`` of those carry a
    seed outside the warm set, used once (a cache miss); the rest pick
    a warm job of that benchmark.  A fixed composition keeps the tail
    percentiles from shifting with how many slow misses a seed draws.
    """
    rng = random.Random(derive_seed(seed, f"mix-{tag}"))
    fresh_seed = 1_000_000 + derive_seed(seed, "fresh") % 1_000_000
    jobs: list[dict] = []
    for position, bench in enumerate(SERVICE_BENCHMARKS):
        share = count // len(SERVICE_BENCHMARKS) + (
            position < count % len(SERVICE_BENCHMARKS)
        )
        fresh = round(share * fresh_share)
        pool = [job for job in warm if job["benchmark"] == bench]
        for k in range(share):
            if k < fresh:
                jobs.append({"benchmark": bench, "backend": "powermove",
                             "seed": fresh_seed})
                fresh_seed += 1
            else:
                jobs.append(dict(rng.choice(pool)))
    rng.shuffle(jobs)
    return jobs


def percentile_rank(num_samples: int, candidates=(99.9, 99, 95, 90, 50)):
    """The highest candidate percentile with at least ten samples
    beyond it, or ``None`` when even the median has fewer."""
    for pct in candidates:
        beyond = num_samples - math.ceil(num_samples * pct / 100.0)
        if beyond >= 10:
            return pct
    return None


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]
