"""The service stage of the traced ``paper-suite`` run.

One ``repro serve`` subprocess (disk cache, unix socket, at most
``nproc`` worker threads, pinned to one CPU while the load generator
runs on the others) driven from the benchmark process:

* two cold submissions: the warm set, then as many other seeds;
* hit passes: the warm set resubmitted, timed from submit to the
  ``end`` event (the bulk phase);
* an interactive phase: a seeded open-loop Poisson schedule of
  single-job submissions at a fixed rate for a fixed time (200
  requests), each timed from its due time to its result record.  A
  quarter carry fresh seeds (cache misses), so the daemon writes beside
  its reads.

Then a coordinator stage: ``repro coordinate`` in front of two
single-worker daemons, each with its own disk cache, measures the
fleet front door against the same hits sent straight to their owner
daemon.

These are per-layer metrics only: over ten seeds on a 2-core machine
the open-loop percentiles spread by 50 % or more (see NOTES.md), too
much for a bounded end-to-end metric.

The open-loop driver is the benchmark's own: ``repro loadgen`` sleeps
the inter-arrival gap only after the previous reply, which makes it a
closed loop that offers less than its nominal rate, and it times from
submit rather than from the due time.
"""

from __future__ import annotations

import gc
import json
import os
import queue
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

import repro
from repro.benchsuite.suite import get_benchmark
from repro.engine import CompilationEngine, DiskCache, job_from_doc
from repro.service import ServiceClient, ServiceError
from repro.service.protocol import PROTOCOL_VERSION, parse_address
from repro.service.queue import JobQueue

import jobsets
from checks import OutputChecks
from report import Metrics, cpu_seconds, peak_rss_mib
from tracer import Tracer

#: Worker threads of the ``service`` daemon (at most ``nproc``).
SERVICE_WORKERS = max(1, min(2, os.cpu_count() or 1))

#: Resubmissions of the warm set (median reported).
HIT_PASSES = 3

#: Warm-set seeds per benchmark compiled in-process as the reference.
REFERENCE_SEEDS = 2

#: Traced-run sample sizes.
PING_SAMPLES = 30
EXTRA_LATENCY_SAMPLES = 20

#: Readiness polling of spawned processes.
READY_POLL_S = 0.01
READY_TIMEOUT_S = 60.0

#: Seconds a daemon gets to exit after a shutdown request.
STOP_TIMEOUT_S = 20.0


class Cluster:
    """The daemon subprocesses of one workload pass, under ``workdir``.

    Sockets are relative paths (``./d0.sock``) resolved in ``workdir``
    -- the benchmark process runs there too -- so a long checkout path
    cannot overflow the unix socket path limit.
    """

    def __init__(self, workdir: str, fleet: bool = False) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.fleet = fleet
        # A single daemon gets a core of its own and the load generator
        # the rest, so the generator never steals the daemon's CPU.
        cpus = sorted(os.sched_getaffinity(0))
        self.daemon_cpus = (
            {cpus[0]} if not fleet and len(cpus) >= 2 else None
        )
        self.procs: dict[str, subprocess.Popen] = {}
        self._logs: list[Any] = []
        count = 2 if fleet else 1
        self.daemons = [f"./d{i}.sock" for i in range(count)]
        self.caches = [os.path.join(workdir, f"c{i}") for i in range(count)]
        self.queues = [os.path.join(workdir, f"q{i}") for i in range(count)]
        self.front = "./co.sock" if fleet else self.daemons[0]

    def _spawn(self, role: str, args: list[str]) -> None:
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        log = open(os.path.join(self.workdir, f"{role}.log"), "wb")
        self._logs.append(log)
        self.procs[role] = subprocess.Popen(
            [sys.executable, "-m", "repro", *args], cwd=self.workdir,
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        if self.daemon_cpus is not None:
            os.sched_setaffinity(self.procs[role].pid, self.daemon_cpus)

    def start(self) -> None:
        workers = 1 if self.fleet else SERVICE_WORKERS
        for i, address in enumerate(self.daemons):
            self._spawn(f"d{i}", [
                "serve", f"q{i}", "--listen", address,
                "--cache-dir", f"c{i}", "--workers", str(workers),
            ])
        if self.fleet:
            args = ["coordinate", "--listen", self.front]
            for address in self.daemons:
                args += ["--daemon", address]
            self._spawn("coordinator", args)
        for address in [*self.daemons, self.front]:
            self._wait_ready(address)

    def _wait_ready(self, address: str) -> None:
        """Ping every ``READY_POLL_S`` until the process answers.

        ``ServiceClient.wait_ready`` backs off exponentially, which
        would round the measured set-up time up to its retry ladder.
        """
        client = ServiceClient(address, timeout=5.0, connect_retry_s=0.0)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                client.ping()
                return
            except ServiceError:
                exited = [r for r, p in self.procs.items()
                          if p.poll() is not None]
                if exited or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"{address} not ready; exited: {exited}\n"
                        + self._log_tails()
                    ) from None
                time.sleep(READY_POLL_S)

    def _log_tails(self) -> str:
        tails = []
        for role in self.procs:
            with open(os.path.join(self.workdir, f"{role}.log"), "rb") as f:
                tails.append(f"--- {role}.log\n" + f.read()[-2000:].decode(
                    "utf-8", errors="replace"))
        return "\n".join(tails)

    def pids(self) -> dict[str, int]:
        return {role: proc.pid for role, proc in self.procs.items()}

    def peak_rss_mib(self) -> float:
        """VmHWM summed over the daemons (and coordinator)."""
        return sum(peak_rss_mib(pid) for pid in self.pids().values())

    def stop(self) -> None:
        """Shut every process down and wait for it to end."""
        try:
            ServiceClient(self.front, timeout=5.0).shutdown(
                drain=False, fleet=self.fleet
            )
        except (ServiceError, OSError):
            pass  # already gone: the waits below reap it
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for proc in self.procs.values():
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self._logs:
            log.close()


def _bulk(client: ServiceClient, jobs: list[dict]) -> dict[str, Any]:
    """One submission of ``jobs``: submit to ``end`` event."""
    gc.collect()
    start = time.perf_counter()
    receipt = client.submit({"jobs": jobs})
    submitted = time.perf_counter()
    records = list(client.results(receipt.submission, follow=True))
    return {"wall": time.perf_counter() - start,
            "submit_rtt": submitted - start, "records": records}


class OpenLoop:
    """Sends single-job submissions at precomputed due times.

    Two threads: the sender sleeps until each request is due, submits
    it and opens the request's result stream; the receiver multiplexes
    every open stream and stamps the moment its record arrives.  The
    sender never waits for a result, so a slow reply does not delay
    later sends.  A request is timed from its due time; ``sent - due``
    is the generator's lateness.
    """

    def __init__(
        self, address: str, due: list[float], jobs: list[dict],
        tracer: Tracer,
    ) -> None:
        self.address = address
        self.due = due
        self.jobs = jobs
        self.tracer = tracer
        self.samples: list[dict[str, Any]] = [{} for _ in due]
        self.peak_streams = 0
        self._opened: queue.SimpleQueue = queue.SimpleQueue()
        self._wake_r, self._wake_w = socket.socketpair()

    def _open_stream(self, submission: str) -> socket.socket:
        kind, path = parse_address(self.address)
        if kind != "unix":
            raise ServiceError(f"open loop needs a unix socket: {path}")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(path)
        request = {"v": PROTOCOL_VERSION, "op": "results",
                   "submission": submission, "follow": True}
        sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
        sock.setblocking(False)
        return sock

    def _sender(self, origin: float) -> None:
        client = ServiceClient(self.address, timeout=60.0)
        for index, offset in enumerate(self.due):
            sample = self.samples[index]
            sample["due"] = origin + offset
            delay = sample["due"] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample["sent"] = time.perf_counter()
            try:
                with self.tracer.span("service.submit"):
                    receipt = client.submit({"jobs": [self.jobs[index]]})
                sample["submitted"] = time.perf_counter()
                sample["job_id"] = receipt.job_ids[0]
                sock = self._open_stream(receipt.submission)
            except (ServiceError, OSError) as exc:
                sample["error"] = f"submit failed: {exc}"
                sock = None
            self._opened.put((index, sock))
            self._wake_w.send(b"x")

    def _receiver(self, deadline: float) -> None:
        selector = selectors.DefaultSelector()
        selector.register(self._wake_r, selectors.EVENT_READ)
        remaining = len(self.due)
        try:
            while remaining and time.monotonic() < deadline:
                for key, _ in selector.select(timeout=0.5):
                    if key.fileobj is self._wake_r:
                        self._wake_r.recv(4096)
                        while not self._opened.empty():
                            index, sock = self._opened.get()
                            if sock is None:
                                remaining -= 1
                                continue
                            selector.register(
                                sock, selectors.EVENT_READ, [index, b""]
                            )
                        self.peak_streams = max(
                            self.peak_streams, len(selector.get_map()) - 1
                        )
                        continue
                    if self._read(key.fileobj, key.data):
                        selector.unregister(key.fileobj)
                        key.fileobj.close()
                        remaining -= 1
        finally:
            for key in list(selector.get_map().values()):
                if key.fileobj is not self._wake_r:
                    key.fileobj.close()
            selector.close()

    def _read(self, sock: socket.socket, state: list) -> bool:
        """Consume what arrived on one stream; True when it ended."""
        index = state[0]
        sample = self.samples[index]
        try:
            chunk = sock.recv(65536)
        except BlockingIOError:
            return False
        except OSError as exc:
            sample["error"] = f"result stream failed: {exc}"
            return True
        if not chunk:
            sample.setdefault("error", "result stream closed early")
            return True
        now = time.perf_counter()
        state[1] += chunk
        *lines, state[1] = state[1].split(b"\n")
        for line in lines:
            if not line.strip():
                continue
            event = json.loads(line)
            if not event.get("ok", False):
                sample["error"] = str(event.get("error"))
                return True
            if event.get("event") == "record":
                sample.setdefault("done", now)
                sample.setdefault("records", []).append(event["record"])
            elif event.get("event") == "end":
                return True
        return False

    def run(self, timeout_s: float) -> list[dict[str, Any]]:
        gc.collect()
        origin = time.perf_counter() + 0.05
        receiver = threading.Thread(
            target=self._receiver,
            args=(time.monotonic() + timeout_s,), daemon=True,
        )
        sender = threading.Thread(
            target=self._sender, args=(origin,), daemon=True
        )
        receiver.start()
        sender.start()
        sender.join(timeout_s)
        receiver.join(timeout_s)
        self._wake_r.close()
        self._wake_w.close()
        if sender.is_alive() or receiver.is_alive():
            raise RuntimeError("open-loop driver did not finish in time")
        for sample in self.samples:
            if "done" not in sample:
                sample.setdefault("error", "no result record")
        return self.samples


def _pass(seed: int, workdir: str, tracer: Tracer) -> dict[str, Any]:
    """One full pass: set-up, cold, hit passes, interactive phase."""
    os.makedirs(workdir)
    os.chdir(workdir)
    warm = jobsets.service_warm_jobs(seed)
    second = jobsets.service_warm_jobs(seed, "service-cold-b")
    due = jobsets.poisson_schedule(
        seed, jobsets.SERVICE_RATE_HZ, jobsets.SERVICE_INTERACTIVE_S,
        "service",
    )
    interactive = jobsets.interactive_jobs(
        seed, warm, len(due), jobsets.SERVICE_FRESH_SHARE, "service"
    )
    cluster = Cluster(workdir)
    cpus = os.sched_getaffinity(0)
    out: dict[str, Any] = {"warm": warm, "second": second,
                           "cluster": cluster}
    try:
        if cluster.daemon_cpus is not None:
            os.sched_setaffinity(0, cpus - cluster.daemon_cpus)
        cluster.start()
        client = ServiceClient(cluster.front, timeout=60.0)
        pid = cluster.pids()["d0"]
        cpu0 = cpu_seconds(pid)
        phases_start = time.perf_counter()
        out["cold"] = _bulk(client, warm)
        out["cold_b"] = _bulk(client, second)
        out["hits"] = [_bulk(client, warm) for _ in range(HIT_PASSES)]
        loop = OpenLoop(cluster.front, due, interactive, tracer)
        out["samples"] = loop.run(timeout_s=jobsets.SERVICE_INTERACTIVE_S + 90.0)
        out["peak_streams"] = loop.peak_streams
        out["phases_wall"] = time.perf_counter() - phases_start
        out["daemon_cpu_s"] = cpu_seconds(pid) - cpu0
        out["peak_rss_mb"] = cluster.peak_rss_mib()
        out["pings"] = _pings(client, tracer)
        _traced_extras(out, client, tracer)
    finally:
        cluster.stop()
        os.sched_setaffinity(0, cpus)
    return out


def _pings(client: ServiceClient, tracer: Tracer) -> list[float]:
    rtts = []
    for _ in range(PING_SAMPLES):
        start = time.perf_counter()
        with tracer.span("service.ping"):
            client.ping()
        rtts.append(time.perf_counter() - start)
    return rtts


def _traced_extras(
    out: dict[str, Any], client: ServiceClient, tracer: Tracer
) -> None:
    """Per-layer reads that need the live daemon."""
    waits = []
    for sample in out["samples"]:
        if "job_id" not in sample or "error" in sample:
            continue
        with tracer.span("service.trace"):
            doc = client.trace(sample["job_id"])["trace"]
        waits.extend(
            s["end_s"] - s["start_s"] for s in doc.get("spans", ())
            if s.get("name") == "queue.wait"
        )
    out["queue_waits"] = waits
    stats = client.ping()["cache"]["stats"]
    lookups = stats["hits"] + stats["misses"]
    out["hit_ratio"] = (
        stats["hits"] / lookups if lookups else 0.0, lookups
    )


def _coordinator_stage(
    seed: int, workdir: str, checks: OutputChecks, quality: dict
) -> dict[str, float]:
    """A coordinator in front of two single-worker daemons: warm the
    set through it, then time hits through it and direct."""
    warm = jobsets.service_warm_jobs(seed)
    cluster = Cluster(workdir, fleet=True)
    os.chdir(workdir)
    try:
        cluster.start()
        pid = cluster.pids()["coordinator"]
        cpu0 = cpu_seconds(pid)
        client = ServiceClient(cluster.front, timeout=60.0)
        cold = _bulk(client, warm)
        out = {
            "coordinator.extra_latency_s": _extra_latency(
                warm, cold["records"], cluster
            ),
            "coordinator.placement_skew": _placement_skew(client),
            "coordinator.cpu_s": cpu_seconds(pid) - cpu0,
        }
        _check_bulks(
            _RecordChecker(checks, cluster.caches, quality), warm,
            [("fleet", cold)],
        )
    finally:
        cluster.stop()
    return out


def _single(address: str, job: dict) -> float:
    client = ServiceClient(address, timeout=60.0)
    start = time.perf_counter()
    receipt = client.submit({"jobs": [job]})
    for _record in client.results(receipt.submission, follow=True):
        pass
    return time.perf_counter() - start


def _extra_latency(
    warm: list[dict], records: list[dict], cluster: Cluster
) -> float:
    """Median warm hit via the coordinator minus via its owner daemon."""
    caches = [DiskCache(path) for path in cluster.caches]
    via_front, direct = [], []
    for record in records[:EXTRA_LATENCY_SAMPLES]:
        owners = [
            address for address, cache in zip(cluster.daemons, caches)
            if cache.contains(record["cache_key"])
        ]
        if owners:
            job = warm[record["index"]]
            via_front.append(_single(cluster.front, job))
            direct.append(_single(owners[0], job))
    if not via_front:
        raise RuntimeError("no coordinator hit found its owner daemon")
    return statistics.median(via_front) - statistics.median(direct)


def _placement_skew(client: ServiceClient) -> float:
    """Most placements on one daemon over the mean (1.0 = even)."""
    doc = client.metrics()["metrics"]
    for family in doc.get("families", ()):
        if family.get("name") == "repro_placements_total":
            counts = [s.get("value", 0) for s in family["samples"]]
            if counts and sum(counts):
                return max(counts) / (sum(counts) / len(counts))
    return 0.0


def _queue_replay(
    queue_dir: str, workdir: str, warm: list[dict], records: list[dict]
) -> tuple[float, float]:
    """Per-job submit and lease+complete seconds of an in-process
    ``JobQueue`` opened on a copy of the daemon's queue history."""
    copy = os.path.join(workdir, "queue-replay")
    shutil.copytree(queue_dir, copy)
    queue = JobQueue(copy)
    by_index = {record["index"]: record for record in records}
    gc.collect()
    start = time.perf_counter()
    submission = queue.submit({"jobs": warm})
    submit_s = time.perf_counter() - start
    start = time.perf_counter()
    leased = 0
    while (job := queue.lease("perfbench")) is not None:
        queue.complete(job["id"], by_index[job["index"]])
        leased += 1
    lease_s = time.perf_counter() - start
    if leased != submission["total_jobs"]:
        raise RuntimeError(
            f"queue replay leased {leased} of {submission['total_jobs']}"
        )
    return submit_s / leased, lease_s / leased


class _RecordChecker:
    """Checks result records against the daemons' cached programs.

    ``quality`` maps cache keys to (fidelity, T_exe) as first seen --
    shared across passes, so every path must report the same values.
    """

    def __init__(
        self, checks: OutputChecks, caches: list[str],
        quality: dict[str, tuple[float, float]],
    ) -> None:
        self.checks = checks
        self.caches = [DiskCache(path) for path in caches]
        self.quality = quality
        self._key_errors: dict[str, str | None] = {}
        self._circuits: dict[tuple[str, int], Any] = {}

    def circuit(self, benchmark: str, seed: int):
        key = (benchmark, seed)
        if key not in self._circuits:
            self._circuits[key] = get_benchmark(benchmark).build(seed)
        return self._circuits[key]

    def _key_error(self, record: dict) -> str | None:
        key = record["cache_key"]
        if key not in self._key_errors:
            docs = [c.get(key) for c in self.caches if c.contains(key)]
            error = None if docs else "no cache entry for the job"
            circuit = self.circuit(record["benchmark"], record["seed"])
            for doc in docs:
                error = error or self.checks.verify_doc(
                    key, doc.get("program"), circuit, record["scenario"]
                )
            self._key_errors[key] = error
        return self._key_errors[key]

    def record(self, phase: str, record: dict | None, error=None) -> None:
        if record is None:
            self.checks.count(phase, error or "no result record")
            return
        what = f"{phase} {record.get('benchmark')}:{record.get('seed')}"
        if record.get("status") != "ok":
            self.checks.count(what, str(record.get("error")))
            return
        quality = (record["fidelity"], record["execution_time_us"])
        known = self.quality.setdefault(record["cache_key"], quality)
        if known != quality:
            self.checks.count(
                what, f"fidelity/T_exe {quality} differ from {known}"
            )
            return
        self.checks.count(what, self._key_error(record))


def _reference(
    checks: OutputChecks, warm: list[dict]
) -> dict[str, tuple[float, float]]:
    """Compile the first warm seeds in-process; their digests and
    (fidelity, T_exe) become the reference every daemon must match."""
    first = warm[0]["seed"]
    jobs = [job_from_doc(j) for j in warm
            if j["seed"] < first + REFERENCE_SEEDS]
    quality = {}
    for result in CompilationEngine(workers=1).run(
        jobs, on_error="collect"
    ):
        what = f"reference {result.job.label}"
        if not result.ok:
            checks.count(what, result.error.describe())
            continue
        checks.count(what, checks.verify(
            result.key, result.program, result.job.resolve_circuit(),
            result.job.backend_name,
        ))
        quality[result.key] = (
            result.fidelity.total, result.fidelity.execution_time_us
        )
    return quality


def _check_bulks(
    checker: _RecordChecker, warm: list[dict], bulks
) -> None:
    for phase, bulk in bulks:
        if len(bulk["records"]) != len(warm):
            checker.checks.count(
                phase, f"{len(bulk['records'])} records for {len(warm)} jobs"
            )
        for record in bulk["records"]:
            checker.record(phase, record)


def _check_pass(
    checks: OutputChecks, out: dict[str, Any], quality: dict
) -> None:
    checker = _RecordChecker(checks, out["cluster"].caches, quality)
    _check_bulks(
        checker, out["warm"],
        [("cold", out["cold"])] + [("hit", hit) for hit in out["hits"]],
    )
    _check_bulks(checker, out["second"], [("cold", out["cold_b"])])
    for sample in out["samples"]:
        records = sample.get("records") or [None]
        checker.record("interactive", records[0], sample.get("error"))


def _latencies(samples: list[dict]) -> list[float]:
    return [s["done"] - s["due"] for s in samples if "done" in s]


def _per_layer(metrics: Metrics, out: dict[str, Any], workdir: str) -> None:
    samples = [s for s in out["samples"] if "done" in s]
    latencies = _latencies(out["samples"])
    metrics.set(
        "service.p50_s", statistics.median(latencies), "s", len(latencies)
    )
    metrics.set(
        "service.p95_s", jobsets.percentile(latencies, 95), "s",
        len(latencies),
    )
    walls = [hit["wall"] for hit in out["hits"]]
    metrics.set(
        "service.bulk_jobs_per_s",
        len(out["warm"]) / statistics.median(walls), "jobs/s", len(walls),
    )
    metrics.median("service.ping_rtt_s", out["pings"], "s")
    metrics.median(
        "service.submit_rtt_s",
        [s["submitted"] - s["sent"] for s in samples], "s",
    )
    metrics.median(
        "service.first_record_s",
        [s["done"] - s["submitted"] for s in samples], "s",
    )
    metrics.median("service.queue_wait_s", out["queue_waits"], "s")
    metrics.median(
        "service.bulk_submit_s",
        [hit["submit_rtt"] for hit in out["hits"]], "s",
    )
    metrics.set("service.daemon_cpu_s", out["daemon_cpu_s"], "s")
    ratio, lookups = out["hit_ratio"]
    metrics.set("service.hit_ratio", ratio, "ratio", lookups)
    lateness = [s["sent"] - s["due"] for s in out["samples"]]
    metrics.set(
        "bench.lateness_p95_s", jobsets.percentile(lateness, 95), "s",
        len(lateness),
    )
    submit_s, lease_s = _queue_replay(
        out["cluster"].queues[0], workdir, out["warm"],
        out["hits"][0]["records"],
    )
    metrics.set("queue.submit_per_job_s", submit_s, "s", len(out["warm"]))
    metrics.set(
        "queue.lease_complete_per_job_s", lease_s, "s", len(out["warm"])
    )


def service_stage(
    seed: int, workdir: str, checks: OutputChecks, metrics: Metrics,
    tracer: Tracer,
) -> dict[str, Any]:
    """The service and coordinator stages of a traced run.

    Adds the ``service.*``, ``queue.*``, ``coordinator.*`` and
    ``bench.lateness_p95_s`` per-layer metrics; every result record is
    checked like the engine's outputs.  Returns report extras.
    """
    cwd = os.getcwd()
    try:
        out = _pass(seed, os.path.join(workdir, "service"), tracer)
        quality = _reference(checks, out["warm"])
        _check_pass(checks, out, quality)
        _per_layer(metrics, out, workdir)
        for key, value in _coordinator_stage(
            seed, os.path.join(workdir, "coordinator"), checks, quality
        ).items():
            metrics.set(key, value, "ratio" if key.endswith("skew") else "s")
        return {"peak_result_streams": out["peak_streams"]}
    finally:
        os.chdir(cwd)
