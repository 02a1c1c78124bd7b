"""Tests of the benchmark's own logic: percentile rule, seeded inputs,
output checks.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import calibrate  # noqa: E402
import jobsets  # noqa: E402
from checks import OutputChecks  # noqa: E402
from repro.circuits.generators import qaoa_regular  # noqa: E402
from repro.engine import CompilationEngine, CompileJob, DiskCache  # noqa: E402
from repro.schedule.serialize import program_to_dict  # noqa: E402


class TestPercentileRule:
    @pytest.mark.parametrize(
        "samples, expected",
        [(20, 50), (99, 50), (100, 90), (199, 90), (200, 95),
         (999, 95), (1000, 99), (10000, 99.9)],
    )
    def test_highest_percentile_with_ten_beyond(self, samples, expected):
        assert jobsets.percentile_rank(samples) == expected

    def test_too_few_samples_have_no_percentile(self):
        assert jobsets.percentile_rank(19) is None

    def test_nearest_rank(self):
        values = [float(v) for v in range(100, 0, -1)]
        assert jobsets.percentile(values, 95) == 95.0
        assert jobsets.percentile(values, 50) == 50.0
        assert jobsets.percentile([3.0], 95) == 3.0


class TestSeededInputs:
    def test_same_seed_same_schedule(self):
        first = jobsets.poisson_schedule(7, 12.0, 18.0, "service")
        again = jobsets.poisson_schedule(7, 12.0, 18.0, "service")
        other = jobsets.poisson_schedule(8, 12.0, 18.0, "service")
        assert first == again
        assert first != other
        assert len(first) == len(other) == 216
        assert first == sorted(first) and first[0] > 0

    def test_same_seed_same_job_sets(self):
        for make in (
            jobsets.ladder_specs,
            jobsets.service_warm_jobs,
            lambda s: jobsets.paper_suite_specs(s, ["BV-14", "QFT-18"]),
        ):
            assert make(3) == make(3)
            assert make(3) != make(4)
        warm = jobsets.service_warm_jobs(3)
        mix = jobsets.interactive_jobs(3, warm, 200, 0.25, "service")
        assert mix == jobsets.interactive_jobs(3, warm, 200, 0.25, "service")
        fresh = [j for j in mix if j not in warm]
        assert len(fresh) == 50
        assert len({j["seed"] for j in fresh}) == len(fresh)
        assert sorted(
            sum(j["benchmark"] == b for j in fresh)
            for b in jobsets.SERVICE_BENCHMARKS
        ) == [16, 17, 17]
        assert all(
            j in warm
            for j in jobsets.interactive_jobs(3, warm, 50, 0.0, "hits")
        )

    def test_paper_suite_covers_rows_backends_two_seeds(self):
        specs = jobsets.paper_suite_specs(1, ["BV-14", "QFT-18"])
        assert len(specs) == 2 * 3 * 2
        assert {s["backend"] for s in specs} == set(jobsets.PAPER_BACKENDS)
        assert len({s["seed"] for s in specs}) == 2


@pytest.fixture(scope="module")
def compiled():
    circuit = qaoa_regular(6, degree=3, seed=1)
    [result] = CompilationEngine().run(
        [CompileJob(backend="powermove", circuit=circuit, seed=1)]
    )
    return circuit, result


def _tampered(doc):
    bad = copy.deepcopy(doc)
    for entry in bad["instructions"]:
        if entry["kind"] == "rydberg" and entry["gates"]:
            entry["gates"].pop()
            return bad
    raise AssertionError("program has no Rydberg stage")


class TestOutputChecks:
    def test_good_program_passes(self, compiled):
        circuit, result = compiled
        checks = OutputChecks()
        doc = program_to_dict(result.program)
        checks.count("cold", checks.verify(
            result.key, result.program, circuit, "powermove"))
        checks.count("hit", checks.verify_doc(
            result.key, doc, circuit, "powermove"))
        assert (checks.attempted, checks.failed) == (2, 0)

    def test_tampered_doc_counts_as_failed(self, compiled):
        circuit, result = compiled
        checks = OutputChecks()
        bad = _tampered(program_to_dict(result.program))
        checks.count("tampered", checks.verify_doc(
            "fresh-key", bad, circuit, "powermove"))
        assert (checks.attempted, checks.failed) == (1, 1)
        assert "tampered" in checks.errors[0]

    def test_digest_mismatch_across_paths_counts_as_failed(self, compiled):
        circuit, result = compiled
        checks = OutputChecks()
        checks.count("cold", checks.verify(
            result.key, result.program, circuit, "powermove"))
        bad = _tampered(program_to_dict(result.program))
        error = checks.verify_doc(result.key, bad, circuit, "powermove")
        checks.count("hit", error)
        assert checks.failed == 1 and "digest" in error

    def test_tampered_cache_doc_fails_the_service_record(
        self, compiled, tmp_path
    ):
        from service_workloads import _RecordChecker

        circuit, result = compiled
        cache = DiskCache(str(tmp_path))
        bad = _tampered(program_to_dict(result.program))
        cache.put(result.key, {"program": bad, "compile_time": 0.0})
        checks = OutputChecks()
        checker = _RecordChecker(checks, [str(tmp_path)], {})
        checker.circuit = lambda benchmark, seed: circuit
        record = {
            "status": "ok", "benchmark": "qaoa", "seed": 1,
            "scenario": "powermove", "cache_key": result.key,
            "fidelity": result.fidelity.total,
            "execution_time_us": result.fidelity.execution_time_us,
        }
        checker.record("hit", record)
        assert (checks.attempted, checks.failed) == (1, 1)



class TestCalibration:
    def test_reference_work_is_fixed(self):
        assert calibrate.reference_work() == calibrate.reference_work()

    def test_scale_is_reference_over_trimmed_mean(self):
        calibration = calibrate.Calibration()
        calibration.samples = [0.2] * 8 + [0.0001, 5.0]
        assert calibration.scale() == pytest.approx(
            calibrate.REFERENCE_S / 0.2
        )
        # Bimodal samples: the scale follows the share in each mode.
        calibration.samples = [0.1] * 4 + [0.3] * 6
        assert calibration.scale() == pytest.approx(
            calibrate.REFERENCE_S / ((3 * 0.1 + 5 * 0.3) / 8)
        )


class TestJobRounds:
    def test_every_job_cold_then_hit_each_round(self, tmp_path):
        import engine_workloads

        jobs = [
            CompileJob(backend="powermove",
                       circuit=qaoa_regular(n, degree=3, seed=n), seed=1)
            for n in (6, 8)
        ]
        workload = engine_workloads.EngineWorkload(
            lambda _tracer: jobs, lambda _dir: "memory", rounds=3
        )
        seen = []
        calibration = calibrate.Calibration()
        out = engine_workloads._job_rounds(
            workload, jobs, str(tmp_path), 0.0,
            lambda phase, results, index: seen.append(
                (phase, index, results[0].ok, results[0].cache_hit)
            ),
            calibration,
        )
        assert seen == [
            ("cold", 0, True, False), ("hit", 0, True, True),
            ("cold", 1, True, False), ("hit", 1, True, True),
        ] * 3
        assert len(out["cold_walls"]) == len(out["hit_walls"]) == 3
        assert calibration.samples
        assert [r.job for r in out["cold"]] == jobs
        assert out["cold_s"] > 0 and out["hit_s"] > 0
