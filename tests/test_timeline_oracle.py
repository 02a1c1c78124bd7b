"""The incremental Eq. (1) replay is bit-identical to the per-qubit oracle.

``repro.fidelity.timeline.simulate_timeline`` keeps a storage-zone mask
that only movers update and charges each instruction with masked numpy
adds (or, without numpy, a loop over a ``stored`` set).  Every qubit must
still receive the same IEEE additions in the same order as the original
replay kept in ``tests/timeline_oracle.py``, so every field compares
with ``==`` on the exact bits -- for every registered backend, with and
without numpy.
"""

from dataclasses import fields, replace

import pytest

from repro.baselines import EnolaConfig
from repro.benchsuite import get_benchmark
from repro.circuits.gates import Gate
from repro.circuits.generators import qaoa_regular
from repro.fidelity import FidelityModel, timeline
from repro.hardware import CollMove, Layout, Move, Zone, ZonedArchitecture
from repro.pipeline import REGISTRY, create_compiler, get_backend
from repro.schedule import MoveBatch, NAProgram, RydbergStage, TrackerError
from timeline_oracle import simulate_timeline as oracle_timeline

TABLE2_ROWS = ("BV-14", "QFT-18", "QAOA-regular4-30", "VQE-50")

#: Random 3-regular QAOA sizes.  Atomique is left out at these sizes:
#: its SWAP chains make 60k-175k instructions, and the oracle alone
#: takes 15-90 s to replay them.
LARGE_QAOA = (512, 1024)

CELLS = [
    (backend, row) for backend in REGISTRY.names() for row in TABLE2_ROWS
] + [
    (backend, f"qaoa{n}")
    for backend in REGISTRY.names()
    if backend != "atomique"
    for n in LARGE_QAOA
]

#: Accumulation paths: numpy masks when numpy imports, else the loop.
MODES = ("numpy", "loop") if timeline._np is not None else ("loop",)


def _compile(backend: str, workload: str):
    if workload.startswith("qaoa"):
        n = int(workload[len("qaoa"):])
        circuit = qaoa_regular(n, degree=3, seed=n)
    else:
        circuit = get_benchmark(workload).builder(0)
    config = get_backend(backend).effective_config(None, 0, 1)
    if isinstance(config, EnolaConfig):
        config = replace(config, mis_restarts=1, sa_iterations_per_qubit=0)
    return create_compiler(backend, config).compile(circuit).program


@pytest.fixture(params=MODES)
def mode(request, monkeypatch):
    if request.param == "loop":
        monkeypatch.setattr(timeline, "_np", None)
    return request.param


def _bits(value):
    """Exact identity of a replay value: float bits, or the value."""
    return value.hex() if isinstance(value, float) else value


def assert_bit_identical(got, want):
    """Field-by-field equality of two timelines, to the last bit."""
    for name in ("exposure", "storage_dwell"):
        got_map, want_map = getattr(got, name), getattr(want, name)
        assert list(got_map) == list(want_map), f"{name} key order"
        assert all(type(v) is float for v in got_map.values()), name
        assert [_bits(v) for v in got_map.values()] == [
            _bits(v) for v in want_map.values()
        ], name
    assert got.idle_per_stage == want.idle_per_stage
    assert all(type(n) is int for n in got.idle_per_stage)
    for name in (
        "total_time",
        "move_time",
        "num_one_qubit_gates",
        "num_two_qubit_gates",
        "num_transfers",
        "idle_excitations",
        "num_stages",
    ):
        value = getattr(got, name)
        assert type(value) is type(getattr(want, name)), name
        assert _bits(value) == _bits(getattr(want, name)), name


@pytest.mark.parametrize(
    "backend,workload", CELLS, ids=[f"{b}-{w}" for b, w in CELLS]
)
def test_replay_matches_oracle(backend, workload, monkeypatch):
    program = _compile(backend, workload)
    want = oracle_timeline(program)
    model = FidelityModel(program.architecture.params)
    want_report = model.from_timeline(want)
    for mode in MODES:
        with monkeypatch.context() as patch:
            if mode == "loop":
                patch.setattr(timeline, "_np", None)
            # ``evaluate`` is the engine's entry point: replay, then Eq. (1).
            got_report = model.evaluate(program)
        assert_bit_identical(got_report.timeline, want)
        for field in fields(got_report):
            if field.name != "timeline":
                assert _bits(getattr(got_report, field.name)) == _bits(
                    getattr(want_report, field.name)
                ), f"{mode}: {field.name}"


@pytest.fixture
def arch():
    return ZonedArchitecture(3, 3, 3, 6)


def _batch(*moves):
    return MoveBatch(coll_moves=[CollMove(moves=[m]) for m in moves])


def _program(arch, instructions):
    return NAProgram(
        architecture=arch,
        initial_layout=Layout.row_major(arch, 3, Zone.COMPUTE),
        instructions=instructions,
    )


def test_tampered_move_source_raises(arch, mode):
    layout = Layout.row_major(arch, 3, Zone.COMPUTE)
    wrong_source = layout.site_of(1)
    dest = arch.site(Zone.STORAGE, 0, 0)
    program = _program(arch, [_batch(Move(0, wrong_source, dest))])
    with pytest.raises(TrackerError, match="source mismatch"):
        timeline.simulate_timeline(program)


def test_qubit_moved_twice_in_one_batch_raises(arch, mode):
    layout = Layout.row_major(arch, 3, Zone.COMPUTE)
    source = layout.site_of(0)
    program = _program(
        arch,
        [
            _batch(
                Move(0, source, arch.site(Zone.STORAGE, 0, 0)),
                Move(0, source, arch.site(Zone.STORAGE, 1, 0)),
            )
        ],
    )
    with pytest.raises(TrackerError, match="moved twice"):
        timeline.simulate_timeline(program)


def test_moves_into_and_out_of_storage_track_the_mask(arch, mode):
    """A qubit parked by one batch is protected until the next moves it
    back; the oracle and the replay agree on every step."""
    layout = Layout.row_major(arch, 3, Zone.COMPUTE)
    home = layout.site_of(2)
    parked = arch.site(Zone.STORAGE, 2, 0)
    program = _program(
        arch,
        [
            _batch(Move(2, home, parked)),
            RydbergStage([Gate("cz", (0, 1))]),
            _batch(Move(2, parked, home)),
            RydbergStage([Gate("cz", (0, 1))]),
        ],
    )
    got = timeline.simulate_timeline(program)
    assert_bit_identical(got, oracle_timeline(program))
    assert got.idle_per_stage == [0, 1]
    assert got.storage_dwell[2] > 0.0
