"""Atomique's SWAP router terminates where greedy descent cycles.

On some placements the greedy Chebyshev step toward a gate partner finds
no occupied neighbour closer to it and steps sideways; from there the
best step leads back, and the router used to swap one atom between two
sites forever (VQE-50 and QAOA-regular3-40 at seed 0 did so until they
ran out of memory).  A revisited site now hands the rest of the route to
a BFS shortest path over occupied homes.
"""

import pytest

from repro.circuits import transpile_to_native
from repro.circuits.gates import Gate
from repro.core.continuous_router import RoutingError
from repro.engine import CompilationEngine, CompileJob
from repro.hardware import Layout, Zone, ZonedArchitecture
from repro.pipeline.atomique_passes import _RoutingState

#: Far above any route the suite needs (VQE-50 takes well under 100
#: SWAPs); a livelock blows through it within a second.
SWAP_LIMIT = 10_000


@pytest.fixture
def bounded_swaps(monkeypatch):
    """Fail fast instead of hanging if the router livelocks again."""
    emitted = []
    original = _RoutingState._emit_swap

    def counted(self, atom_a, atom_b, instructions):
        emitted.append((atom_a, atom_b))
        if len(emitted) > SWAP_LIMIT:
            raise AssertionError("SWAP router does not terminate")
        original(self, atom_a, atom_b, instructions)

    monkeypatch.setattr(_RoutingState, "_emit_swap", counted)
    return emitted


@pytest.mark.parametrize("row", ["VQE-50", "QAOA-regular3-40"])
def test_cycling_routes_finish_validator_clean(bounded_swaps, row):
    job = CompileJob(benchmark=row, backend="atomique", seed=0)
    (result,) = CompilationEngine().run([job])
    # ``validate=True`` is the job default: the program passed the
    # validator before the engine returned it.
    assert job.validate
    assert result.error is None
    program = result.program
    swaps = program.metadata["swaps_inserted"]
    assert swaps == len(bounded_swaps)
    assert program.num_two_qubit_gates == (
        transpile_to_native(job.resolve_circuit()).num_two_qubit_gates
        + 3 * swaps
    )
    assert 0.0 < result.fidelity.total < 1.0


def _state(arch, cells):
    """Routing state with qubit i homed at compute site ``cells[i]``."""
    mapping = {
        q: arch.site(Zone.COMPUTE, col, row)
        for q, (col, row) in enumerate(cells)
    }
    return _RoutingState(arch, Layout(arch, mapping))


def test_cycle_is_broken_by_shortest_path(bounded_swaps):
    # Greedy descent from (2,2) toward (0,0) steps sideways to (1,2),
    # then (0,2), whose best step leads back to (1,2).  The shortest
    # chain from (0,2) to a neighbour of (0,0) is (1,2), (2,1), (1,0).
    cells = [(2, 2), (0, 0), (1, 2), (0, 2), (2, 1), (1, 0)]
    state = _state(ZonedArchitecture(3, 3), cells)
    instructions = []
    swaps = state.route_and_execute(Gate("cz", (0, 1)), instructions)
    assert swaps == len(bounded_swaps) == 2 + 3
    assert state.logical_distance(Gate("cz", (0, 1))) <= 1
    assert state.home[state.logical_to_atom[0]] == state.arch.site(
        Zone.COMPUTE, 1, 0
    )
    assert state.logical_to_atom[1] == 1


def test_disconnected_homes_raise_a_routing_error(bounded_swaps):
    # An empty column splits the occupied sites into two islands.
    cells = [(0, 0), (1, 0), (3, 0), (4, 0)]
    state = _state(ZonedArchitecture(5, 1), cells)
    with pytest.raises(RoutingError, match="no chain of occupied sites"):
        state.route_and_execute(Gate("cz", (0, 3)), [])
