"""Timeline simulation of a compiled program.

Replays the instruction stream to produce everything the paper's fidelity
formula (Eq. 1) consumes:

* the execution time ``T_exe`` (1Q layers + movement batches + excitations);
* per-qubit *decoherence exposure* ``T_q``: wall-clock time during which the
  qubit is neither in the storage zone nor actively being gated.  Movement
  and transfer time counts as exposure (the qubit is in flight); storage
  dwell does not (Sec. 2.2: coherence decay in storage is negligible);
* the idle-excitation count ``sum_i n_i``: how many times a non-interacting
  qubit sat in the computation zone during a Rydberg excitation;
* gate and transfer counts (``g1``, ``g2``, ``N_trans``).

The engine runs this replay on every job, cache hits included, so it is
linear in the program: the storage-zone membership of every qubit is a
mask built once from the initial layout and updated only for the qubits
a :class:`MoveBatch` moves (after the tracker has checked their
sources).  Each instruction is then charged with masked numpy adds when
numpy is importable, or by a pure-Python loop over a ``stored`` set when
it is not.  Both paths perform, per qubit, the same IEEE additions in
the same order as a per-qubit zone lookup would, so every output is
bit-identical to that reference (``tests/timeline_oracle.py``, pinned by
``tests/test_timeline_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.geometry import Zone
from ..hardware.moves import Move
from ..schedule.instructions import MoveBatch, OneQubitLayer, RydbergStage
from ..schedule.program import NAProgram
from ..schedule.tracker import PositionTracker

try:  # optional: masked array accumulation (CI's minimal env lacks numpy)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the loop fallback
    _np = None


@dataclass
class ExecutionTimeline:
    """Aggregates produced by replaying a program.

    Attributes:
        total_time: Execution time ``T_exe`` in seconds.
        exposure: Per-qubit decoherence exposure ``T_q`` in seconds.
        num_one_qubit_gates: ``g1``.
        num_two_qubit_gates: ``g2``.
        num_transfers: ``N_trans``.
        idle_excitations: ``sum_i n_i`` across all Rydberg stages.
        idle_per_stage: ``n_i`` for each stage, in order.
        num_stages: Number of Rydberg excitations ``S``.
        move_time: Seconds spent in movement batches (incl. transfers).
        storage_dwell: Per-qubit seconds protected in the storage zone.
    """

    total_time: float = 0.0
    exposure: dict[int, float] = field(default_factory=dict)
    num_one_qubit_gates: int = 0
    num_two_qubit_gates: int = 0
    num_transfers: int = 0
    idle_excitations: int = 0
    idle_per_stage: list[int] = field(default_factory=list)
    num_stages: int = 0
    move_time: float = 0.0
    storage_dwell: dict[int, float] = field(default_factory=dict)

    def max_exposure(self) -> float:
        """Largest per-qubit exposure (seconds)."""
        return max(self.exposure.values(), default=0.0)

    def total_exposure(self) -> float:
        """Sum of per-qubit exposures (seconds)."""
        return sum(self.exposure.values())


class _ArrayCharges:
    """Per-qubit accumulators as float64 arrays, charged by masked adds.

    Row 0 of ``totals`` is the exposure, row 1 the storage dwell;
    ``sides`` is the matching boolean mask (row 0: not in storage, row 1:
    in storage).  The mask is built once from the initial layout and then
    updated for movers only, so each instruction costs one masked add
    over both rows.  Every qubit still gets the same IEEE additions in
    the same order as a per-qubit loop.
    """

    def __init__(self, layout: PositionTracker) -> None:
        qubits = layout.qubits
        self.qubits = qubits
        self.index = {q: i for i, q in enumerate(qubits)}
        stored = [layout.zone_of(q) is Zone.STORAGE for q in qubits]
        self.sides = _np.array(
            [[not s for s in stored], stored], dtype=bool
        )
        # Flat view: qubit column i is entries i (row 0) and n + i (row 1),
        # so a mask update is one 1-D fancy assignment.
        self.flat = self.sides.reshape(-1)
        self.totals = _np.zeros((2, len(qubits)))

    def _columns(self, qubits) -> list[int]:
        """Flat ``sides`` entries of the tracked ``qubits``: their row-0
        entries, then their row-1 entries."""
        n = len(self.qubits)
        cols = [self.index[q] for q in qubits if q in self.index]
        return cols + [n + i for i in cols]

    def _charge(self, amount, where) -> None:
        _np.add(self.totals, amount, out=self.totals, where=where)

    def layer(self, duration: float, busy: dict[int, float]) -> None:
        amount = _np.full(len(self.qubits), duration)
        gated = [q for q in busy if q in self.index]
        amount[[self.index[q] for q in gated]] = [
            duration - busy[q] for q in gated
        ]
        self._charge(amount, self.sides)

    def batch(self, duration: float, moves: list[Move]) -> None:
        # Movers are in flight for the whole batch, then rest where they
        # land: only their mask columns change, twice.
        columns = self._columns([m.qubit for m in moves])
        self.flat[columns] = [True] * len(moves) + [False] * len(moves)
        self._charge(duration, self.sides)
        landed = [m.destination.zone is Zone.STORAGE for m in moves]
        self.flat[columns] = [not s for s in landed] + landed

    def stage(self, duration: float, interacting: set[int]) -> int:
        idle = self.sides.copy()
        idle.reshape(-1)[self._columns(interacting)] = False
        self._charge(duration, idle)
        return int(_np.count_nonzero(idle[0]))

    def result(self) -> tuple[dict[int, float], dict[int, float]]:
        exposure, dwell = self.totals.tolist()
        return dict(zip(self.qubits, exposure)), dict(zip(self.qubits, dwell))


class _LoopCharges:
    """Pure-Python accumulators: the same charges, one qubit at a time.

    ``stored`` is the set of qubits currently parked in storage, kept up
    to date from the movers' destinations.
    """

    def __init__(self, layout: PositionTracker) -> None:
        qubits = layout.qubits
        self.qubits = qubits
        self.stored = {
            q for q in qubits if layout.zone_of(q) is Zone.STORAGE
        }
        self.exposure = {q: 0.0 for q in qubits}
        self.dwell = {q: 0.0 for q in qubits}

    def layer(self, duration: float, busy: dict[int, float]) -> None:
        for q in self.qubits:
            side = self.dwell if q in self.stored else self.exposure
            side[q] += duration - busy.get(q, 0.0)

    def batch(self, duration: float, moves: list[Move]) -> None:
        movers = {m.qubit for m in moves}
        stored = self.stored
        for q in self.qubits:
            if q in stored and q not in movers:
                self.dwell[q] += duration
            else:
                self.exposure[q] += duration
        for m in moves:
            if m.destination.zone is Zone.STORAGE:
                stored.add(m.qubit)
            else:
                stored.discard(m.qubit)

    def stage(self, duration: float, interacting: set[int]) -> int:
        stored = self.stored
        idle = 0
        for q in self.qubits:
            if q in interacting:
                continue
            if q in stored:
                self.dwell[q] += duration
            else:
                self.exposure[q] += duration
                idle += 1
        return idle

    def result(self) -> tuple[dict[int, float], dict[int, float]]:
        return self.exposure, self.dwell


def simulate_timeline(program: NAProgram) -> ExecutionTimeline:
    """Replay ``program`` and accumulate the Eq. (1) inputs."""
    params = program.architecture.params
    layout = PositionTracker.from_layout(program.initial_layout)
    charges = (_LoopCharges if _np is None else _ArrayCharges)(layout)
    timeline = ExecutionTimeline()

    for instr in program.instructions:
        if isinstance(instr, OneQubitLayer):
            duration = instr.duration(params)
            # Gated qubits are working, not idling, for their pulses.
            charges.layer(
                duration,
                {
                    q: count * params.duration_1q
                    for q, count in instr.pulse_counts().items()
                },
            )
            timeline.total_time += duration
            timeline.num_one_qubit_gates += instr.num_gates
        elif isinstance(instr, MoveBatch):
            duration = instr.duration(params)
            moves = instr.all_moves
            # The tracker checks move sources and duplicate movers.
            layout.apply_moves(moves)
            # Movers are in flight for the full batch: exposed regardless of
            # their start/end zone.  Resting qubits are protected iff parked
            # in storage.
            charges.batch(duration, moves)
            timeline.total_time += duration
            timeline.move_time += duration
            timeline.num_transfers += instr.num_transfers
        elif isinstance(instr, RydbergStage):
            duration = instr.duration(params)
            # Non-interacting qubits idle through the excitation; those in
            # the computation zone count towards ``n_i``.
            idle_here = charges.stage(duration, instr.interacting_qubits())
            timeline.total_time += duration
            timeline.num_stages += 1
            timeline.num_two_qubit_gates += instr.num_gates
            timeline.idle_excitations += idle_here
            timeline.idle_per_stage.append(idle_here)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown instruction {instr!r}")

    timeline.exposure, timeline.storage_dwell = charges.result()
    return timeline


__all__ = ["ExecutionTimeline", "simulate_timeline"]
