"""Test oracle: the per-qubit Eq. (1) timeline replay.

This is the original ``simulate_timeline`` body, kept verbatim as the
reference the incremental replay in :mod:`repro.fidelity.timeline` is
pinned against.  It looks every qubit's zone up on every instruction, so
it costs O(qubits x instructions); it lives here, not in ``src/``.
"""

from __future__ import annotations

from repro.fidelity.timeline import ExecutionTimeline
from repro.hardware.geometry import Zone
from repro.schedule.instructions import MoveBatch, OneQubitLayer, RydbergStage
from repro.schedule.program import NAProgram
from repro.schedule.tracker import PositionTracker


def simulate_timeline(program: NAProgram) -> ExecutionTimeline:
    """Replay ``program`` and accumulate the Eq. (1) inputs."""
    params = program.architecture.params
    layout = PositionTracker.from_layout(program.initial_layout)
    timeline = ExecutionTimeline()
    qubits = layout.qubits
    timeline.exposure = {q: 0.0 for q in qubits}
    timeline.storage_dwell = {q: 0.0 for q in qubits}

    def expose_resting(duration: float, busy: dict[int, float]) -> None:
        """Charge ``duration`` to every qubit, minus protection and work."""
        for q in qubits:
            work = busy.get(q, 0.0)
            if layout.zone_of(q) is Zone.STORAGE:
                timeline.storage_dwell[q] += duration - work
            else:
                timeline.exposure[q] += duration - work

    for instr in program.instructions:
        if isinstance(instr, OneQubitLayer):
            duration = instr.duration(params)
            busy = {
                q: count * params.duration_1q
                for q, count in instr.pulse_counts().items()
            }
            expose_resting(duration, busy)
            timeline.total_time += duration
            timeline.num_one_qubit_gates += instr.num_gates
        elif isinstance(instr, MoveBatch):
            duration = instr.duration(params)
            movers = set(instr.moved_qubits)
            # Movers are in flight for the full batch: exposed regardless of
            # their start/end zone.  Resting qubits are protected iff parked
            # in storage.
            for q in qubits:
                if q in movers:
                    timeline.exposure[q] += duration
                elif layout.zone_of(q) is Zone.STORAGE:
                    timeline.storage_dwell[q] += duration
                else:
                    timeline.exposure[q] += duration
            layout.apply_moves(instr.all_moves)
            timeline.total_time += duration
            timeline.move_time += duration
            timeline.num_transfers += instr.num_transfers
        elif isinstance(instr, RydbergStage):
            duration = instr.duration(params)
            interacting = instr.interacting_qubits()
            idle_here = 0
            for q in qubits:
                if q in interacting:
                    continue
                if layout.zone_of(q) is Zone.STORAGE:
                    timeline.storage_dwell[q] += duration
                else:
                    timeline.exposure[q] += duration
                    idle_here += 1
            timeline.total_time += duration
            timeline.num_stages += 1
            timeline.num_two_qubit_gates += instr.num_gates
            timeline.idle_excitations += idle_here
            timeline.idle_per_stage.append(idle_here)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown instruction {instr!r}")

    return timeline


__all__ = ["simulate_timeline"]
