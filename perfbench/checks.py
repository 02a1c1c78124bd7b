"""Output checks: every operation the benchmark attempts is checked.

An operation fails when the program reports an error or when its
output is wrong:

* the compiled program does not pass ``validate_program`` against its
  source circuit (the native gate stream, for backends that keep it);
* a row of at most ten qubits is not statevector-equivalent to its
  circuit (``verify_program_semantics``);
* the program digest of a job differs from the digest of the same job
  on another path (cold, hit, service, coordinator, in-process
  reference).

Each distinct program is validated once: a later path that yields the
same digest for the same job is, byte for byte, the program already
checked.
"""

from __future__ import annotations

from typing import Any

from repro.circuits.transpile import transpile_to_native
from repro.pipeline.registry import REGISTRY
from repro.schedule.serialize import program_digest, program_from_dict
from repro.schedule.validator import ValidationError, validate_program
from repro.verify.statevector import SimulationError, verify_program_semantics

#: Largest circuit the statevector check simulates.
SEMANTICS_MAX_QUBITS = 10


class OutputChecks:
    """Counts attempted and failed operations and remembers digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self._verdicts: dict[str, str | None] = {}

    def count(self, what: str, error: str | None = None) -> None:
        """Count one attempted operation; ``error`` marks it failed."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {error}")

    def verify(
        self, job_key: str, program, circuit, backend: str
    ) -> str | None:
        """Check one job's compiled program; the error, or None.

        The first digest seen for ``job_key`` is the reference every
        later path must reproduce.
        """
        digest = program_digest(program)
        known = self.digests.setdefault(job_key, digest)
        if known != digest:
            return (
                f"program digest {digest[:12]} differs from "
                f"{known[:12]} on another path"
            )
        if digest not in self._verdicts:
            self._verdicts[digest] = check_program(
                program, circuit, backend
            )
        return self._verdicts[digest]

    def verify_doc(
        self, job_key: str, doc: dict[str, Any] | None, circuit,
        backend: str,
    ) -> str | None:
        """Check a serialized program document (from a cache entry)."""
        if doc is None:
            return "no program document"
        try:
            program = program_from_dict(doc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"program document does not decode: {exc!r}"
        return self.verify(job_key, program, circuit, backend)


def check_program(program, circuit, backend: str) -> str | None:
    """Validate ``program`` against ``circuit``; the error, or None."""
    native = transpile_to_native(circuit)
    source = native if REGISTRY.get(backend).preserves_gate_stream else None
    try:
        validate_program(program, source_circuit=source)
    except ValidationError as exc:
        return f"validator: {exc}"
    except (KeyError, ValueError) as exc:
        return f"validator could not replay the program: {exc}"
    if circuit.num_qubits <= SEMANTICS_MAX_QUBITS:
        try:
            verify_program_semantics(program, native)
        except SimulationError as exc:
            return f"statevector: {exc}"
    return None
