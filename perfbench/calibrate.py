"""Machine-speed calibration: a fixed reference loop timed during a run.

The benchmark's host is a shared virtual machine whose speed drifts by
a quarter to a half over minutes (NOTES.md), far more than a change to
the program should have to beat.  So a run times a fixed piece of
pure-Python work, independent of the program, between its timed
passes, and reports its time metrics in *reference seconds*: the
measured wall time scaled by ``REFERENCE_S`` over the mean time the
reference loop took in this run.  A program change moves the passes
but not the loop; a slow stretch of the machine moves both.
"""

from __future__ import annotations

import difflib
import gc
import heapq
import random
import statistics
import time

#: Typical seconds of one :func:`reference_work` on the 2-vCPU
#: reference machine (Intel Xeon, Python 3.11).  A fixed constant: it
#: only sets the scale of reference seconds.
REFERENCE_S = 0.035

#: Reference loops timed right after a set-up, to scale that set-up.
SETUP_SAMPLES = 5

#: Share of the reference samples dropped at each end before the mean:
#: a loop the host preempted outright says nothing about its speed.
TRIM = 0.1


class _Atom:
    __slots__ = ("qubit", "x", "y", "zone")

    def __init__(self, qubit: int, x: int, y: int, zone: int) -> None:
        self.qubit, self.x, self.y, self.zone = qubit, x, y, zone


def reference_work() -> int:
    """Fixed interpreter work of the kind the compiler does: small
    objects with attribute access, a heap, grouping into dicts,
    sorting, float arithmetic and sequence matching.  Returns a
    checksum so none of it is skipped."""
    rng = random.Random(7)
    checksum = 0
    for _ in range(6):
        atoms = [
            _Atom(q, rng.randrange(64), rng.randrange(64), q % 3)
            for q in range(1500)
        ]
        heap = [(a.x * 64 + a.y, a.qubit) for a in atoms]
        heapq.heapify(heap)
        order = [heapq.heappop(heap)[1] for _ in range(len(heap))]
        zones: dict[int, list[_Atom]] = {}
        for atom in atoms:
            zones.setdefault(atom.zone, []).append(atom)
        for members in zones.values():
            members.sort(key=lambda a: (a.y, a.x))
            for prev, atom in zip(members, members[1:]):
                step = abs(atom.x - prev.x) + abs(atom.y - prev.y) ** 0.5
                checksum += int(step * 10)
        matcher = difflib.SequenceMatcher(
            None, order[:300], sorted(order[:300]), autojunk=False
        )
        checksum += sum(b.size for b in matcher.get_matching_blocks())
    return checksum


class Calibration:
    """Reference-loop samples of one run and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time one reference loop, with the cyclic garbage collector
        off: a collection would also walk the program's live objects,
        whose number varies by workload."""
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def scale(self) -> float:
        """Reference seconds per measured second over the run.

        The machine switches between a fast and a slow state every few
        seconds, so the loop's times are bimodal.  Their median jumps
        from one mode to the other with the share of samples in each;
        a trimmed mean moves with that share, as the passes do.
        """
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        return REFERENCE_S / statistics.fmean(
            ordered[cut:len(ordered) - cut]
        )


def scale_now(samples: int = SETUP_SAMPLES) -> float:
    """The scale from ``samples`` reference loops timed now: for a
    phase too short to have loops of its own between its parts."""
    calibration = Calibration()
    for _ in range(samples):
        calibration.sample()
    return calibration.scale()
