"""Atomique's SWAP-insertion route pass (fixed-array baseline).

Atomique shares the pipeline front (transpile, partition, architecture,
annealed placement in the computation zone) and the emit pass with the
movement compilers.  Its middle is a single pass: qubits live on fixed
home sites, connectivity comes from SWAP chains (three physical CZs
each), and every physical CZ executes as one move-in / excite /
move-back cycle.

Because SWAPs permute the logical->atom mapping, the 1Q *gap* layers
between blocks must be retargeted with the mapping state at the moment
the block executes -- the pass therefore pre-computes
``ctx.gap_layers`` for the shared emit pass instead of letting it copy
the partition's gaps verbatim.
"""

from __future__ import annotations

from collections import deque

from ..circuits.gates import Gate
from ..core.continuous_router import RoutingError
from ..hardware.geometry import Site, ZonedArchitecture
from ..hardware.layout import Layout
from ..hardware.moves import CollMove, Move
from ..schedule.instructions import MoveBatch, OneQubitLayer, RydbergStage
from .context import CompileContext
from .strategies import resolve_routing


class _RoutingState:
    """Logical->atom mapping plus SWAP/physical-gate emission."""

    def __init__(self, arch: ZonedArchitecture, layout: Layout) -> None:
        self.arch = arch
        # Atoms never change homes; identify atom i with qubit index i of
        # the program and track which atom holds each logical state.
        self.home: dict[int, Site] = {
            q: layout.site_of(q) for q in layout.qubits
        }
        self.logical_to_atom: dict[int, int] = {
            q: q for q in layout.qubits
        }
        self._site_to_atom: dict[tuple[int, int], int] = {
            (s.col, s.row): q for q, s in self.home.items()
        }

    # -- geometry ----------------------------------------------------------

    def atom_at(self, col: int, row: int) -> int | None:
        """Atom whose home is compute site (col, row), if any."""
        return self._site_to_atom.get((col, row))

    def logical_distance(self, gate: Gate) -> int:
        """Chebyshev grid distance between a gate's logical partners."""
        a, b = gate.qubits
        sa = self.home[self.logical_to_atom[a]]
        sb = self.home[self.logical_to_atom[b]]
        return max(abs(sa.col - sb.col), abs(sa.row - sb.row))

    def _step_toward(self, source: Site, target: Site) -> Site:
        """The neighbouring *occupied* site one step from source toward
        target (greedy Chebyshev descent over atom homes)."""
        best: Site | None = None
        best_key: tuple | None = None
        for dc in (-1, 0, 1):
            for dr in (-1, 0, 1):
                if dc == 0 and dr == 0:
                    continue
                col, row = source.col + dc, source.row + dr
                atom = self.atom_at(col, row)
                if atom is None:
                    continue
                site = self.home[atom]
                dist = max(
                    abs(site.col - target.col), abs(site.row - target.row)
                )
                key = (dist, abs(dc) + abs(dr), col, row)
                if best_key is None or key < best_key:
                    best_key = key
                    best = site
        if best is None:  # pragma: no cover - grid always has neighbours
            raise RuntimeError("isolated atom in fixed array")
        return best

    def _shortest_path(self, source: Site, target: Site) -> list[Site]:
        """Occupied sites, in order, from ``source`` (exclusive) to the
        nearest site next to ``target``: a BFS over atom homes with
        8-neighbour hops that never passes through ``target``."""
        parent: dict[Site, Site | None] = {source: None}
        queue = deque([source])
        while queue:
            site = queue.popleft()
            if max(
                abs(site.col - target.col), abs(site.row - target.row)
            ) <= 1:
                path = []
                while site != source:
                    path.append(site)
                    site = parent[site]
                return path[::-1]
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    atom = self.atom_at(site.col + dc, site.row + dr)
                    if atom is None:
                        continue
                    neighbour = self.home[atom]
                    if neighbour == target or neighbour in parent:
                        continue
                    parent[neighbour] = site
                    queue.append(neighbour)
        raise RoutingError(
            f"no chain of occupied sites joins {source} to {target}"
        )

    # -- gate emission -------------------------------------------------------

    def physical_1q(self, gate: Gate) -> Gate:
        """Retarget a logical 1Q gate onto the atom holding its state."""
        return Gate(
            gate.name,
            (self.logical_to_atom[gate.qubits[0]],),
            gate.params,
        )

    def _emit_physical_cz_class(
        self, gate_name: str, params: tuple, atom_a: int, atom_b: int,
        instructions: list,
    ) -> None:
        """One physical CZ-class gate: move-in, excite, move-back."""
        site_a = self.home[atom_a]
        site_b = self.home[atom_b]
        out = Move(atom_a, site_a, site_b)
        instructions.append(MoveBatch(coll_moves=[CollMove(moves=[out])]))
        instructions.append(
            RydbergStage(gates=[Gate(gate_name, (atom_a, atom_b), params)])
        )
        back = Move(atom_a, site_b, site_a)
        instructions.append(MoveBatch(coll_moves=[CollMove(moves=[back])]))

    def _emit_swap(
        self, atom_a: int, atom_b: int, instructions: list
    ) -> None:
        """SWAP the logical states of two neighbouring atoms: 3 CX, each
        as H-CZ-H (the standard native decomposition)."""
        for control, target in (
            (atom_a, atom_b),
            (atom_b, atom_a),
            (atom_a, atom_b),
        ):
            instructions.append(
                OneQubitLayer(gates=[Gate("h", (target,))])
            )
            self._emit_physical_cz_class(
                "cz", (), control, target, instructions
            )
            instructions.append(
                OneQubitLayer(gates=[Gate("h", (target,))])
            )
        # Update the logical mapping (atoms always hold exactly one
        # logical state, so both lookups succeed).
        logical_a = next(
            q for q, a in self.logical_to_atom.items() if a == atom_a
        )
        logical_b = next(
            q for q, a in self.logical_to_atom.items() if a == atom_b
        )
        self.logical_to_atom[logical_a] = atom_b
        self.logical_to_atom[logical_b] = atom_a

    def route_and_execute(self, gate: Gate, instructions: list) -> int:
        """Route a logical CZ-class gate with SWAPs, then execute it.

        Returns the number of SWAPs inserted.
        """
        logical_a, logical_b = gate.qubits
        swaps = 0
        # Sites logical_a has held while routing this gate.  Homes never
        # change and logical_b stays put, so the greedy step is a function
        # of the current site alone: a revisit means it would cycle
        # forever, so the route finishes along a shortest chain instead.
        visited: set[Site] = set()
        while True:
            atom_a = self.logical_to_atom[logical_a]
            atom_b = self.logical_to_atom[logical_b]
            site_a = self.home[atom_a]
            site_b = self.home[atom_b]
            distance = max(
                abs(site_a.col - site_b.col), abs(site_a.row - site_b.row)
            )
            if distance <= 1:
                break
            visited.add(site_a)
            step_site = self._step_toward(site_a, site_b)
            if step_site in visited:
                for hop in self._shortest_path(site_a, site_b):
                    hop_atom = self.atom_at(hop.col, hop.row)
                    self._emit_swap(atom_a, hop_atom, instructions)
                    atom_a = hop_atom
                    swaps += 1
                break
            step_atom = self.atom_at(step_site.col, step_site.row)
            assert step_atom is not None
            self._emit_swap(atom_a, step_atom, instructions)
            swaps += 1
        atom_a = self.logical_to_atom[logical_a]
        atom_b = self.logical_to_atom[logical_b]
        self._emit_physical_cz_class(
            gate.name, gate.params, atom_a, atom_b, instructions
        )
        return swaps


class AtomiqueSwapRoutePass:
    """SWAP-chain routing over fixed home sites, one pass per program.

    Produces both the per-block instruction streams and the retargeted
    1Q gap layers (``ctx.gap_layers``) for the shared emit pass.
    """

    name = "swap_route"

    def run(self, ctx: CompileContext) -> None:
        ctx.require("partition", "architecture", "initial_layout")
        # Family check only: the swap family has no per-stage hooks, but
        # resolving rejects e.g. a continuous-family override up front.
        resolve_routing(ctx, "swap")
        state = _RoutingState(ctx.architecture, ctx.initial_layout)
        block_instructions: list[list] = []
        gap_layers: list = []
        swaps_inserted = 0
        for block in ctx.partition.blocks:
            gap = ctx.partition.one_qubit_gaps[block.index]
            gap_layers.append(
                OneQubitLayer([state.physical_1q(g) for g in gap])
                if gap
                else None
            )
            instructions: list = []
            # Cheap heuristic: route the currently-closest pairs first so
            # earlier swaps do not stretch later ones more than needed.
            gates = sorted(
                block.gates, key=lambda g: state.logical_distance(g)
            )
            for gate in gates:
                swaps_inserted += state.route_and_execute(
                    gate, instructions
                )
            block_instructions.append(instructions)
        trailing = ctx.partition.one_qubit_gaps[ctx.partition.num_blocks]
        gap_layers.append(
            OneQubitLayer([state.physical_1q(g) for g in trailing])
            if trailing
            else None
        )
        ctx.block_instructions = block_instructions
        ctx.gap_layers = gap_layers
        ctx.counters["swaps_inserted"] = swaps_inserted
        ctx.counters["num_stages"] = sum(
            sum(1 for i in instrs if isinstance(i, RydbergStage))
            for instrs in block_instructions
        )
        ctx.counters["final_mapping"] = dict(state.logical_to_atom)


def atomique_metadata(ctx: CompileContext) -> dict:
    """Historical Atomique program metadata (key order preserved)."""
    return {
        "num_blocks": ctx.partition.num_blocks,
        "num_stages": ctx.counters["num_stages"],
        "swaps_inserted": ctx.counters["swaps_inserted"],
        "use_storage": False,
        "num_aods": 1,
        "final_mapping": ctx.counters["final_mapping"],
    }


__all__ = [
    "AtomiqueSwapRoutePass",
    "atomique_metadata",
]
