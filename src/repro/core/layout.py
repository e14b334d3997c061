"""The cyclic word layout of Section 3 and its repartition maps.

Operand vectors are distributed over a processor group at single-word
granularity: the rank with *class* ``c`` (its index in the group's
class-ordered member list) holds the words at positions ``u ≡ c (mod g)``.
Because every level's block length is divisible by every group size (the
plan pads inputs to a multiple of ``P * k**levels``), this cyclic layout
has the property the paper's block-cyclic layout is chosen for: **all
evaluation and interpolation arithmetic is local**, and the only
communication is the per-BFS-step repartition within fixed ``2k-1``-rank
target sets (the grid "rows").

The repartition maps are pure index shuffles:

- descending, the new class-``c'`` member of column ``j`` receives the
  eval-``j`` slices of the ``q`` old classes ``{c : c ≡ c' (mod g')}`` and
  *interleaves* them (``merged[p] = parts[p mod q][p // q]``);
- ascending, a result slice *deinterleaves* into ``q`` parts, part ``jp``
  going back to old class ``c' + jp*g'``.

Each algorithm states its processor layout (Section 4) here too, as the
:class:`FaultGeometry` its ``fault_geometry()`` returns.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.bigint.limbs import LimbVector
from repro.core.plan import ExecutionPlan

__all__ = ["CyclicLayout", "cyclic_slice", "cyclic_merge", "cyclic_deinterleave"]
__all__ += ["ErasureUnit", "Cover", "CodeFamily", "FaultGeometry"]

#: A rank's role in a processor layout.
ROLE_STANDARD = "standard"
ROLE_LINEAR = "linear-code"
ROLE_POLY = "poly-code"
ROLE_REPLICA = "replica"
#: The phases of the recursion's traversal, where the coded algorithms
#: recover a lost rank inside the task loop.
TRAVERSAL_PHASES = ("evaluation", "multiplication", "interpolation")


def cyclic_slice(vector: LimbVector, cls: int, g: int) -> LimbVector:
    """The class-``cls`` slice of ``vector`` over a group of size ``g``:
    positions ``u ≡ cls (mod g)``."""
    if not (0 <= cls < g):
        raise ValueError(f"class {cls} out of range for group size {g}")
    if len(vector) % g:
        raise ValueError(f"vector length {len(vector)} not divisible by {g}")
    return LimbVector(vector.limbs[cls::g], vector.base_bits)


def cyclic_merge(parts: list[LimbVector]) -> LimbVector:
    """Interleave ``q`` equally long parts: ``out[p] = parts[p % q][p // q]``."""
    if not parts:
        raise ValueError("cyclic_merge of no parts")
    q = len(parts)
    m = len(parts[0])
    base_bits = parts[0].base_bits
    if any(len(p) != m or p.base_bits != base_bits for p in parts):
        raise ValueError("parts must have equal length and radix")
    out = [0] * (q * m)
    for j, part in enumerate(parts):
        out[j::q] = part.limbs
    return LimbVector(out, base_bits)


def cyclic_deinterleave(vector: LimbVector, q: int) -> list[LimbVector]:
    """Inverse of :func:`cyclic_merge`: part ``jp`` holds positions
    ``p ≡ jp (mod q)``."""
    if q <= 0 or len(vector) % q:
        raise ValueError(f"cannot deinterleave length {len(vector)} into {q} parts")
    return [LimbVector(vector.limbs[j::q], vector.base_bits) for j in range(q)]


class CyclicLayout:
    """Distribution and collection of full vectors (used at the run
    boundary: distributing padded inputs, assembling the output)."""

    def __init__(self, p: int):
        if p <= 0:
            raise ValueError("p must be positive")
        self.p = p

    def distribute(self, vector: LimbVector) -> list[LimbVector]:
        """Per-rank slices of ``vector`` (rank = class initially)."""
        return [cyclic_slice(vector, c, self.p) for c in range(self.p)]

    def collect(self, slices: list[LimbVector]) -> LimbVector:
        """Reassemble the full vector from per-class slices."""
        if len(slices) != self.p:
            raise ValueError(f"expected {self.p} slices, got {len(slices)}")
        return cyclic_merge(list(slices))


class ErasureUnit(NamedTuple):
    """Ranks one hard fault condemns together, and their role.  One dead
    member drops its whole coded column from the in-order interpolation
    (Section 4.2) or taints its whole replica copy; a codeword coordinate
    is a unit of its own."""

    role: str
    members: tuple[int, ...]


class Cover(NamedTuple):
    """A family recovers faults on ``role`` ranks in ``phases`` (empty:
    any phase); ``reason`` says how.  A family's covers are disjoint.
    Together the covers are the variant's tolerance contract: a fault
    that no cover matches must surface loudly."""

    role: str
    reason: str
    phases: tuple[str, ...] = ()


class CodeFamily(NamedTuple):
    """One recovery code: any ``budget`` of its units may be erased, and
    ``needed`` survivors decode.  ``kind`` is ``"points"`` (Theorem 2.1;
    ``soft``: the decoder also locates silent errors), ``"multivariate"``
    (points in ``grid = (r, l)``-general position, Claim 6.1),
    ``"systematic"`` (the Section 4.1 column code) or ``"trivial"``
    (structural recovery over the labelled ``units``)."""

    name: str
    kind: str
    needed: int
    budget: int
    covers: tuple[Cover, ...]
    points: tuple[Any, ...] = ()
    soft: bool = False
    grid: tuple[int, int] = (1, 1)
    units: tuple[str, ...] = ()
    mechanism: str = ""

    # With distance budget + 1, an error costs two units of redundancy
    # and an erasure one; after s erasures the residual distance is
    # budget + 1 - s.
    def correctable(self, erasures: int, errors: int) -> bool:
        """Whether the code decodes ``erasures`` lost units plus
        ``errors`` silent ones uniquely."""
        return erasures + 2 * errors <= self.budget

    def detectable(self, erasures: int, errors: int) -> bool:
        """Whether no other codeword lies within reach of the pattern."""
        return erasures + errors <= self.budget


class FaultGeometry(NamedTuple):
    """A variant's processor layout, as its algorithm object states it.
    ``units`` partition ``range(machine_size)``; ``code_ranks`` are the
    polynomial code's columns (or the column code's rows); ``l`` counts
    the BFS steps a multi-step code combines.  Its families are the
    variant's tolerance contract: which faults it survives and how many."""

    plan: ExecutionPlan | None
    machine_size: int
    f_eff: int
    units: tuple[ErasureUnit, ...]
    code_ranks: tuple[int, ...] = ()
    families: tuple[CodeFamily, ...] = ()
    l: int | None = None

    def unit_of(self, rank: int) -> ErasureUnit:
        for unit in self.units:
            if rank in unit.members:
                return unit
        raise ValueError(f"rank {rank} is not in the {self.machine_size}-rank machine")

    def covering(self, role: str, phase: str) -> list[tuple[CodeFamily, Cover]]:
        """Every family cover that recovers a fault on a ``role`` rank in
        ``phase``, in family order."""
        return [
            (family, cover)
            for family in self.families
            for cover in family.covers
            if cover.role == role and (not cover.phases or phase in cover.phases)
        ]

    def tolerates(self, kind: str, rank: int, phase: str) -> bool:
        """A hard fault is tolerated where a family covers the rank's role
        in ``phase``, a silent (soft) one only where that family's decoder
        locates errors.  A delay erases nothing, so no budget counts it."""
        if kind == "delay" or not 0 <= rank < self.machine_size:
            return False
        covering = self.covering(self.unit_of(rank).role, phase)
        return any(kind == "hard" or family.soft for family, _ in covering)

    def budget(self, kind: str) -> int:
        """Tolerated ``kind`` faults one schedule may hold: the tightest
        family's budget, halved for silent errors."""
        budget = min((family.budget for family in self.families), default=0)
        return budget // 2 if kind == "soft" else budget

    @property
    def kinds(self) -> tuple[str, ...]:
        """Fault kinds worth injecting: soft events only fire in the
        programs whose decoder checks for them."""
        if any(family.soft for family in self.families):
            return ("hard", "delay", "soft")
        return ("hard", "delay")
