"""Linear (Vandermonde) column coding — paper Section 4.1, Figure 1.

``f`` rows of code processors are appended below the ``P/(2k-1) × (2k-1)``
grid; the code processor in code-row ``i`` of column ``j`` stores the
weighted sum ``sum_l eta_i**l * state_l`` over the column's standard
processors.  The code is created (here: refreshed) at every protocol
checkpoint — the paper initiates "a new code creation process" at each BFS
step — with an ``f``-reduce costing ``O(f*M)`` (Lemma 2.5).  When a
standard processor dies, the survivors and code processors reconstruct its
full state on the replacement with one more reduce.

A processor's recoverable *state* is a list of limb vectors (operand
slices, accumulated results, loop position); shapes are identical across a
column (SPMD), so states add and scale like vectors.
:class:`LinearCodedState` flattens/unflattens state against a schema so
the whole memory image encodes in one shot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from repro.bigint.limbs import LimbVector
from repro.coding.erasure import recovery_coefficients
from repro.coding.linear import SystematicCode
from repro.core.layout import (
    ROLE_LINEAR,
    ROLE_STANDARD,
    CodeFamily,
    Cover,
    ErasureUnit,
    FaultGeometry,
)
from repro.machine import collectives
from repro.machine.errors import MachineError

__all__ = ["LinearCodedState", "ColumnCode"]

# Re-exported from the tag registry for existing importers.
from repro.machine.tags import (  # noqa: E402
    TAG_ENCODE,
    TAG_RECOVER,
    TAG_STATE_META,
)


@dataclass(frozen=True)
class LinearCodedState:
    """A flattened processor state: one limb vector plus its schema."""

    data: LimbVector
    schema: tuple[int, ...]  # lengths of the original vectors, in order

    @classmethod
    def flatten(cls, vectors: list[LimbVector]) -> "LinearCodedState":
        if not vectors:
            raise ValueError("state must contain at least one vector")
        return cls(
            data=LimbVector.concat(vectors),
            schema=tuple(len(v) for v in vectors),
        )

    def unflatten(self) -> list[LimbVector]:
        out = []
        offset = 0
        for length in self.schema:
            out.append(self.data.take(offset, length))
            offset += length
        if offset != len(self.data):
            raise ValueError("schema does not cover the flattened data")
        return out


class ColumnCode:
    """Encode/recover protocol for one grid column.

    Parameters
    ----------
    column:
        Global ranks of the column's standard processors, class-ordered.
    code_ranks:
        Global ranks of the ``f`` code processors shadowing this column.
    """

    def __init__(self, column: list[int], code_ranks: list[int]):
        if not column or not code_ranks:
            raise ValueError("column and code_ranks must be non-empty")
        if set(column) & set(code_ranks):
            raise ValueError("column and code ranks overlap")
        self.column = list(column)
        self.code_ranks = list(code_ranks)
        self.f = len(code_ranks)
        self.code = SystematicCode(k=len(column), f=self.f)

    def fault_geometry(self) -> FaultGeometry:
        """This code run on its own: one unit per codeword coordinate."""
        erased = Cover(ROLE_STANDARD, "erases one codeword coordinate")
        family = CodeFamily("column-code", "systematic", len(self.column), self.f, (erased,))
        units = tuple(ErasureUnit(ROLE_STANDARD, (r,)) for r in self.column)
        units += tuple(ErasureUnit(ROLE_LINEAR, (r,)) for r in self.code_ranks)
        return FaultGeometry(None, len(units), self.f, units, tuple(self.code_ranks), (family,))

    # -- encoding -------------------------------------------------------------
    # repro-lint: in-phase -- runs inside the caller's phase context
    def encode(self, comm, state: LimbVector | None, epoch: int) -> LimbVector | None:
        """Code-creation round (one ``f``-reduce, Lemma 2.5).

        Standard members pass their flattened ``state``; code members pass
        ``None`` and receive their stored weighted sum.  Every member of
        ``column + code_ranks`` must call this with the same ``epoch``.
        """
        members = self.column + self.code_ranks
        if comm.rank not in members:
            raise MachineError(f"rank {comm.rank} is not in this column")
        sub = comm.sub(members)
        if comm.rank in self.column:
            cls = self.column.index(comm.rank)
            if state is None:
                raise ValueError("standard members must supply their state")
            contributions = {
                len(self.column) + i: state * self.code.weights[i][cls]
                for i in range(self.f)
            }
        else:
            # Code members contribute the additive identity; they cannot
            # know the width ahead of time, so the reduce op skips None.
            contributions = {len(self.column) + i: None for i in range(self.f)}
        result = collectives.t_reduce(
            sub,
            contributions,
            op=_add_skip_none,
            tag=TAG_ENCODE + 16 * (epoch % 32),
        )
        return result if comm.rank in self.code_ranks else None

    # -- recovery ----------------------------------------------------------------
    # repro-lint: in-phase -- runs inside the caller's phase context
    def recover(
        self,
        comm,
        dead: list[int],
        my_state: LimbVector | None,
        my_code_word: LimbVector | None,
        epoch: int,
        excluded: list[int] | None = None,
    ) -> LimbVector | None:
        """Reconstruct the dead members' states on their replacements.

        Every member of the column group (standard + code, replacements
        included) calls this.  Survivor contributions are scaled by the
        exact erasure-decoding coefficients (denominators cleared first);
        each replacement receives one reduce and divides once.  Returns
        the reconstructed state at replacements, ``None`` elsewhere.

        Raises ``MachineError`` when more than ``f`` members are lost.
        """
        if len(dead) > self.f:
            raise MachineError(
                f"{len(dead)} faults in one column exceed the code distance "
                f"(f={self.f})"
            )
        members = self.column + self.code_ranks
        for d in dead:
            if d not in members:
                raise MachineError(f"dead rank {d} is not in this column")
        sub = comm.sub(members)
        k = len(self.column)
        dead_pos = [members.index(d) for d in dead]
        # "Excluded" members are alive but hold no valid data (e.g. a code
        # processor that failed and was replaced since the last encode):
        # they participate in the reduces but are never selected as
        # survivors.  All participants must pass the same exclusion set.
        excluded_pos = {members.index(r) for r in (excluded or []) if r in members}
        unusable = set(dead_pos) | excluded_pos
        survivors_pos = [i for i in range(len(members)) if i not in unusable][:k]
        if len(survivors_pos) < k:
            raise MachineError(
                f"only {len(survivors_pos)} usable members remain in the "
                f"column; {k} needed (beyond the code distance)"
            )
        coeff_map = recovery_coefficients(
            self.code,
            survivors_pos,
            [p for p in dead_pos if p < k],
        )
        my_pos = members.index(comm.rank)
        my_value = my_state if my_pos < k else my_code_word
        out: LimbVector | None = None
        for d in dead:
            d_pos = members.index(d)
            if d_pos >= k:
                # A lost code word is re-encoded at the next checkpoint,
                # not reconstructed.
                continue
            coeffs = coeff_map[d_pos]
            denom = 1
            for c in coeffs.values():
                denom = denom * c.denominator // gcd(denom, c.denominator)
            if my_pos in coeffs:
                if my_value is None:
                    raise MachineError(
                        f"surviving rank {comm.rank} has no state to contribute"
                    )
                scaled = my_value * int(Fraction(coeffs[my_pos]) * denom)
            else:
                scaled = None  # replacements and unused survivors
            root = members.index(d)
            result = collectives.t_reduce(
                sub,
                {root: scaled},
                op=_add_skip_none,
                tag=TAG_RECOVER + 16 * (epoch % 32) + 2 * d_pos,
            )
            if comm.rank == d:
                if result is None:
                    raise MachineError("recovery reduce produced no data")
                out = result.exact_div(denom) if denom != 1 else result
        return out


def _add_skip_none(a, b):
    """Addition treating ``None`` as the additive identity (used so that
    code processors and replacements can join reduces without knowing the
    state width)."""
    if a is None:
        return b
    if b is None:
        return a
    return a + b
