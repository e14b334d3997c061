"""The replication baseline (paper Theorem 5.3).

The general-purpose alternative the paper compares against: run ``f + 1``
independent copies of Parallel Toom-Cook on ``f + 1`` disjoint sets of
``P`` processors (``f * P`` *additional* processors).  Any ``f`` hard
faults can kill at most ``f`` copies, so at least one copy finishes; its
output is taken.

Costs: each copy's F/BW/L equal the base algorithm's (replicating the
input costs ``o(1)``, which we model as part of the initial distribution),
but the machine is ``(f+1) P`` processors — the ``Θ(P/(2k-1))`` resource
overhead the paper's algorithm eliminates.
"""

from __future__ import annotations

import math
from typing import Any

from repro.core.layout import (
    ROLE_REPLICA,
    CodeFamily,
    Cover,
    CyclicLayout,
    ErasureUnit,
    FaultGeometry,
)
from repro.core.parallel_toomcook import ParallelToomCook
from repro.core.plan import ExecutionPlan
from repro.machine.errors import HardFault, MachineError
from repro.machine.fault import FaultSchedule

__all__ = ["ReplicatedToomCook"]


class ReplicatedToomCook(ParallelToomCook):
    """``f + 1``-fold replicated parallel Toom-Cook."""

    def __init__(
        self,
        plan: ExecutionPlan,
        f: int,
        memory_words: float = math.inf,
        fault_schedule: FaultSchedule | None = None,
        timeout: float = 60.0,
    ):
        if f < 1:
            raise ValueError("f must be at least 1")
        super().__init__(
            plan,
            memory_words=memory_words,
            fault_schedule=fault_schedule,
            timeout=timeout,
        )
        self.f = f

    @property
    def copies(self) -> int:
        return self.f + 1

    def machine_size(self) -> int:
        """``(f+1) * P`` processors: ``f * P`` additional (Theorem 5.3)."""
        return self.copies * self.plan.p

    def fault_geometry(self) -> FaultGeometry:
        """Each copy is one erasure unit; any ``f`` copies may be lost."""
        p, copies = self.plan.p, range(self.copies)
        tainted = Cover(ROLE_REPLICA, "taints the rank's copy group")
        groups = CodeFamily(
            "replica-groups", "trivial", 1, self.f, (tainted,),
            units=tuple(f"group-{c}" for c in copies),
            mechanism="replica",
        )
        units = tuple(ErasureUnit(ROLE_REPLICA, tuple(range(c * p, c * p + p))) for c in copies)
        return FaultGeometry(self.plan, self.machine_size(), self.f, units, families=(groups,))

    def _rank_args(self, slices_a, slices_b) -> list[tuple]:
        args = []
        for _copy in range(self.copies):
            args.extend((slices_a[r], slices_b[r]) for r in range(self.plan.p))
        return args

    def _rank_main(self, comm, va, vb):
        """Each copy runs the standard algorithm on its own rank block; a
        hard fault abandons that copy (no recovery — that is the point of
        the baseline)."""
        copy = comm.rank // self.plan.p
        base = copy * self.plan.p
        group = list(range(base, base + self.plan.p))
        sub = comm.sub(group)
        try:
            # Run the standard traversal inside this copy's communicator
            # (group lists are local ranks of the sub-communicator);
            # distinct ctx scopes keep the copies' messages apart (they use
            # disjoint ranks anyway — the scope is belt and braces).
            result = self._level(sub, list(range(self.plan.p)), va, vb, 0, {"scope": copy})
            return result
        except HardFault:
            # The processor died; its copy is lost.  No replacement logic:
            # replication's whole pitch is that another copy finishes.
            return None
        except MachineError:
            # A peer in this copy died; the copy cannot finish.
            return None

    def _assemble(self, results: list[Any]) -> int:
        """Take the first copy whose every rank produced a slice."""
        for copy in range(self.copies):
            block = results[copy * self.plan.p : (copy + 1) * self.plan.p]
            if all(s is not None for s in block):
                return CyclicLayout(self.plan.p).collect(block).to_int()
        raise MachineError(
            f"all {self.copies} replicas failed — more than f={self.f} faults?"
        )

