"""Soft-fault tolerance via the polynomial code (paper Section 7).

The paper notes its algorithm "can easily be adapted for soft faults" —
silent miscalculations.  The adaptation is exactly the classic
Reed-Solomon argument applied to the redundant evaluation points: the
``2k-1+f`` column results are a codeword of an MDS code of distance
``f+1`` over the product polynomial, so

- up to ``f`` corrupted column results can be **detected** (some
  redundant evaluation disagrees with the interpolation of any clean
  ``2k-1``-subset), and
- up to ``floor(f/2)`` corrupted results can be **corrected**: some
  ``2k-1``-subset's interpolation agrees with at least
  ``2k-1 + f - floor(f/2)`` of all columns, and only the true product can
  reach that agreement count.

:class:`SoftTolerantToomCook` implements this: leaf computations pass
through a soft-fault point (a scheduled ``kind="soft"`` event silently
corrupts the column's sub-product), and the coded interpolation searches
for the consistent subset instead of trusting the first ``2k-1`` columns.
Detection-only mode (``f < 2``) raises :class:`SoftFaultDetected` rather
than returning a wrong product — never silent corruption.
"""

from __future__ import annotations

import math
from itertools import combinations

from repro.bigint.blockops import apply_matrix_to_blocks, evaluation_operator
from repro.bigint.limbs import LimbVector
from repro.core.ft_polynomial import PolynomialCodedToomCook
from repro.core.plan import ExecutionPlan
from repro.machine.errors import MachineError
from repro.machine.fault import FaultSchedule

__all__ = ["SoftTolerantToomCook", "SoftFaultDetected"]


class SoftFaultDetected(MachineError):
    """Soft corruption detected but not correctable with this ``f``."""


class SoftTolerantToomCook(PolynomialCodedToomCook):
    """Polynomial-coded Toom-Cook hardened against silent miscalculation.

    ``f`` redundant evaluation points give detection of up to ``f`` and
    correction of up to ``floor(f/2)`` corrupted column results.
    """

    #: The subset search needs every live column, not just ``2k-1``.
    collect_all = True
    recovery_phases = ("multiplication",)

    def __init__(
        self,
        plan: ExecutionPlan,
        f: int,
        memory_words: float = math.inf,
        fault_schedule: FaultSchedule | None = None,
        timeout: float = 60.0,
    ):
        super().__init__(
            plan,
            f=f,
            memory_words=memory_words,
            fault_schedule=fault_schedule,
            timeout=timeout,
        )

    @property
    def correctable(self) -> int:
        return self.f // 2

    # -- corruption injection -----------------------------------------------------
    def _leaf_multiply(self, comm, va: LimbVector, vb: LimbVector, ctx: dict):
        with comm.phase("multiplication"):
            out = super()._leaf_multiply(comm, va, vb, ctx)
            if comm.soft_fault_point():
                # The processor miscalculated: flip a value silently.
                corrupted = list(out.limbs)
                corrupted[len(corrupted) // 2] += 1 + abs(corrupted[0])
                out = LimbVector(corrupted, out.base_bits)
        return out

    # -- verified interpolation ---------------------------------------------------------
    def _shortfall(self, survivors: int) -> MachineError:
        return MachineError(
            f"only {survivors} columns alive; {self.plan.q} needed"
        )

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _interpolate_columns(
        self, comm, chosen: list[int], blocks: list[LimbVector]
    ) -> LimbVector:
        """Interpolate from a subset of the live columns whose product is
        consistent with enough of the rest (RS decoding by subset search —
        exponential in f, fine for the small f of the paper's setting)."""
        q = self.plan.q
        live, collected = chosen, dict(zip(chosen, blocks))
        # Erasure-aware capability: hard faults consumed part of the
        # redundancy, so only ``live - q`` spare evaluations remain to
        # spend on silent corruptions.  The acceptance threshold must
        # stay above ``q - 1 + correctable`` — a wrong subset agrees
        # with its own q members automatically (interpolation passes
        # through them), plus at most ``correctable`` corrupted
        # columns — or erased runs would accept corrupted subsets.
        spare = len(live) - q
        correctable = spare // 2
        threshold = len(live) - correctable
        best = None
        for subset in combinations(live, q):
            try:
                coeffs, flops = apply_matrix_to_blocks(
                    self._decoder(subset), [collected[j] for j in subset]
                )
            except ValueError:
                # Non-integral interpolation: the subset contains a
                # corrupted result (honest Toom-Cook data always
                # interpolates integrally) — itself a detection.
                continue
            comm.charge_flops(flops)
            agree = self._agreement(comm, coeffs, collected, live)
            if agree >= threshold:
                best = (coeffs, agree)
                break
        if best is None:
            raise SoftFaultDetected(
                f"no {q}-subset of column results is consistent with "
                f">= {threshold} of {len(live)} live columns: more than "
                f"floor(spare/2)={correctable} corruptions are present "
                f"(spare={spare} after erasures; detectable but not "
                "correctable)"
            )
        coeffs, agree = best
        if agree < len(live):
            comm.heap["_soft_corrections"] = (
                comm.heap.get("_soft_corrections", 0) + (len(live) - agree)
            )
        return self._overlap_add(comm, coeffs)

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _agreement(self, comm, coeffs, collected, live) -> int:
        """How many live columns' results match the candidate product's
        evaluation at their points."""
        points = tuple(self.points[j] for j in live)
        expected, flops = apply_matrix_to_blocks(
            evaluation_operator(points, self.plan.q), coeffs
        )
        comm.charge_flops(flops)
        return sum(1 for j, exp in zip(live, expected) if collected[j] == exp)
