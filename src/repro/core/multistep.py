"""Multi-step traversal with polynomial coding (paper Sections 4.3 / 6.1).

``l`` BFS steps are combined into one big coded step: the grid becomes
``P/(2k-1)**l × (2k-1)**l`` and only ``f * P/(2k-1)**l`` code processors
are needed — at ``l = log_(2k-1) P`` that is just ``f`` extra processors,
the paper's unlimited-memory optimum (Theorem 5.2's remark).

The coded step is, by Claim 2.1, an ``l``-variate polynomial
multiplication: the ``k**l`` top-level digit blocks are the coefficients of
a ``Poly_{k,l}`` element, evaluated over the ``(2k-1)**l``-point grid
``S^l`` plus ``f`` redundant points in ``(2k-1, l)``-general position.
The paper leaves *finding* those points as future work but supplies the
Section 6.2 heuristic, which :mod:`repro.coding.point_search` implements —
so this module realizes the paper's proposed extension end to end.

Fault handling is the polynomial code's: a fault kills its column; ascent
interpolation inverts the multivariate evaluation matrix of any
``(2k-1)**l`` surviving columns (general position guarantees
invertibility, Claim 6.1).
"""

from __future__ import annotations

import math

from repro.bigint.blockops import (
    BlockOperator,
    GeometryCache,
    apply_matrix_to_blocks,
    overlap_add,
)
from repro.bigint.evalpoints import EvalPoint
from repro.bigint.limbs import LimbVector
from repro.bigint.multivariate import evaluation_matrix_multivariate, monomials
from repro.coding.point_search import multistep_evaluation_points
from repro.core.ft_polynomial import PolynomialCodedToomCook
from repro.core.layout import FaultGeometry
from repro.core.parallel_toomcook import ParallelToomCook
from repro.core.plan import ExecutionPlan
from repro.machine.fault import FaultSchedule

__all__ = ["MultiStepToomCook"]


def _digit_reverse(index: int, base: int, length: int) -> int:
    """Reverse the base-``base`` digits of ``index`` (width ``length``)."""
    out = 0
    for _ in range(length):
        out = out * base + index % base
        index //= base
    return out


MultiPoints = tuple[tuple[EvalPoint, ...], ...]


@GeometryCache
def _coded_operator(k: int, l: int, points: MultiPoints) -> BlockOperator:
    """The coded step's operator: the ``Poly_{k,l}`` evaluation matrix of
    ``points`` with its columns permuted to block order (block ``b`` is
    the monomial with the digit-reversed index)."""
    eval_m = evaluation_matrix_multivariate(points, k, l)
    perm = [_digit_reverse(j, k, l) for j in range(k**l)]
    return BlockOperator.compile(
        [[row[perm.index(b)] for b in range(k**l)] for row in eval_m.rows]
    )


@GeometryCache
def _multivariate_decoder(points: MultiPoints, r: int, l: int) -> BlockOperator:
    """Compiled inverse of the ``Poly_{r,l}`` evaluation matrix of
    ``r**l`` chosen columns' points."""
    return BlockOperator.compile(evaluation_matrix_multivariate(points, r, l).inv().rows)


class MultiStepToomCook(PolynomialCodedToomCook):
    """Fault-tolerant parallel Toom-Cook with ``l`` combined BFS steps.

    The polynomial code's coded step (:class:`PolynomialCodedToomCook`)
    with a multivariate operator over ``k**l`` blocks, ``(2k-1)**l``
    standard columns of ``P/(2k-1)**l`` processors (Figure 3), and a
    multivariate decoder.

    Parameters
    ----------
    plan:
        Unlimited-memory plan (``l_dfs == 0``) with ``l_bfs >= l``.
    l:
        Number of combined steps (``1`` degenerates to the plain
        polynomial code).
    f:
        Tolerated faults = redundant multivariate evaluation points =
        code columns of ``P/(2k-1)**l`` processors.
    """

    recovery_phases = ("multiplication",)

    def __init__(
        self,
        plan: ExecutionPlan,
        l: int,
        f: int,
        memory_words: float = math.inf,
        fault_schedule: FaultSchedule | None = None,
        timeout: float = 60.0,
        point_search_limit: int = 12,
    ):
        if not (1 <= l <= plan.l_bfs):
            raise ValueError(f"l must be in [1, l_bfs={plan.l_bfs}]")
        if f < 1:
            raise ValueError("f must be at least 1")
        if plan.l_dfs != 0:
            raise ValueError("MultiStepToomCook requires an unlimited-memory plan")
        # Skip the univariate-points setup of the poly class: initialize
        # the grandparent directly, then install the multivariate code.
        ParallelToomCook.__init__(
            self,
            plan,
            points=None,
            memory_words=memory_words,
            fault_schedule=fault_schedule,
            timeout=timeout,
        )
        self.l = l
        self.multi_points = multistep_evaluation_points(
            plan.k, l, f, limit=point_search_limit
        )
        self._configure_code(
            f, _coded_operator(plan.k, l, self.multi_points), levels=l
        )
        # The coefficient block of each Poly_{2k-1,l} monomial lands at
        # its univariate offset sum_i e_i * n/k**(i+1), in local words
        # (cyclic layout: P divides each weight).
        self._offsets = [
            sum(e * (plan.n_words // plan.k ** (i + 1)) for i, e in enumerate(exps))
            // plan.p
            for exps in monomials(plan.q, l)
        ]

    def fault_geometry(self) -> FaultGeometry:
        """The columns decode from the multivariate points (Claim 6.1)."""
        geometry = super().fault_geometry()
        columns = geometry.families[0]._replace(
            name="multivariate-columns",
            kind="multivariate",
            points=self.multi_points,
            grid=(self.plan.q, self.l),
        )
        return geometry._replace(l=self.l, families=(columns,))

    # -- multivariate decoding ---------------------------------------------------
    def _decoder(self, chosen) -> BlockOperator:
        """The compiled inverse multivariate evaluation matrix of the
        chosen columns' points (geometry cache, keyed by the points)."""
        points = tuple(self.multi_points[j] for j in chosen)
        return _multivariate_decoder(points, self.plan.q, self.l)

    # repro-lint: in-phase -- runs inside the caller's phase context
    def _interpolate_columns(
        self, comm, chosen: list[int], blocks: list[LimbVector]
    ) -> LimbVector:
        """Invert the multivariate evaluation matrix of the chosen
        ``(2k-1)**l`` columns, and overlap-add the coefficient blocks at
        their mixed-radix offsets."""
        coeffs, flops = apply_matrix_to_blocks(self._decoder(chosen), blocks)
        comm.charge_flops(flops)
        out, flops = overlap_add(
            coeffs, self._offsets, 2 * self.plan.n_words // self.plan.p
        )
        comm.charge_flops(flops)
        return out
