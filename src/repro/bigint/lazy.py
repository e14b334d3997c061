"""Toom-Cook-k with Lazy Interpolation (Algorithm 2; Bermudo Mera et al.).

The inputs are split into ``k**l`` digits *once*, up front; every
recursive level works blockwise on limb vectors and all carry resolution
is deferred to a single pass at the very end.  As Claim 2.1 shows, the
depth-``l`` run is exactly an ``l``-variate polynomial multiplication over
the evaluation-point grid ``S^l`` — which is what makes the parallel
BFS-DFS traversal (and the polynomial fault-tolerance code) compose
cleanly with it.

Every level's interpolation is exact, so the recursion's output is the
exact product polynomial of its two limb vectors, and its word-operation
count depends only on ``k`` and the depth.  :meth:`LazyToomCook.multiply_blocks`
therefore computes the product with :meth:`LimbVector.convolve` (one
native multiply) and charges the recursion's flops from their closed
form (the Toom-Cook cost recurrence of Kronenburg, "Toom-Cook
Multiplication: Some Theoretical and Practical Aspects"): the recursion
is charged, not walked.
"""

from __future__ import annotations

from repro.bigint.blockops import toom_block_operators
from repro.bigint.evalpoints import toom_points
from repro.bigint.limbs import LimbVector
from repro.bigint.split import lazy_depth, split_lazy
from repro.util.validation import check_positive

__all__ = ["LazyToomCook"]


class LazyToomCook:
    """Sequential Toom-Cook-k with lazy interpolation.

    The recursion depth is chosen automatically from the operand size
    unless ``depth`` is forced.  The modeled recursion evaluates with the
    compiled ``U``/``V``, multiplies ``2k-1`` sub-problems, interpolates
    with ``W^T`` and overlap-adds, down to leaves that multiply one pair
    of digits (single machine words, one flop each — Algorithm 2
    line 12).  Its product is computed natively and its flops in closed
    form (:meth:`flops`).
    """

    def __init__(self, k: int, threshold_bits: int = 64):
        if k < 2:
            raise ValueError("Toom-Cook requires k >= 2")
        check_positive("threshold_bits", threshold_bits)
        self.k = k
        self.threshold_bits = threshold_bits
        self.U, self.W_T = toom_block_operators(k, tuple(toom_points(k)))
        self.V = self.U

    def multiply(self, a: int, b: int, depth: int | None = None) -> tuple[int, int]:
        """Return ``(a*b, flops)``."""
        sign = -1 if (a < 0) != (b < 0) else 1
        a, b = abs(a), abs(b)
        if a == 0 or b == 0:
            return 0, 0
        l = lazy_depth(a, b, self.k, self.threshold_bits) if depth is None else depth
        if l < 0:
            raise ValueError("depth must be non-negative")
        va, vb, base_bits = split_lazy(a, b, self.k, l)
        c, flops = self.multiply_blocks(va, vb, l)
        product = c.to_int()
        flops += len(c)  # final carry pass (line 16)
        return sign * product, flops

    def multiply_blocks(
        self, va: LimbVector, vb: LimbVector, depth: int
    ) -> tuple[LimbVector, int]:
        """Blockwise product of two ``k**depth``-limb vectors.

        Returns the ``2*k**depth - 1``-limb product polynomial (carries
        unresolved) and the depth-``depth`` recursion's flop count.  This
        is the code path the parallel algorithm runs at its leaves.
        """
        k = self.k
        if len(va) != k**depth or len(vb) != k**depth:
            raise ValueError(
                f"expected {k**depth} limbs, got {len(va)} and {len(vb)}"
            )
        return va.convolve(vb), self.flops(depth)

    def flops(self, depth: int) -> int:
        """Word operations of the depth-``depth`` blockwise recursion.

        ``F(0) = 1`` (one word product) and, with ``r = 2k-1`` sub-problems
        on blocks of ``m = k**(d-1)`` limbs,
        ``F(d) = (U.cost + V.cost)*m + r*F(d-1) + (W_T.cost + r)*(2m - 1)``:
        evaluation of both operands, the sub-products, then interpolation
        and overlap-add of ``r`` coefficient blocks of ``2m - 1`` limbs.
        """
        r = 2 * self.k - 1
        f = 1
        for d in range(1, depth + 1):
            m = self.k ** (d - 1)
            f = (self.U.cost + self.V.cost) * m + r * f + (self.W_T.cost + r) * (2 * m - 1)
        return f

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LazyToomCook(k={self.k}, threshold_bits={self.threshold_bits})"
