"""Toom-Cook-k with Lazy Interpolation (Algorithm 2; Bermudo Mera et al.).

The inputs are split into ``k**l`` digits *once*, up front; every
recursive level works blockwise on limb vectors and all carry resolution
is deferred to a single pass at the very end.  As Claim 2.1 shows, the
depth-``l`` run is exactly an ``l``-variate polynomial multiplication over
the evaluation-point grid ``S^l`` — which is what makes the parallel
BFS-DFS traversal (and the polynomial fault-tolerance code) compose
cleanly with it.
"""

from __future__ import annotations

from repro.bigint.blockops import BlockOperator, apply_matrix_to_blocks, overlap_add
from repro.bigint.evalpoints import EvalPoint, toom_points
from repro.bigint.limbs import LimbVector
from repro.bigint.matrices import toom_operators
from repro.bigint.split import lazy_depth, split_lazy
from repro.util.validation import check_positive

__all__ = ["LazyToomCook"]


class LazyToomCook:
    """Sequential Toom-Cook-k with lazy interpolation.

    The recursion depth is chosen automatically from the operand size
    unless ``depth`` is forced; each leaf multiplies one pair of digits
    (single machine words, one flop each — Algorithm 2 line 12).
    """

    def __init__(
        self,
        k: int,
        threshold_bits: int = 64,
        points: list[EvalPoint] | None = None,
    ):
        if k < 2:
            raise ValueError("Toom-Cook requires k >= 2")
        check_positive("threshold_bits", threshold_bits)
        self.k = k
        self.threshold_bits = threshold_bits
        self.points = list(points) if points is not None else toom_points(k)
        u, _, w_t = toom_operators(k, self.points)
        self.U = self.V = BlockOperator.compile(u.rows)
        self.W_T = BlockOperator.compile(w_t.rows)

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
        unresolved) and the flop count.  This is the code path the
        parallel algorithm runs at its leaves.
        """
        k = self.k
        if len(va) != k**depth or len(vb) != k**depth:
            raise ValueError(
                f"expected {k**depth} limbs, got {len(va)} and {len(vb)}"
            )
        if depth == 0:
            return LimbVector([va[0] * vb[0]], va.base_bits), 1

        blocks_a = va.split_blocks(k)
        blocks_b = vb.split_blocks(k)
        block_len = k ** (depth - 1)

        # Blockwise evaluation (Algorithm 2 lines 6-7).
        a_evals, flops_a = apply_matrix_to_blocks(self.U, blocks_a)
        b_evals, flops_b = apply_matrix_to_blocks(self.V, blocks_b)
        flops = flops_a + flops_b

        # Recursive pointwise products (lines 8-14).
        c_evals: list[LimbVector] = []
        for ea, eb in zip(a_evals, b_evals):
            c, fl = self.multiply_blocks(ea, eb, depth - 1)
            c_evals.append(c)
            flops += fl

        # Blockwise interpolation (line 15), then overlap-add reassembly:
        # result[m*k^(d-1) + t] += coeffs[m][t].
        coeffs, fl = apply_matrix_to_blocks(self.W_T, c_evals)
        out, fl_add = overlap_add(
            coeffs, range(0, len(coeffs) * block_len, block_len), 2 * k**depth - 1
        )
        return out, flops + fl + fl_add

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LazyToomCook(k={self.k}, threshold_bits={self.threshold_bits})"
