"""Sequential recursive Toom-Cook-k (Algorithm 1).

The generic algorithm for any ``k >= 2``: split with a shared base,
evaluate through ``U``, recurse on the ``2k-1`` pointwise products,
interpolate through ``W^T``, resolve carries.  Arithmetic is counted in
single-word operations so the measured cost can be compared against the
``Θ(n^(log_k(2k-1)))`` model (:func:`toom_cost`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from repro.bigint.blockops import clear_operator_cache, toom_block_operators
from repro.bigint.evalpoints import EvalPoint, toom_points
from repro.bigint.split import split_shared_base
from repro.util.validation import check_positive
from repro.util.words import bits_to_words

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.kernels import KernelCounters

# ``clear_operator_cache`` is re-exported for existing importers.
__all__ = ["ToomCook", "toom_cost", "clear_operator_cache"]


class ToomCook:
    """Sequential Toom-Cook-k multiplier.

    Parameters
    ----------
    k:
        Split factor (``k = 2`` is Karatsuba).
    threshold_bits:
        The hardware's maximum single-operation size ``s = 2**threshold_bits``
        (Algorithm 1's parameter): operands at most this wide multiply in
        one flop.
    points:
        Optional custom evaluation points (``>= 2k-1``, pairwise distinct).
    counters:
        Optional :class:`~repro.obs.kernels.KernelCounters` accumulating
        leaf limb-multiplications, maximum recursion depth and
        evaluation-operator cache hits across this instance's calls.
    """

    def __init__(
        self,
        k: int,
        threshold_bits: int = 64,
        points: list[EvalPoint] | None = None,
        interpolation: str = "matrix",
        evaluation: str = "matrix",
        counters: "KernelCounters | None" = None,
    ):
        if k < 2:
            raise ValueError("Toom-Cook requires k >= 2")
        check_positive("threshold_bits", threshold_bits)
        if interpolation not in ("matrix", "sequence"):
            raise ValueError("interpolation must be 'matrix' or 'sequence'")
        if evaluation not in ("matrix", "reuse"):
            raise ValueError("evaluation must be 'matrix' or 'reuse'")
        self.k = k
        self.threshold_bits = threshold_bits
        self.points = list(points) if points is not None else toom_points(k)
        self.counters = counters
        (self.U, self.W_T), hit = toom_block_operators.lookup(k, tuple(self.points))
        self.V = self.U
        if counters is not None:
            counters.note_eval_cache(hit=hit)
        self.interpolation = interpolation
        if interpolation == "sequence":
            # Remark 4.1: interpolate by an inversion sequence of
            # elementary row operations (Toom-Graph, Definition 2.3)
            # instead of a dense matrix product.
            from repro.bigint.matrices import interpolation_matrix
            from repro.bigint.toomgraph import (
                inversion_sequence,
                toom_graph_search,
            )

            w_t = interpolation_matrix(self.points[: 2 * k - 1], k)
            if k == 2:
                self._inv_seq = toom_graph_search(w_t, max_nodes=4000)
            else:
                self._inv_seq = inversion_sequence(w_t)
        else:
            self._inv_seq = None
        self.evaluation = evaluation
        if evaluation == "reuse":
            # Section 1.1 (Zanoni): share the even/odd partial sums of
            # symmetric point pairs across evaluation rows.
            from repro.bigint.evalplan import reuse_evaluation_plan

            self._eval_plan = reuse_evaluation_plan(self.points, k)
        else:
            self._eval_plan = None
        # Direct multiplication is also forced when splitting stops
        # shrinking the problem (tiny inputs relative to k).
        self._direct_bits = max(threshold_bits, 8 * k)

    # -- public ------------------------------------------------------------
    def multiply(self, a: int, b: int) -> tuple[int, int]:
        """Return ``(a*b, flops)``."""
        sign = -1 if (a < 0) != (b < 0) else 1
        product, flops = self._mul(abs(a), abs(b))
        return sign * product, flops

    # -- recursion ---------------------------------------------------------
    def _mul(self, a: int, b: int, depth: int = 0) -> tuple[int, int]:
        if a == 0 or b == 0:
            return 0, 0
        if self.counters is not None:
            self.counters.note_depth(depth)
        bits = max(a.bit_length(), b.bit_length())
        if bits <= self.threshold_bits:
            if self.counters is not None:
                self.counters.add_limb_mults(1)
            return a * b, 1
        if bits <= self._direct_bits:
            # Too small to split profitably; schoolbook-equivalent cost.
            wa = bits_to_words(a.bit_length(), self.threshold_bits)
            wb = bits_to_words(b.bit_length(), self.threshold_bits)
            if self.counters is not None:
                self.counters.add_limb_mults(wa * wb)
            return a * b, 2 * wa * wb

        k = self.k
        va, vb, base_bits = split_shared_base(a, b, k)
        digit_words = bits_to_words(base_bits, self.threshold_bits)

        # Evaluation: a' = U a-digits, b' = V b-digits (lines 6-7),
        # either dense or through the shared-subexpression plan.
        if self._eval_plan is not None:
            a_evals = self._eval_plan.apply(list(va.limbs))
            b_evals = self._eval_plan.apply(list(vb.limbs))
            flops = 2 * self._eval_plan.word_ops() * digit_words
        else:
            a_evals = self.U.apply(va.limbs)
            b_evals = self.V.apply(vb.limbs)
            flops = 4 * self.U.nonzeros() * digit_words  # U and V cost the same

        # Pointwise products (lines 8-14), recursing when needed.
        m = 2 * k - 1
        c_evals = []
        for i in range(m):
            ai, bi = int(a_evals[i]), int(b_evals[i])
            sign = -1 if (ai < 0) != (bi < 0) else 1
            p, fl = self._mul(abs(ai), abs(bi), depth + 1)
            c_evals.append(sign * p)
            flops += fl

        # Interpolation: coefficients = W^T c' (line 15), either as a
        # dense matrix product or an inversion sequence (Remark 4.1).
        product_words = 2 * digit_words
        if self._inv_seq is not None:
            from repro.bigint.toomgraph import apply_inversion_sequence

            coeffs = apply_inversion_sequence(self._inv_seq, c_evals)
            flops += self._sequence_word_ops() * product_words
        else:
            try:
                coeffs = self.W_T.apply(c_evals)
            except ValueError as exc:
                raise ArithmeticError(
                    "interpolation produced a non-integer coefficient: "
                    f"{exc} (invalid evaluation points?)"
                ) from exc
            flops += 2 * self.W_T.nonzeros() * product_words

        # Carry resolution (line 16): accumulate coeff_i * B^i.
        acc = 0
        for i, c in enumerate(coeffs):
            c = Fraction(c)
            if c.denominator != 1:
                raise ArithmeticError(
                    "interpolation produced a non-integer coefficient: "
                    f"{c} (invalid evaluation points?)"
                )
            acc += int(c) << (i * base_bits)
        flops += m * product_words
        return acc, flops

    def _sequence_word_ops(self) -> int:
        """Word operations per limb for one inversion-sequence pass:
        AddMul costs an add plus (for non-unit coefficients) a multiply;
        Scale costs one multiply/exact-divide; Swap is free."""
        from repro.bigint.toomgraph import AddMul, Scale

        ops = 0
        for op in self._inv_seq:
            if isinstance(op, AddMul):
                ops += 1 if abs(op.coef) == 1 else 2
            elif isinstance(op, Scale):
                ops += 1
        return ops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ToomCook(k={self.k}, threshold_bits={self.threshold_bits})"


def toom_cost(n_words: int, k: int, linear_constant: int = 10) -> int:
    """Model cost of sequential Toom-Cook-k on ``n_words``-word operands.

    Solves the recurrence ``T(n) = (2k-1) T(n/k) + c*n``, ``T(1) = 1`` —
    the ``Θ(n^(log_k(2k-1)))`` of the paper's introduction.
    """
    check_positive("n_words", n_words)
    if k < 2:
        raise ValueError("k must be >= 2")
    if n_words == 1:
        return 1
    sub = toom_cost(-(-n_words // k), k, linear_constant)
    return (2 * k - 1) * sub + linear_constant * n_words
