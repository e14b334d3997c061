"""Schoolbook (naive) long multiplication — the Θ(n²) baseline.

The paper's introduction contrasts Toom-Cook against the schoolbook
algorithm; the sequential-crossover benchmark regenerates that comparison.
The product comes from :meth:`LimbVector.convolve` (one native multiply by
Kronecker substitution); the ``Θ(n²)`` count is the modeled charge of the
limb-by-limb algorithm, one multiply and one add per limb pair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bigint.limbs import LimbVector
from repro.util.validation import check_positive
from repro.util.words import int_to_digits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.kernels import KernelCounters

__all__ = ["schoolbook_multiply", "schoolbook_cost"]


def schoolbook_multiply(
    a: int,
    b: int,
    word_bits: int = 64,
    counters: "KernelCounters | None" = None,
) -> tuple[int, int]:
    """Multiply ``a * b`` with limb-wise schoolbook convolution.

    Returns ``(product, flops)`` where ``flops`` counts single-word
    multiply-accumulate operations.  ``counters`` (optional) records the
    exact limb-multiplication count; schoolbook never recurses, so its
    depth contribution is 0.
    """
    check_positive("word_bits", word_bits)
    sign = -1 if (a < 0) != (b < 0) else 1
    a, b = abs(a), abs(b)
    if a == 0 or b == 0:
        return 0, 0
    da = int_to_digits(a, word_bits)
    db = int_to_digits(b, word_bits)
    va = LimbVector(da, word_bits)
    vb = LimbVector(db, word_bits)
    product = va.convolve(vb)
    flops = 2 * len(da) * len(db)  # one mul + one add per limb pair
    if counters is not None:
        counters.add_limb_mults(len(da) * len(db))
        counters.note_depth(0)
    return sign * product.to_int(), flops


def schoolbook_cost(n_words: int) -> int:
    """Predicted arithmetic cost of schoolbook on ``n_words``-word inputs."""
    check_positive("n_words", n_words)
    return 2 * n_words * n_words
