#!/usr/bin/env python3
"""Polynomial multiplication through the Toom-Cook machinery.

Toom-Cook is at heart a polynomial multiplication algorithm (the paper's
Section 2.2 builds it that way), and the lazy-interpolation view makes
the polynomial structure explicit: limb vectors with unresolved carries
ARE polynomial coefficient vectors.  This example multiplies polynomials
with integer coefficients three ways and shows they agree:

1. directly, via :class:`LimbVector.convolve` (Kronecker substitution:
   one integer multiply of the packed coefficient vectors);
2. through the lazy Toom-Cook leaf entry point, which returns the same
   product polynomial and charges the modeled recursion's flops;
3. through the bilinear form <U, V, W^T> — evaluation, pointwise
   products, interpolation — the exact pipeline the parallel algorithm
   distributes.

Run:  python examples/polynomial_products.py
"""

from fractions import Fraction

from repro.bigint.blockops import BlockOperator, apply_matrix_to_blocks, overlap_add
from repro.bigint.lazy import LazyToomCook
from repro.bigint.limbs import LimbVector
from repro.bigint.matrices import toom_operators
from repro.util.rational import mat_vec

# p(x) = 3 + 5x + 7x^2 + 2x^3,  q(x) = 1 - 4x + 6x^2 - x^3
P_COEFFS = [3, 5, 7, 2]
Q_COEFFS = [1, -4, 6, -1]
BASE_BITS = 16


def direct_convolution() -> list[int]:
    p = LimbVector(P_COEFFS, BASE_BITS)
    q = LimbVector(Q_COEFFS, BASE_BITS)
    return list(p.convolve(q))


def lazy_toom() -> list[int]:
    engine = LazyToomCook(k=2, threshold_bits=BASE_BITS)
    p = LimbVector(P_COEFFS, BASE_BITS)
    q = LimbVector(Q_COEFFS, BASE_BITS)
    product, _flops = engine.multiply_blocks(p, q, depth=2)
    return list(product)


def bilinear_form() -> list[int]:
    # One Toom-Cook-4 step multiplies two cubics outright:
    # evaluate both at 7 points, multiply pointwise, interpolate.
    u, v, w_t = toom_operators(k=4)
    pe = mat_vec(u.rows, P_COEFFS)
    qe = mat_vec(v.rows, Q_COEFFS)
    pointwise = [int(a) * int(b) for a, b in zip(pe, qe)]
    coeffs = mat_vec(w_t.rows, pointwise)
    assert all(Fraction(c).denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def blockwise_bilinear() -> list[int]:
    # The same bilinear form applied to coefficient *blocks* — this is
    # what every processor of the parallel algorithm does to its slice,
    # with each operator compiled once to integer rows.
    u, v, w_t = (BlockOperator.compile(m.rows) for m in toom_operators(k=2))
    p_blocks = LimbVector(P_COEFFS, BASE_BITS).split_blocks(2)
    q_blocks = LimbVector(Q_COEFFS, BASE_BITS).split_blocks(2)
    pe, _ = apply_matrix_to_blocks(u, p_blocks)
    qe, _ = apply_matrix_to_blocks(v, q_blocks)
    pointwise = [a.convolve(b) for a, b in zip(pe, qe)]
    coeffs, _ = apply_matrix_to_blocks(w_t, pointwise)
    # Overlap-add the three degree-2 blocks at offsets 0, 2, 4.
    out, _ = overlap_add(coeffs, [0, 2, 4], 7)
    return list(out)


def main() -> None:
    results = {
        "direct convolution": direct_convolution(),
        "lazy Toom-Cook (k=2, depth 2)": lazy_toom(),
        "bilinear form (one Toom-4 step)": bilinear_form(),
        "blockwise bilinear (parallel kernel)": blockwise_bilinear(),
    }
    reference = results["direct convolution"]
    width = max(len(name) for name in results)
    for name, coeffs in results.items():
        marker = "ok" if list(coeffs) == list(reference) else "MISMATCH"
        print(f"{name:<{width}}  {list(coeffs)}  [{marker}]")
        assert list(coeffs) == list(reference)
    # And the punchline: evaluating at x = 2^16 turns the polynomial
    # product into the integer product, carries and all.
    p_int = LimbVector(P_COEFFS, BASE_BITS).to_int()
    q_int = LimbVector(Q_COEFFS, BASE_BITS).to_int()
    prod_int = LimbVector(reference, BASE_BITS).to_int()
    assert prod_int == p_int * q_int
    print(f"\nevaluated at x=2^{BASE_BITS}: {p_int} * {q_int} = {prod_int}")


if __name__ == "__main__":
    main()
