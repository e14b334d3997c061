"""Tests for sequential Toom-Cook (Algorithm 1) and lazy interpolation
(Algorithm 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigint.blockops import apply_matrix_to_blocks, overlap_add
from repro.bigint.evalpoints import extended_toom_points
from repro.bigint.lazy import LazyToomCook
from repro.bigint.limbs import LimbVector
from repro.bigint.split import split_lazy
from repro.bigint.toomcook import ToomCook, toom_cost

big_ints = st.integers(min_value=-(1 << 600), max_value=1 << 600)


def recursive_multiply_blocks(lz, va, vb, depth):
    """The blockwise recursion ``multiply_blocks`` models, walked to
    single-word leaves: evaluate with U/V, recurse on the 2k-1
    sub-problems, interpolate with W^T, overlap-add."""
    if depth == 0:
        return LimbVector([va[0] * vb[0]], va.base_bits), 1
    k = lz.k
    block_len = k ** (depth - 1)
    a_evals, flops_a = apply_matrix_to_blocks(lz.U, va.split_blocks(k))
    b_evals, flops_b = apply_matrix_to_blocks(lz.V, vb.split_blocks(k))
    flops = flops_a + flops_b
    c_evals = []
    for ea, eb in zip(a_evals, b_evals):
        c, fl = recursive_multiply_blocks(lz, ea, eb, depth - 1)
        c_evals.append(c)
        flops += fl
    coeffs, fl = apply_matrix_to_blocks(lz.W_T, c_evals)
    out, fl_add = overlap_add(
        coeffs, range(0, len(coeffs) * block_len, block_len), 2 * k**depth - 1
    )
    return out, flops + fl + fl_add


#: Deepest recursion the reference walks per k (64 limbs each).
MAX_DEPTH = {2: 6, 3: 4, 4: 3}


@st.composite
def block_pairs(draw):
    """``(k, depth, va, vb)``: two ``k**depth``-limb vectors of signed
    limbs below ``2**bits`` in magnitude, ``bits`` in 0..200 (0 gives
    all-zero vectors)."""
    k = draw(st.sampled_from(sorted(MAX_DEPTH)))
    depth = draw(st.integers(0, MAX_DEPTH[k]))
    bits = draw(st.integers(0, 200))
    limb = st.integers(-(1 << bits) + 1, (1 << bits) - 1)
    n = k**depth
    va, vb = (draw(st.lists(limb, min_size=n, max_size=n)) for _ in "ab")
    return k, depth, LimbVector(va, 64), LimbVector(vb, 64)


class TestToomCook:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_correctness_across_k(self, k):
        tc = ToomCook(k, threshold_bits=32)
        for a, b in [
            (0, 7),
            (1, 1),
            (2**100 - 1, 2**100 + 1),
            (-(2**200), 3**80),
            (12345678901234567890, 98765432109876543210),
        ]:
            assert tc.multiply(a, b)[0] == a * b

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            ToomCook(1)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            ToomCook(2, threshold_bits=0)

    def test_below_threshold_single_flop(self):
        assert ToomCook(2, threshold_bits=64).multiply(3, 5) == (15, 1)

    def test_zero_operands_free(self):
        assert ToomCook(3).multiply(0, 1 << 500) == (0, 0)

    def test_custom_points(self):
        points = extended_toom_points(2, 1)
        tc = ToomCook(2, threshold_bits=32, points=points)
        a, b = 2**150 - 7, 2**149 + 11
        assert tc.multiply(a, b)[0] == a * b

    @given(big_ints, big_ints, st.sampled_from([2, 3, 4]))
    @settings(max_examples=60, deadline=None)
    def test_correctness_property(self, a, b, k):
        assert ToomCook(k, threshold_bits=32).multiply(a, b)[0] == a * b

    def test_flops_subquadratic(self):
        tc = ToomCook(3, threshold_bits=16)
        n = 1 << 12
        _, f1 = tc.multiply((1 << n) - 1, (1 << n) - 1)
        _, f3 = tc.multiply((1 << (3 * n)) - 1, (1 << (3 * n)) - 1)
        # Toom-3: tripling the size should cost ~5x, well below the
        # schoolbook 9x.
        assert f3 < 7 * f1

    def test_flops_monotone_in_size(self):
        tc = ToomCook(2, threshold_bits=16)
        _, small = tc.multiply(1 << 100, 1 << 100)
        _, large = tc.multiply(1 << 1000, 1 << 1000)
        assert large > small


class TestInversionSequenceInterpolation:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sequence_mode_is_exact(self, k):
        tc = ToomCook(k, threshold_bits=32, interpolation="sequence")
        for a, b in [(2**300 - 7, 2**299 + 3), (-(2**150), 2**151 - 1)]:
            assert tc.multiply(a, b)[0] == a * b

    @pytest.mark.parametrize("k", [2, 3])
    def test_sequence_mode_saves_flops(self, k):
        a, b = 2**2000 - 19, 2**1999 + 5
        dense = ToomCook(k, threshold_bits=16).multiply(a, b)[1]
        seq = ToomCook(k, threshold_bits=16, interpolation="sequence").multiply(
            a, b
        )[1]
        assert seq < dense

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="interpolation"):
            ToomCook(2, interpolation="magic")

    @given(big_ints, big_ints)
    @settings(max_examples=25, deadline=None)
    def test_sequence_matches_matrix_property(self, a, b):
        dense = ToomCook(3, threshold_bits=32)
        seq = ToomCook(3, threshold_bits=32, interpolation="sequence")
        assert dense.multiply(a, b)[0] == seq.multiply(a, b)[0] == a * b


class TestToomCost:
    def test_base_case(self):
        assert toom_cost(1, 3) == 1

    def test_recurrence_shape(self):
        # T(k*n) = (2k-1) T(n) + c*k*n
        k, n, c = 3, 9, 10
        assert toom_cost(k * n, k, c) == (2 * k - 1) * toom_cost(n, k, c) + c * k * n

    def test_bad_args(self):
        with pytest.raises(ValueError):
            toom_cost(0, 2)
        with pytest.raises(ValueError):
            toom_cost(4, 1)

    def test_growth_exponent(self):
        import math

        k = 2
        t1 = toom_cost(2**10, k)
        t2 = toom_cost(2**14, k)
        measured = math.log(t2 / t1) / math.log(2**4)
        expected = math.log(2 * k - 1) / math.log(k)  # log2(3) ~ 1.585
        assert abs(measured - expected) < 0.08


class TestLazyToomCook:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_correctness_across_k(self, k):
        lz = LazyToomCook(k, threshold_bits=32)
        for a, b in [
            (0, 9),
            (5, 7),
            (2**300 - 1, 2**299 + 1),
            (-(2**123), 2**124 - 3),
        ]:
            assert lz.multiply(a, b)[0] == a * b

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            LazyToomCook(1)

    def test_forced_depth(self):
        lz = LazyToomCook(2, threshold_bits=64)
        a, b = 123, 456
        for depth in range(4):
            assert lz.multiply(a, b, depth=depth)[0] == a * b

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            LazyToomCook(2).multiply(1, 1, depth=-1)

    def test_agrees_with_algorithm1(self):
        a, b = 2**400 - 19, 2**397 + 31
        eager = ToomCook(3, threshold_bits=32).multiply(a, b)[0]
        lazy = LazyToomCook(3, threshold_bits=32).multiply(a, b)[0]
        assert eager == lazy == a * b

    @given(big_ints, big_ints, st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_correctness_property(self, a, b, k):
        assert LazyToomCook(k, threshold_bits=32).multiply(a, b)[0] == a * b


class TestMultiplyBlocks:
    @given(block_pairs())
    @settings(max_examples=40, deadline=None)
    def test_matches_recursion(self, case):
        k, depth, va, vb = case
        lz = LazyToomCook(k)
        assert lz.multiply_blocks(va, vb, depth) == recursive_multiply_blocks(
            lz, va, vb, depth
        )

    @pytest.mark.parametrize(
        "k,depth", [(k, d) for k, top in MAX_DEPTH.items() for d in range(top + 1)]
    )
    def test_zero_vectors_match_recursion(self, k, depth):
        lz = LazyToomCook(k)
        zeros = LimbVector.zeros(k**depth, 64)
        out, flops = lz.multiply_blocks(zeros, zeros, depth)
        assert (out, flops) == recursive_multiply_blocks(lz, zeros, zeros, depth)
        assert out.limbs == (0,) * (2 * k**depth - 1)

    @pytest.mark.parametrize(
        "k,expected",
        [
            (2, [1, 32, 167, 656, 2291, 7532, 23927, 74456, 228731]),
            (3, [1, 89, 777, 4961, 28113, 150569]),
            (4, [1, 177, 2165, 19105, 149781]),
        ],
    )
    def test_flops_pinned(self, k, expected):
        # The counts the single-word recursion charged before its flops
        # came from the closed form.
        lz = LazyToomCook(k)
        for depth, flops in enumerate(expected):
            ones = LimbVector([1] * k**depth, 64)
            assert lz.multiply_blocks(ones, ones, depth)[1] == flops

    def test_leaf(self):
        lz = LazyToomCook(2, threshold_bits=8)
        out, flops = lz.multiply_blocks(
            LimbVector([7], 8), LimbVector([9], 8), depth=0
        )
        assert out.limbs == (63,) and flops == 1

    def test_product_polynomial_length(self):
        lz = LazyToomCook(3, threshold_bits=8)
        a, b = 2**70 - 1, 2**70 - 3
        va, vb, _ = split_lazy(a, b, 3, 2)
        out, _ = lz.multiply_blocks(va, vb, depth=2)
        assert len(out) == 2 * 9 - 1
        assert out.to_int() == a * b

    def test_wrong_block_length_rejected(self):
        lz = LazyToomCook(2)
        with pytest.raises(ValueError, match="expected"):
            lz.multiply_blocks(LimbVector([1, 2, 3], 8), LimbVector([1, 2], 8), 1)

    def test_carries_are_lazy(self):
        # Block product limbs may exceed the radix; only to_int resolves.
        lz = LazyToomCook(2, threshold_bits=4)
        va = LimbVector([15, 15], 4)
        vb = LimbVector([15, 15], 4)
        out, _ = lz.multiply_blocks(va, vb, depth=1)
        assert max(out.limbs) > 15  # unresolved carry present
        assert out.to_int() == 255 * 255
