"""Tests for signed limb vectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigint.limbs import LimbVector
from repro.util.words import bits_to_words


def lv(*limbs, base_bits=8):
    return LimbVector(limbs, base_bits)


def reference_convolve(a, b):
    """Schoolbook limb-pair loop: the product polynomial's coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


class TestConstruction:
    def test_from_int_round_trip(self):
        v = LimbVector.from_int(0x1234, 8)
        assert v.limbs == (0x34, 0x12)
        assert v.to_int() == 0x1234

    def test_from_int_padded(self):
        assert LimbVector.from_int(1, 8, count=4).limbs == (1, 0, 0, 0)

    def test_zeros(self):
        z = LimbVector.zeros(3, 8)
        assert z.limbs == (0, 0, 0)
        assert z.is_zero()

    def test_integral_fraction_limbs_accepted(self):
        assert LimbVector([Fraction(4, 2)], 8).limbs == (2,)

    def test_non_integral_fraction_rejected(self):
        with pytest.raises(ValueError, match="non-integral"):
            LimbVector([Fraction(1, 2)], 8)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            LimbVector([1.5], 8)

    @pytest.mark.parametrize("bad", [True, "1"])
    def test_bool_and_str_rejected(self, bad):
        with pytest.raises(TypeError):
            LimbVector([1, bad], 8)

    def test_int_subclass_normalized(self):
        class Limb(int):
            pass

        v = LimbVector([Limb(5), 6, Fraction(8, 2)], 8)
        assert v.limbs == (5, 6, 4)
        assert all(type(x) is int for x in v.limbs)

    def test_bad_base_bits(self):
        with pytest.raises(ValueError):
            LimbVector([1], 0)

    def test_immutable(self):
        v = lv(1, 2)
        with pytest.raises(AttributeError):
            v.limbs = (9,)


class TestVectorSpace:
    def test_add_sub_neg(self):
        a, b = lv(1, 2, 3), lv(10, 20, 30)
        assert (a + b).limbs == (11, 22, 33)
        assert (b - a).limbs == (9, 18, 27)
        assert (-a).limbs == (-1, -2, -3)

    def test_mismatched_length_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            lv(1) + lv(1, 2)

    def test_mismatched_base_rejected(self):
        with pytest.raises(ValueError, match="radices"):
            lv(1, base_bits=8) + lv(1, base_bits=16)

    def test_scalar_int_mul_both_sides(self):
        assert (lv(1, -2) * 3).limbs == (3, -6)
        assert (3 * lv(1, -2)).limbs == (3, -6)

    def test_scalar_fraction_exact(self):
        assert (lv(4, -6) * Fraction(1, 2)).limbs == (2, -3)

    def test_scalar_fraction_inexact_rejected(self):
        with pytest.raises(ValueError, match="exactly"):
            lv(3) * Fraction(1, 2)

    def test_unsupported_scalar(self):
        with pytest.raises(TypeError):
            lv(1) * 1.5

    def test_exact_div(self):
        assert lv(6, -9).exact_div(3).limbs == (2, -3)

    def test_exact_div_inexact_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            lv(7).exact_div(2)

    def test_exact_div_zero(self):
        with pytest.raises(ZeroDivisionError):
            lv(4).exact_div(0)


class TestLazyCarries:
    def test_oversized_limbs_resolve(self):
        # limb 300 exceeds base 256: to_int resolves the carry.
        assert lv(300, 2).to_int() == 300 + (2 << 8)

    def test_negative_limbs_resolve(self):
        assert lv(-1, 1).to_int() == 255

    @given(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_to_int_is_weighted_sum(self, limbs):
        v = LimbVector(limbs, 16)
        assert v.to_int() == sum(c << (16 * i) for i, c in enumerate(limbs))


class TestConvolve:
    def test_simple(self):
        # (1 + 2x) * (3 + 4x) = 3 + 10x + 8x^2
        assert lv(1, 2).convolve(lv(3, 4)).limbs == (3, 10, 8)

    def test_matches_integer_multiply(self):
        a, b = 123456789, 987654321
        va = LimbVector.from_int(a, 8)
        vb = LimbVector.from_int(b, 8)
        assert va.convolve(vb).to_int() == a * b

    @given(
        st.integers(0, 1 << 128),
        st.integers(0, 1 << 128),
        st.sampled_from([8, 16, 32]),
    )
    @settings(max_examples=60)
    def test_convolution_property(self, a, b, bits):
        va = LimbVector.from_int(a, bits)
        vb = LimbVector.from_int(b, bits)
        assert va.convolve(vb).to_int() == a * b

    def test_mismatched_base_rejected(self):
        with pytest.raises(ValueError):
            lv(1, base_bits=8).convolve(lv(1, base_bits=16))

    @pytest.mark.parametrize(
        "a,b",
        [
            ((7,), (-9,)),
            ((0,), (0,)),
            ((0, 0, 0), (5, -5)),
            ((-1, 2, -3), (4,)),
            ((1 << 70, -(1 << 90), 0, 3), (-(1 << 64), 1)),
            ((-255, -255, -255), (-255, -255, -255, -255, -255)),
        ],
    )
    def test_limb_exact(self, a, b):
        assert lv(*a).convolve(lv(*b)).limbs == reference_convolve(a, b)
        assert lv(*b).convolve(lv(*a)).limbs == reference_convolve(b, a)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_at_slot_bound(self, sign):
        # 255 limbs of magnitude 255: the middle coefficient 255**3 needs
        # all 8 + 8 + 8 + 1 bits of its slot, one past a byte boundary.
        a, b = (sign * 255,) * 255, (255,) * 255
        assert max(map(abs, reference_convolve(a, b))) == 255**3
        assert lv(*a).convolve(lv(*b)).limbs == reference_convolve(a, b)

    @given(
        st.lists(st.integers(-(1 << 200), 1 << 200), min_size=1, max_size=12),
        st.lists(st.integers(-(1 << 200), 1 << 200), min_size=1, max_size=12),
    )
    @settings(max_examples=100)
    def test_limb_exact_property(self, a, b):
        assert LimbVector(a, 16).convolve(LimbVector(b, 16)).limbs == reference_convolve(a, b)


class TestBlocks:
    def test_split_concat_round_trip(self):
        v = lv(1, 2, 3, 4, 5, 6)
        blocks = v.split_blocks(3)
        assert [b.limbs for b in blocks] == [(1, 2), (3, 4), (5, 6)]
        assert LimbVector.concat(blocks) == v

    def test_split_indivisible_rejected(self):
        with pytest.raises(ValueError):
            lv(1, 2, 3).split_blocks(2)

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            LimbVector.concat([])

    def test_concat_mixed_base_rejected(self):
        with pytest.raises(ValueError):
            LimbVector.concat([lv(1, base_bits=8), lv(1, base_bits=9)])

    def test_take(self):
        assert lv(1, 2, 3, 4).take(1, 2).limbs == (2, 3)

    def test_take_out_of_range(self):
        with pytest.raises(ValueError):
            lv(1, 2).take(1, 5)

    def test_pad_to(self):
        assert lv(1).pad_to(3).limbs == (1, 0, 0)
        with pytest.raises(ValueError):
            lv(1, 2).pad_to(1)


class TestSizingAndContainer:
    def test_words_counts_per_limb(self):
        v = LimbVector([1, 1 << 100, 0], 8)
        assert v.words(64) == 1 + 2 + 1

    @given(
        st.lists(st.integers(-(1 << 300), 1 << 300), max_size=10),
        st.sampled_from([1, 7, 16, 64]),
    )
    @settings(max_examples=60)
    def test_words_is_bits_to_words_sum(self, limbs, word_bits):
        expected = sum(bits_to_words(abs(v).bit_length(), word_bits) for v in limbs)
        assert LimbVector(limbs, 8).words(word_bits) == (expected or 1)

    def test_words_bad_word_bits(self):
        with pytest.raises(ValueError):
            lv(1).words(0)

    def test_len_getitem_iter_eq_hash(self):
        v = lv(5, 6)
        assert len(v) == 2 and v[1] == 6 and list(v) == [5, 6]
        assert v == lv(5, 6) and hash(v) == hash(lv(5, 6))
        assert v != lv(5, 6, base_bits=9)
        assert (v == "x") is False or (v.__eq__("x") is NotImplemented)

    def test_flops_linear(self):
        assert lv(1, 2, 3).flops_linear() == 6
