"""Tests for block matrix application and Toom-Graph inversion sequences."""

from fractions import Fraction

import pytest

from repro.bigint.blockops import BlockOperator, apply_matrix_to_blocks, overlap_add
from repro.bigint.limbs import LimbVector
from repro.bigint.matrices import interpolation_matrix, toom_operators
from repro.bigint.evalpoints import extended_toom_points, toom_points
from repro.bigint.toomgraph import (
    AddMul,
    OpCosts,
    Scale,
    Swap,
    apply_inversion_sequence,
    inversion_sequence,
    sequence_cost,
    toom_graph_search,
)
from repro.util.rational import mat_vec


def lv(*limbs):
    return LimbVector(limbs, 8)


def apply(rows, blocks):
    return apply_matrix_to_blocks(BlockOperator.compile(rows), blocks)[0]


class TestBlockOperator:
    def test_integral_row(self):
        op = BlockOperator.compile([[1, -2, 3]])
        assert op.rows == ((1, -2, 3),)
        assert op.lcms == (1,)

    def test_rational_row_scaled_by_lcm(self):
        op = BlockOperator.compile([[Fraction(1, 2), Fraction(1, 3)]])
        assert op.rows == ((3, 2),)
        assert op.lcms == (6,)

    def test_cost_model(self):
        # row0: 1 nnz -> 2; row1: 2 nnz -> 4, plus 1 for the division.
        op = BlockOperator.compile([[1, 0], [Fraction(1, 2), 1]])
        assert op.cost == 2 + 4 + 1
        _, flops = apply_matrix_to_blocks(op, [lv(*range(0, 20, 2)), lv(*range(10))])
        assert flops == 10 * op.cost

    def test_row_operator(self):
        op = BlockOperator.compile([[1, 0], [Fraction(1, 2), 1]])
        assert op.row(1) == BlockOperator.compile([[Fraction(1, 2), 1]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            BlockOperator.compile([[1, 2], [1]])

    @pytest.mark.parametrize(
        "k,costs", [(2, [8, 12, 16]), (3, [22, 28, 34]), (4, [44, 52, 60])]
    )
    def test_evaluation_costs(self, k, costs):
        # Per-limb evaluation cost of U at f = 0, 1, 2 redundant points.
        got = [
            BlockOperator.compile(toom_operators(k, extended_toom_points(k, f))[0].rows).cost
            for f in range(3)
        ]
        assert got == costs

    @pytest.mark.parametrize("k,cost", [(2, 10), (3, 35), (4, 75)])
    def test_interpolation_costs(self, k, cost):
        assert BlockOperator.compile(toom_operators(k)[2].rows).cost == cost


class TestApplyMatrixToBlocks:
    def test_integral_matrix(self):
        out = apply([[1, 1], [1, -1]], [lv(3, 4), lv(1, 2)])
        assert [b.limbs for b in out] == [(4, 6), (2, 2)]

    def test_rational_matrix_exact(self):
        # Row [1/2, 1/2] on blocks summing to even entries.
        out = apply([[Fraction(1, 2), Fraction(1, 2)]], [lv(3), lv(5)])
        assert out[0].limbs == (4,)

    def test_rational_inexact_raises(self):
        with pytest.raises(ValueError):
            apply([[Fraction(1, 2), Fraction(1, 2)]], [lv(3), lv(4)])

    def test_zero_row(self):
        out = apply([[0, 0]], [lv(1, 2), lv(3, 4)])
        assert out[0].is_zero()

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="row width"):
            apply([[1, 2, 3]], [lv(1), lv(2)])

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError):
            apply([[1]], [])

    def test_block_length_mismatch(self):
        with pytest.raises(ValueError):
            apply([[1, 1]], [lv(1, 2), lv(3)])

    def test_matches_scalar_mat_vec(self):
        # Applying W^T blockwise to 1-limb blocks == plain mat_vec.
        w_t = interpolation_matrix(toom_points(2), 2)
        values = [6, 10, 4]
        blocks = [lv(v) for v in values]
        out = apply(w_t.rows, blocks)
        expected = mat_vec(w_t.rows, values)
        assert [b.limbs[0] for b in out] == [int(e) for e in expected]


class TestOverlapAdd:
    def test_uniform_offsets(self):
        out, flops = overlap_add([lv(1, 2), lv(3, 4), lv(5, 6)], [0, 1, 2], 4)
        assert out.limbs == (1, 5, 9, 6)
        assert flops == 6

    def test_mixed_radix_offsets(self):
        # Multi-step layout: blocks land at sums of per-variable weights,
        # not at multiples of one stride.
        out, flops = overlap_add([lv(1, 1), lv(2, 2), lv(3, 3), lv(4, 4)], [0, 3, 1, 4], 6)
        assert out.limbs == (1, 4, 3, 2, 6, 4)
        assert flops == 8

    def test_block_past_end_rejected(self):
        with pytest.raises(ValueError):
            overlap_add([lv(1, 2)], [3], 4)


class TestRowOps:
    def test_addmul_validation(self):
        with pytest.raises(ValueError):
            AddMul(0, 0, Fraction(1))
        with pytest.raises(ValueError):
            AddMul(0, 1, Fraction(0))

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            Scale(0, Fraction(0))

    def test_swap_validation(self):
        with pytest.raises(ValueError):
            Swap(1, 1)

    def test_costs(self):
        costs = OpCosts()
        assert costs.of(AddMul(0, 1, Fraction(-1))) == 1.0
        assert costs.of(AddMul(0, 1, Fraction(2))) == 2.0
        assert costs.of(Scale(0, Fraction(1, 2))) == 2.0
        assert costs.of(Swap(0, 1)) == 0.0

    def test_sequence_cost(self):
        ops = [AddMul(0, 1, Fraction(1)), Scale(1, Fraction(1, 3))]
        assert sequence_cost(ops) == 3.0


class TestInversionSequence:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sequence_computes_wt(self, k):
        import random

        rng = random.Random(k)
        w_t = interpolation_matrix(toom_points(k), k)
        ops = inversion_sequence(w_t)
        vec = [rng.randrange(-100, 100) for _ in range(2 * k - 1)]
        via_ops = apply_inversion_sequence(ops, vec)
        via_mat = mat_vec(w_t.rows, vec)
        assert [Fraction(v) for v in via_ops] == [Fraction(v) for v in via_mat]

    def test_sequence_on_limb_blocks(self):
        # Inversion sequences must work blockwise for the lazy/parallel
        # algorithms: feed it pointwise-product blocks of a real multiply.
        u, v, w_t = toom_operators(2)
        a, b = [3, 5], [2, 7]
        ua = mat_vec(u.rows, a)
        vb = mat_vec(v.rows, b)
        blocks = [lv(int(x * y)) for x, y in zip(ua, vb)]
        ops = inversion_sequence(w_t)
        out = apply_inversion_sequence(ops, blocks)
        # (3 + 5x)(2 + 7x) = 6 + 31x + 35x^2
        assert [blk.limbs[0] for blk in out] == [6, 31, 35]

    def test_singular_matrix_rejected(self):
        from repro.util.rational import FractionMatrix

        with pytest.raises(ValueError):
            inversion_sequence(FractionMatrix([[1, 1], [1, 1]]))


class TestToomGraphSearch:
    def test_search_finds_correct_sequence_k2(self):
        w_t = interpolation_matrix(toom_points(2), 2)
        ops = toom_graph_search(w_t, max_nodes=4000)
        vec = [6, 10, 4]
        out = apply_inversion_sequence(ops, vec)
        assert [Fraction(v) for v in out] == [Fraction(v) for v in mat_vec(w_t.rows, vec)]

    def test_search_beats_or_matches_gauss_jordan_k2(self):
        w_t = interpolation_matrix(toom_points(2), 2)
        searched = toom_graph_search(w_t, max_nodes=4000)
        fallback = inversion_sequence(w_t)
        assert sequence_cost(searched) <= sequence_cost(fallback)

    def test_exhausted_search_falls_back(self):
        w_t = interpolation_matrix(toom_points(3), 3)
        ops = toom_graph_search(w_t, max_nodes=5)  # tiny budget -> fallback
        vec = list(range(5))
        out = apply_inversion_sequence(ops, vec)
        assert [Fraction(v) for v in out] == [
            Fraction(v) for v in mat_vec(w_t.rows, vec)
        ]

    def test_apply_scale_with_exact_div_on_blocks(self):
        ops = [Scale(0, Fraction(1, 2))]
        out = apply_inversion_sequence(ops, [lv(4, 8)])
        assert out[0].limbs == (2, 4)

    def test_apply_swap(self):
        out = apply_inversion_sequence([Swap(0, 1)], [1, 2])
        assert out == [2, 1]
