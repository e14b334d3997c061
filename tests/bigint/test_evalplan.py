"""Tests for the evaluation-reuse compiler (Section 1.1, Zanoni 2009)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigint.evalplan import LinOp, reuse_evaluation_plan
from repro.bigint.evalpoints import extended_toom_points, toom_points
from repro.bigint.limbs import LimbVector
from repro.bigint.matrices import evaluation_matrix
from repro.bigint.toomcook import ToomCook
from repro.util.rational import mat_vec


def dense_eval(points, k, digits):
    return [int(v) for v in mat_vec(evaluation_matrix(points, k).rows, digits)]


class TestLinOp:
    def test_word_ops(self):
        assert LinOp(3, ((1, 0), (1, 1))).word_ops() == 1  # one add
        assert LinOp(3, ((2, 0), (1, 1))).word_ops() == 2  # mul + add
        assert LinOp(3, ((4, 0),)).word_ops() == 1  # one mul


class TestPlanCorrectness:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_dense_on_standard_points(self, k):
        rng = random.Random(k)
        points = toom_points(k)
        plan = reuse_evaluation_plan(points, k)
        for _ in range(5):
            digits = [rng.randrange(-999, 999) for _ in range(k)]
            assert plan.apply(digits) == dense_eval(points, k, digits)

    @pytest.mark.parametrize("k,f", [(2, 1), (3, 2), (4, 3)])
    def test_matches_dense_on_extended_points(self, k, f):
        rng = random.Random(k * 10 + f)
        points = extended_toom_points(k, f)
        plan = reuse_evaluation_plan(points, k)
        digits = [rng.randrange(-999, 999) for _ in range(k)]
        assert plan.apply(digits) == dense_eval(points, k, digits)

    def test_negative_point_first(self):
        points = [(-1, 1), (1, 1), (0, 1)]
        plan = reuse_evaluation_plan(points, 2)
        digits = [3, 5]
        assert plan.apply(digits) == dense_eval(points, 2, digits)

    def test_unpaired_point_direct_row(self):
        points = [(0, 1), (5, 1), (1, 0)]
        plan = reuse_evaluation_plan(points, 2)
        assert plan.apply([2, 7]) == dense_eval(points, 2, [2, 7])

    def test_limb_vector_registers(self):
        # The plan must work blockwise, like the matrices do.
        points = toom_points(3)
        plan = reuse_evaluation_plan(points, 3)
        blocks = [LimbVector([1, 2], 8), LimbVector([3, -4], 8), LimbVector([0, 5], 8)]
        got = plan.apply(blocks)
        from repro.bigint.blockops import BlockOperator, apply_matrix_to_blocks

        op = BlockOperator.compile(evaluation_matrix(points, 3).rows)
        want, _flops = apply_matrix_to_blocks(op, blocks)
        assert got == want

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_random_digits(self, k, data):
        points = toom_points(k)
        plan = reuse_evaluation_plan(points, k)
        digits = [
            data.draw(st.integers(-(10**6), 10**6), label=f"d{i}")
            for i in range(k)
        ]
        assert plan.apply(digits) == dense_eval(points, k, digits)


class TestPlanValidation:
    def test_k_positive(self):
        with pytest.raises(ValueError):
            reuse_evaluation_plan([(0, 1)], 0)

    def test_nonstandard_h_rejected(self):
        with pytest.raises(ValueError, match="h in"):
            reuse_evaluation_plan([(1, 2)], 2)

    def test_apply_length_checked(self):
        plan = reuse_evaluation_plan(toom_points(2), 2)
        with pytest.raises(ValueError, match="digits"):
            plan.apply([1])


class TestSavings:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_plan_cheaper_than_dense(self, k):
        points = toom_points(k)
        plan = reuse_evaluation_plan(points, k)
        u = evaluation_matrix(points, k)
        dense_ops = 2 * sum(1 for row in u.rows for v in row if v)
        assert plan.word_ops() < dense_ops

    def test_toomcook_reuse_mode_exact_and_cheaper(self):
        rng = random.Random(5)
        a, b = rng.getrandbits(2500), rng.getrandbits(2400)
        dense = ToomCook(3, 16)
        fast = ToomCook(3, 16, evaluation="reuse")
        pd, fd = dense.multiply(a, b)
        pf, ff = fast.multiply(a, b)
        assert pd == pf == a * b
        assert ff < fd

    def test_bad_evaluation_mode(self):
        with pytest.raises(ValueError, match="evaluation"):
            ToomCook(2, evaluation="hyper")
