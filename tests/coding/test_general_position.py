"""Tests for (r,l)-general position and the redundant-point search."""

import pytest

from repro.bigint.evalpoints import toom_points
from repro.bigint.multivariate import (
    evaluation_matrix_multivariate,
    grid_points,
    monomials,
)
from repro.coding.general_position import (
    all_square_submatrices_invertible,
    is_general_position,
)
from repro.coding.point_search import (
    candidate_extends,
    candidate_grid_points,
    extend_general_position,
    find_redundant_points,
    multistep_evaluation_points,
)
from repro.util.rational import FractionMatrix


class TestSubmatrixCheck:
    def test_identity_tall(self):
        m = FractionMatrix([[1, 0], [0, 1], [1, 1]])
        assert all_square_submatrices_invertible(m, 2)

    def test_detects_dependent_rows(self):
        m = FractionMatrix([[1, 0], [0, 1], [2, 0]])
        # rows {0, 2} are dependent.
        assert not all_square_submatrices_invertible(m, 2)

    def test_column_count_enforced(self):
        with pytest.raises(ValueError):
            all_square_submatrices_invertible(FractionMatrix([[1, 0]]), 3)

    def test_too_few_rows(self):
        assert not all_square_submatrices_invertible(FractionMatrix([[1, 0]]), 2)


class TestIsGeneralPosition:
    def test_univariate_distinct_points(self):
        # Distinct univariate points are in (r,1)-general position for any
        # r <= count (classic Vandermonde).
        pts = [((0, 1),), ((1, 1),), ((-1, 1),), ((2, 1),)]
        assert is_general_position(pts, 3, 1)

    def test_univariate_duplicate_breaks(self):
        pts = [((0, 1),), ((1, 1),), ((1, 1),)]
        assert not is_general_position(pts, 3, 1)

    def test_grid_is_general_position_claim_2_2(self):
        # The S^l grid of distinct points supports l-step Toom, hence is
        # in (2k-1, l)-general position.
        k, l = 2, 2
        grid = grid_points(toom_points(k), l)
        assert is_general_position(grid, 2 * k - 1, l)

    def test_degenerate_multivariate_set(self):
        # 9 points on a line in F^2 cannot be in (3,2)-general position:
        # a polynomial vanishing on the line kills them all.
        pts = [((i, 1), (0, 1)) for i in range(-4, 5)]
        assert not is_general_position(pts, 3, 2)

    def test_fewer_points_checks_row_rank(self):
        pts = [((0, 1), (0, 1)), ((1, 1), (1, 1))]
        assert is_general_position(pts, 3, 2)
        dup = [((0, 1), (0, 1)), ((0, 1), (0, 1))]
        assert not is_general_position(dup, 3, 2)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            is_general_position([], 0, 1)


class TestCandidates:
    def test_ordered_by_magnitude(self):
        gen = candidate_grid_points(1, limit=2)
        first = [next(gen) for _ in range(5)]
        assert first[0] == ((0, 1),)
        mags = [abs(p[0][0]) for p in first]
        assert mags == sorted(mags)

    def test_two_dimensional_candidates_distinct(self):
        pts = list(candidate_grid_points(2, limit=2))
        assert len(pts) == len(set(pts)) == 25

    def test_bad_l(self):
        with pytest.raises(ValueError):
            next(candidate_grid_points(0))


class TestExtension:
    def test_extend_univariate(self):
        pts = [((0, 1),), ((1, 1),), ((-1, 1),)]
        new = extend_general_position(pts, 3, 1)
        assert is_general_position(pts + [new], 3, 1)
        assert new not in pts

    def test_extend_grid_k2_l2(self):
        grid = grid_points(toom_points(2), 2)
        new = extend_general_position(grid, 3, 2)
        assert is_general_position(grid + [new], 3, 2)

    def test_candidate_extends_agrees_with_full_check(self):
        grid = grid_points(toom_points(2), 2)
        good = extend_general_position(grid, 3, 2)
        assert candidate_extends(grid, good, 3, 2)
        # A duplicate of an existing point must fail.
        assert not candidate_extends(grid, grid[0], 3, 2)

    def test_exhausted_limit_raises(self):
        pts = [((0, 1),), ((1, 1),), ((-1, 1),)]
        with pytest.raises(RuntimeError, match="limit"):
            # limit=1 leaves only candidates 0, +-1, all already present.
            extend_general_position(pts, 3, 1, limit=1)

    def test_find_redundant_points_incremental(self):
        grid = grid_points(toom_points(2), 2)
        extras = find_redundant_points(grid, 3, 2, f=2)
        assert len(extras) == 2
        assert is_general_position(grid + extras, 3, 2)

    def test_find_zero_redundant(self):
        assert find_redundant_points([((0, 1),)], 2, 1, 0) == []


class TestMultistepPoints:
    def test_counts(self):
        pts = multistep_evaluation_points(2, 2, 2)
        assert len(pts) == 9 + 2

    def test_base_prefix_is_grid(self):
        pts = multistep_evaluation_points(2, 2, 1)
        assert pts[:9] == tuple(grid_points(toom_points(2), 2))

    def test_all_full_subsets_interpolate(self):
        # The whole point of Section 6.1: ANY (2k-1)^l survivors
        # interpolate the product.
        pts = multistep_evaluation_points(2, 2, 1)
        assert is_general_position(pts, 3, 2)

    def test_f_zero_is_plain_grid(self):
        assert multistep_evaluation_points(3, 1, 0) == tuple(grid_points(toom_points(3), 1))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            multistep_evaluation_points(1, 1, 0)
        with pytest.raises(ValueError):
            multistep_evaluation_points(2, 0, 0)
        with pytest.raises(ValueError):
            multistep_evaluation_points(2, 1, -1)

    def test_univariate_matches_extended_points_semantics(self):
        # For l=1 the redundant points play the same role as
        # extended_toom_points: any 2k-1 of them interpolate.
        pts = multistep_evaluation_points(2, 1, 2)
        assert is_general_position(pts, 3, 1)
        m = evaluation_matrix_multivariate(pts, 3, 1)
        assert m.shape == (5, len(monomials(3, 1)))
