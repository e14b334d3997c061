"""Fault-space enumeration: completeness, classification, erasure units."""

from __future__ import annotations

import pytest

from repro.campaign.registry import get_variant
from repro.commcheck.extract import make_config
from repro.faultcheck.space import FAULTCHECK_VARIANTS, enumerate_space


@pytest.fixture(scope="module")
def cfg():
    return make_config()


@pytest.fixture(scope="module")
def linear_space(cfg):
    return enumerate_space("ft_linear", cfg)


@pytest.fixture(scope="module")
def parallel_space(cfg):
    return enumerate_space("parallel", cfg)


class TestEnumeration:
    def test_registry_covers_all_variants(self):
        assert len(FAULTCHECK_VARIANTS) == 8

    def test_ft_linear_counts(self, linear_space):
        # p=9 workers + f*q=3 code ranks; every (rank, phase, op, kind)
        # triple the campaign OpSpace can target appears exactly once.
        assert linear_space.total_points == 60
        assert len(linear_space.classes) == 8

    def test_parallel_counts(self, parallel_space):
        assert parallel_space.total_points == 216
        assert len(parallel_space.classes) == 6

    def test_class_sizes_sum_to_total(self, linear_space, parallel_space):
        for space in (linear_space, parallel_space):
            assert (
                sum(c.n_points for c in space.classes) == space.total_points
            )

    def test_parallel_tolerates_nothing(self, parallel_space):
        # The baseline algorithm has no redundancy: only delay classes
        # may be tolerated.
        for cls in parallel_space.classes:
            if cls.kind != "delay":
                assert not cls.tolerated

    def test_class_ids_unique_and_self_describing(self, linear_space):
        ids = [c.id for c in linear_space.classes]
        assert len(ids) == len(set(ids))
        for cls in linear_space.classes:
            assert cls.id.startswith(f"{cls.kind}.{cls.phase}.")


class TestClassification:
    def test_representatives_classify_to_own_class(self, linear_space):
        for cls in linear_space.classes:
            for point in cls.representatives:
                assert linear_space.classify_event(point.event()) == cls.id

    def test_replacement_incarnation_ignored(self, linear_space):
        # A respawn re-injects the same point at incarnation 1; coverage
        # classification must not treat it as an alien.
        cls = linear_space.classes[0]
        point = cls.representatives[0]
        assert linear_space.classify_event(point.event(incarnation=1)) == cls.id

    def test_off_space_event_is_alien(self, linear_space):
        from repro.machine.fault import FaultEvent

        alien = FaultEvent(
            rank=0, phase="no-such-phase", op_index=0, kind="hard"
        )
        assert linear_space.classify_event(alien) is None


def unit_members(variant, rank, cfg):
    return get_variant(variant).fault_geometry(cfg).unit_of(rank).members


class TestErasureUnits:
    """A hard fault condemns its whole erasure unit (see schedule prover);
    the units come from the algorithm's own record."""

    def test_polynomial_columns(self, cfg):
        # g2 = p // (2k-1) = 3 ranks per coded column.
        assert unit_members("ft_polynomial", 0, cfg) == (0, 1, 2)
        assert unit_members("ft_polynomial", 4, cfg) == (3, 4, 5)
        # Code ranks group into columns too, offset from p.
        assert unit_members("ft_polynomial", 9, cfg) == (9, 10, 11)
        assert unit_members("ft_polynomial", 11, cfg) == (9, 10, 11)

    def test_replication_whole_group(self, cfg):
        assert unit_members("replication", 0, cfg) == tuple(range(9))
        assert unit_members("replication", 10, cfg) == tuple(range(9, 18))

    def test_linear_code_singletons(self, cfg):
        # The linear code erases per-coordinate, not per-column.
        assert unit_members("ft_linear", 2, cfg) == (2,)
        assert unit_members("ft_linear", 3, cfg) == (3,)

    def test_toomcook_mixed_units(self, cfg):
        # Standard ranks: poly columns; linear-code rows: singletons;
        # poly-code ranks: columns again, offset past the linear rows.
        assert unit_members("ft_toomcook", 0, cfg) == (0, 1, 2)
        assert unit_members("ft_toomcook", 10, cfg) == (10,)
        assert unit_members("ft_toomcook", 13, cfg) == (12, 13, 14)

    def test_units_are_self_consistent(self, cfg):
        # Membership is symmetric: every rank in my unit has my unit.
        for variant in ("ft_polynomial", "replication", "ft_toomcook"):
            for rank in range(12):
                unit = unit_members(variant, rank, cfg)
                assert rank in unit
                for member in unit:
                    assert unit_members(variant, member, cfg) == unit

    def test_roles_partition_ranks(self, cfg):
        geometry = get_variant("ft_linear").fault_geometry(cfg)
        roles = [geometry.unit_of(rank).role for rank in range(geometry.machine_size)]
        assert roles == ["standard"] * 3 + ["linear-code"] * cfg.f
