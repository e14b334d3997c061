"""Tests for the polynomial-coded algorithm (Section 4.2)."""

import random

import pytest

from repro.core.ft_polynomial import (
    FaultToleranceExceeded,
    PolynomialCodedToomCook,
)
from repro.core.plan import make_plan
from repro.machine.errors import MachineError
from repro.machine.fault import FaultEvent, FaultSchedule


def build(p=9, k=2, f=1, n_bits=600, events=(), timeout=15):
    plan = make_plan(n_bits, p=p, k=k, word_bits=16)
    return PolynomialCodedToomCook(
        plan, f=f, fault_schedule=FaultSchedule(list(events)), timeout=timeout
    )


def operands(n_bits=600, seed=0):
    rng = random.Random(seed)
    return rng.getrandbits(n_bits), rng.getrandbits(n_bits - 8)


class TestConstruction:
    def test_geometry(self):
        algo = build(p=9, k=2, f=2)
        assert algo.machine_size() == 9 + 2 * 3  # P + f * P/(2k-1)
        assert algo.n_columns() == 5
        assert algo.column_members(0) == [0, 1, 2]
        assert algo.column_members(3) == [9, 10, 11]  # first code column

    def test_column_range_checked(self):
        with pytest.raises(ValueError):
            build().column_members(99)

    def test_f_zero_rejected(self):
        with pytest.raises(ValueError, match="f must be"):
            build(f=0)

    def test_dfs_plan_rejected(self):
        plan = make_plan(600, p=9, k=2, word_bits=16, extra_dfs=1)
        with pytest.raises(ValueError, match="unlimited-memory"):
            PolynomialCodedToomCook(plan, f=1)

    def test_redundant_points_extend_standard(self):
        from repro.bigint.evalpoints import toom_points

        algo = build(k=2, f=2)
        assert algo.points[:3] == toom_points(2)
        assert len(algo.points) == 5


class TestFaultFree:
    @pytest.mark.parametrize("p,k,f", [(3, 2, 1), (9, 2, 1), (9, 2, 2), (5, 3, 1)])
    def test_correct_product(self, p, k, f):
        a, b = operands(seed=p + k + f)
        out = build(p=p, k=k, f=f).multiply(a, b)
        assert out.product == a * b

    def test_overhead_is_small(self):
        # Thm 5.2: F' = (1+o(1)) F — the coded run costs at most the
        # (2k-1+f)/(2k-1) first-step factor more.
        from repro.core.parallel_toomcook import ParallelToomCook

        a, b = operands(seed=42)
        plan = make_plan(600, p=9, k=2, word_bits=16)
        base = ParallelToomCook(plan).multiply(a, b)
        coded = build(p=9, k=2, f=1).multiply(a, b)
        ratio = coded.run.critical_path.f / base.run.critical_path.f
        assert 1.0 <= ratio < 1.6


class TestUnderFaults:
    @pytest.mark.parametrize(
        "victim", [0, 2, 4, 8]  # different standard columns
    )
    def test_single_multiplication_fault(self, victim):
        a, b = operands(seed=victim)
        events = [FaultEvent(victim, "multiplication", 0)]
        out = build(p=9, k=2, f=1, events=events).multiply(a, b)
        assert out.product == a * b
        assert len(out.run.fault_log) == 1

    def test_two_faults_same_column_one_f(self):
        # Both faults land in one column: only one column dies, f=1 holds.
        a, b = operands(seed=5)
        events = [
            FaultEvent(0, "multiplication", 0),
            FaultEvent(1, "multiplication", 0),
        ]
        out = build(p=9, k=2, f=1, events=events).multiply(a, b)
        assert out.product == a * b

    def test_two_faults_distinct_columns_need_f2(self):
        a, b = operands(seed=6)
        events = [
            FaultEvent(0, "multiplication", 0),
            FaultEvent(4, "multiplication", 0),
        ]
        out = build(p=9, k=2, f=2, events=events).multiply(a, b)
        assert out.product == a * b

    def test_code_column_fault(self):
        a, b = operands(seed=7)
        events = [FaultEvent(9, "multiplication", 0)]  # code rank
        out = build(p=9, k=2, f=1, events=events).multiply(a, b)
        assert out.product == a * b

    def test_fault_in_inner_bfs_step(self):
        a, b = operands(seed=8)
        # Deeper op index lands inside the inner recursion's exchanges.
        events = [FaultEvent(5, "evaluation", 4)]
        out = build(p=9, k=2, f=1, events=events).multiply(a, b)
        assert out.product == a * b

    def test_exceeding_f_fails_loudly(self):
        a, b = operands(seed=9)
        events = [
            FaultEvent(0, "multiplication", 0),
            FaultEvent(4, "multiplication", 0),
        ]
        algo = build(p=9, k=2, f=1, events=events, timeout=8)
        with pytest.raises(MachineError) as info:
            algo.multiply(a, b)
        assert isinstance(info.value.__cause__, FaultToleranceExceeded)

    def test_no_recomputation_on_fault(self):
        # The headline claim vs Birnbaum et al.: a multiplication-phase
        # fault costs (almost) nothing — surviving columns never redo work.
        a, b = operands(seed=10)
        clean = build(p=9, k=2, f=1).multiply(a, b)
        faulted = build(
            p=9, k=2, f=1, events=[FaultEvent(4, "multiplication", 0)]
        ).multiply(a, b)
        f_clean = clean.run.critical_path.f
        f_faulted = faulted.run.critical_path.f
        assert f_faulted <= 1.1 * f_clean

    def test_survivor_subsets_differ_but_agree(self):
        # With a dead column, every parent interpolates from survivors;
        # the assembled product must still be exact (no consensus needed).
        for victim in (1, 7, 10):
            a, b = operands(seed=victim + 20)
            out = build(
                p=9, k=2, f=1, events=[FaultEvent(victim, "multiplication", 0)]
            ).multiply(a, b)
            assert out.product == a * b
