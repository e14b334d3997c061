"""Integration tests for the combined fault-tolerant algorithm
(Section 4, Theorem 5.2): fault matrix across phases and regimes."""

import random

import pytest

from repro.core.api import multiply_fault_tolerant, multiply_parallel, multiply_replicated
from repro.core.ft_toomcook import FaultTolerantToomCook
from repro.core.parallel_toomcook import ParallelToomCook
from repro.core.plan import make_plan
from repro.core.replication import ReplicatedToomCook
from repro.machine.errors import MachineError, MemoryExceeded
from repro.machine.fault import FaultEvent, FaultSchedule


def build(p=9, k=2, f=1, n_bits=1200, extra_dfs=0, events=(), timeout=20):
    plan = make_plan(n_bits, p=p, k=k, word_bits=16, extra_dfs=extra_dfs)
    return FaultTolerantToomCook(
        plan, f=f, fault_schedule=FaultSchedule(list(events)), timeout=timeout
    )


def operands(n_bits=1200, seed=0):
    rng = random.Random(seed)
    return rng.getrandbits(n_bits), rng.getrandbits(n_bits - 8)


class TestGeometry:
    def test_machine_size(self):
        algo = build(p=9, k=2, f=2)
        # P + f*(2k-1) linear-code + f*P/(2k-1) poly-code
        assert algo.machine_size() == 9 + 2 * 3 + 2 * 3

    def test_task_structure(self):
        algo = build(extra_dfs=2)
        assert algo.n_tasks() == 9
        assert algo._task_path(0) == [0, 0]
        assert algo._task_path(5) == [1, 2]

    def test_state_schema_matches_flatten(self):
        algo = build(extra_dfs=1)
        # After 1 completed task the stack holds one child result.
        schema = algo._state_schema(1)
        plan = algo.plan
        assert schema[0] == schema[1] == plan.local_words
        assert schema[2] == 2 * plan.n_words // plan.k // plan.p

    def test_f_validation(self):
        with pytest.raises(ValueError):
            build(f=0)


class TestFaultFree:
    @pytest.mark.parametrize("extra_dfs", [0, 1])
    def test_correct(self, extra_dfs):
        a, b = operands(seed=extra_dfs)
        out = build(extra_dfs=extra_dfs).multiply(a, b)
        assert out.product == a * b
        assert out.run.ok

    def test_k3(self):
        a, b = operands(seed=3)
        out = build(p=5, k=3).multiply(a, b)
        assert out.product == a * b

    def test_overhead_vs_plain_parallel(self):
        # Thm 5.2: F' = (1+o(1)) F, BW' = (1+o(1)) BW.
        a, b = operands(n_bits=3000, seed=4)
        plan = make_plan(3000, p=9, k=2, word_bits=16)
        base = ParallelToomCook(plan, timeout=20).multiply(a, b)
        ft = build(n_bits=3000).multiply(a, b)
        f_ratio = ft.run.critical_path.f / base.run.critical_path.f
        assert 1.0 <= f_ratio < 2.0  # dominated by (q+f)/q + encode cost


FAULT_MATRIX = [
    ("mul-std", 0, 1, [FaultEvent(2, "multiplication", 0)]),
    ("mul-std-dfs", 1, 1, [FaultEvent(2, "multiplication", 0)]),
    ("eval-early", 1, 1, [FaultEvent(4, "evaluation", 1)]),
    ("eval-mid", 1, 1, [FaultEvent(4, "evaluation", 3)]),
    ("interp", 1, 1, [FaultEvent(1, "interpolation", 1)]),
    ("lincode", 1, 1, [FaultEvent(10, "code-creation", 0)]),
    ("polycode", 0, 1, [FaultEvent(13, "multiplication", 0)]),
    (
        "two-cols",
        1,
        2,
        [FaultEvent(0, "multiplication", 0), FaultEvent(8, "multiplication", 0)],
    ),
    (
        "mixed",
        1,
        2,
        [FaultEvent(10, "code-creation", 0), FaultEvent(3, "multiplication", 0)],
    ),
]


class TestFaultMatrix:
    @pytest.mark.parametrize("name,extra_dfs,f,events", FAULT_MATRIX)
    def test_survives_and_is_exact(self, name, extra_dfs, f, events):
        a, b = operands(seed=sum(map(ord, name)))
        out = build(f=f, extra_dfs=extra_dfs, events=events).multiply(a, b)
        assert out.product == a * b, name
        assert out.run.ok, name
        assert len(out.run.fault_log) == len(events), name

    def test_fault_in_second_task(self):
        # Late op index lands in a later DFS task's evaluation.
        a, b = operands(seed=77)
        out = build(extra_dfs=1, events=[FaultEvent(5, "evaluation", 9)]).multiply(
            a, b
        )
        assert out.product == a * b

    def test_replacement_state_recovery_is_exact(self):
        # A fault in the evaluation phase forces a retry from linearly
        # recovered state — the final product proves the recovered state
        # was bit-exact.
        a, b = operands(seed=88)
        out = build(extra_dfs=1, events=[FaultEvent(6, "evaluation", 2)]).multiply(
            a, b
        )
        assert out.product == a * b

    def test_recovery_phase_costs_recorded(self):
        a, b = operands(seed=99)
        out = build(extra_dfs=1, events=[FaultEvent(6, "evaluation", 2)]).multiply(
            a, b
        )
        assert out.product == a * b
        assert "recovery" in out.run.phase_costs
        assert out.run.phase_costs["recovery"].bw > 0

    def test_code_creation_costs_recorded(self):
        a, b = operands(seed=100)
        out = build(extra_dfs=1).multiply(a, b)
        cc = out.run.phase_costs["code-creation"]
        assert cc.bw > 0
        # Code creation is O(f*M) per boundary — small next to the run.
        assert cc.bw < out.run.critical_path.bw


class TestOverheadClaims:
    def test_extra_processors_much_smaller_than_replication(self):
        # Table 1/2: FT needs f*(2k-1) + f*P/(2k-1) extra processors vs
        # replication's f*P; for P >> 2k-1 the FT count is far smaller.
        from repro.core.replication import ReplicatedToomCook

        plan = make_plan(600, p=27, k=2, word_bits=16)
        ft = FaultTolerantToomCook(plan, f=1)
        rep = ReplicatedToomCook(plan, f=1)
        ft_extra = ft.machine_size() - 27
        rep_extra = rep.machine_size() - 27
        assert ft_extra < rep_extra
        assert rep_extra / ft_extra >= 27 / (3 + 9)

    def test_fault_free_faulted_same_answer_and_bounded_cost(self):
        a, b = operands(seed=101)
        clean = build(extra_dfs=0).multiply(a, b)
        faulted = build(
            extra_dfs=0, events=[FaultEvent(4, "multiplication", 0)]
        ).multiply(a, b)
        assert clean.product == faulted.product == a * b
        # A multiplication-window fault adds only recovery-boundary costs.
        assert faulted.run.critical_path.f <= 1.25 * clean.run.critical_path.f


class TestLoudFatalErrors:
    """A fatal rank error (not a tolerated hard fault) must raise, never
    come back as ``product == 0`` with only ``run.ok`` to tell."""

    def test_memory_exceeded_raises_like_multiply_parallel(self):
        a, b = operands(n_bits=1000, seed=11)
        kwargs = {"p": 9, "k": 2, "word_bits": 16, "m_words": 40}
        with pytest.raises(MachineError):
            multiply_parallel(a, b, **kwargs)
        with pytest.raises(MachineError) as info:
            multiply_fault_tolerant(a, b, f=1, **kwargs)
        assert isinstance(info.value.__cause__, MemoryExceeded)

    def test_opt_out_returns_failed_outcome(self):
        a, b = operands(n_bits=1000, seed=11)
        plan = make_plan(1000, p=9, k=2, word_bits=16, m_words=40)
        algo = FaultTolerantToomCook(plan, f=1, memory_words=40)
        out = algo.multiply(a, b, raise_on_error=False)
        assert not out.run.ok and out.product == 0

    def test_replicated_untyped_rank_crash_raises(self, monkeypatch):
        def crash(self, comm, va, vb):
            if comm.rank == 0:
                raise RuntimeError("rank program bug")
            return original(self, comm, va, vb)

        original = ReplicatedToomCook._rank_main
        monkeypatch.setattr(ReplicatedToomCook, "_rank_main", crash)
        a, b = operands(n_bits=600, seed=12)
        with pytest.raises(MachineError, match="rank program bug"):
            multiply_replicated(a, b, p=9, k=2, f=1, word_bits=16)
