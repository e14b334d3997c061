"""The straggler campaign shape and the delay-only budget rule.

The paper's third fault category — a processor's average time per
operation increases — as a *population*: the sampler slows 1..3 distinct
ranks by seeded heavy-tailed factors, and because delay faults cannot
lose data or exceed any tolerance contract, the oracle demands the exact
result from every variant.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign.oracle import schedule_budget
from repro.campaign.probe import OpSpace
from repro.campaign.registry import get_variant, registered_variants
from repro.campaign.runner import CampaignConfig
from repro.campaign.sampler import SHAPES, ScheduleSampler
from repro.machine.backends import live_children
from repro.machine.backends.demo import restartable_slice_multiply
from repro.machine.engine import Machine
from repro.machine.fault import FaultEvent, FaultSchedule
from repro.util.rng import DeterministicRNG


def _space(ranks=9):
    observed = {}
    for rank in range(ranks):
        for phase in ("evaluation", "multiplication", "interpolation"):
            observed[(rank, phase, "machine")] = tuple(range(4))
    return OpSpace(observed)


def _cfg(**kw):
    kw.setdefault("bits", 300)
    return CampaignConfig(seed=1, **kw)


def _straggler_draws(seed, draws=300):
    sampler = ScheduleSampler(
        DeterministicRNG(seed), get_variant("ft_polynomial").fault_geometry(_cfg()), _space()
    )
    out = []
    for _ in range(draws):
        shape, events = sampler.draw()
        if shape == "straggler":
            out.append(events)
    return out


class TestStragglerShape:
    def test_in_menu(self):
        assert ("straggler", 2) in SHAPES

    def test_population_is_small_distinct_and_delay_only(self):
        batches = _straggler_draws(7)
        assert batches, "straggler never drawn in 300 draws"
        for events in batches:
            assert 1 <= len(events) <= 3
            ranks = [ev.rank for ev in events]
            assert len(set(ranks)) == len(ranks)
            assert all(ev.kind == "delay" for ev in events)

    def test_factors_heavy_tailed_and_capped(self):
        factors = [
            ev.factor for events in _straggler_draws(11) for ev in events
        ]
        assert factors
        # Pareto with scale 2: nothing below the scale, everything at or
        # under the cap, and the tail actually produces spread.
        assert all(2.0 <= f <= 256.0 for f in factors)
        assert max(factors) > min(factors)

    def test_deterministic_given_seed(self):
        assert _straggler_draws(5) == _straggler_draws(5)


class TestDelayOnlyBudget:
    def test_budget_is_must_for_every_variant(self):
        cfg = _cfg()
        events = [
            FaultEvent(rank=1, phase="multiplication", kind="delay", factor=32.0),
            FaultEvent(rank=4, phase="evaluation", kind="delay", factor=3.0),
        ]
        for spec in registered_variants():
            assert schedule_budget(events, spec.fault_geometry(cfg)) == "must", spec.name

    def test_hard_events_still_use_variant_rules(self):
        cfg = _cfg()
        mixed = [
            FaultEvent(rank=1, phase="multiplication", kind="delay"),
            FaultEvent(rank=1, phase="multiplication", kind="hard"),
        ]
        # The plain parallel algorithm tolerates nothing: any hard event
        # must classify "may", even beside a delay.
        assert schedule_budget(mixed, get_variant("parallel").fault_geometry(cfg)) == "may"


class TestStragglerOnBothBackends:
    """A slowed rank changes the cost model, never the product — on the
    simulator and on real processes alike."""

    @pytest.fixture(autouse=True)
    def no_orphans(self):
        yield
        deadline = time.monotonic() + 5.0
        while live_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert live_children() == []

    @pytest.mark.parametrize("backend", ["sim", "proc"])
    def test_delayed_worker_still_exact(self, backend):
        x, y = 0x1234_5678_9ABC_DEF0, 0x0FED_CBA9_8765_4321
        sched = FaultSchedule(
            [
                FaultEvent(
                    rank=1, phase="multiplication", op_index=0,
                    kind="delay", factor=16.0,
                )
            ]
        )
        machine = Machine(
            3, timeout=20.0, fault_schedule=sched, backend=backend
        )
        res = machine.run(restartable_slice_multiply, args=(x, y))
        assert res.results[0] == x * y
        assert sched.fired
