"""Tests for the seeded fault-schedule sampler."""

from repro.campaign.probe import OpSpace
from repro.campaign.registry import get_variant
from repro.campaign.sampler import SHAPES, ScheduleSampler
from repro.campaign.runner import CampaignConfig
from repro.util.rng import DeterministicRNG


def toomcook_space():
    observed = {}
    for rank in range(9):
        for phase in ("evaluation", "multiplication", "interpolation"):
            observed[(rank, phase, "machine")] = tuple(range(4))
    return OpSpace(observed)


def soft_space():
    observed = dict()
    for rank in range(15):
        for phase in ("evaluation", "multiplication", "interpolation"):
            observed[(rank, phase, "machine")] = tuple(range(4))
    for rank in range(15):
        observed[(rank, "multiplication", "soft")] = (0, 1)
    return OpSpace(observed)


def cfg(**kw):
    kw.setdefault("bits", 300)
    return CampaignConfig(seed=1, **kw)


def geometry(name):
    return get_variant(name).fault_geometry(cfg())


class TestScheduleSampler:
    def test_events_land_in_measured_space(self):
        space = toomcook_space()
        sampler = ScheduleSampler(DeterministicRNG(7), geometry("ft_polynomial"), space)
        for _ in range(50):
            shape, events = sampler.draw()
            for ev in events:
                if ev.incarnation != 0:
                    continue  # replacement kills reuse the victim cell
                domain = "soft" if ev.kind == "soft" else "machine"
                ops = space.ops(ev.rank, ev.phase, domain=domain)
                assert ev.op_index in ops, (shape, ev)

    def test_deterministic_given_seed(self):
        space = toomcook_space()

        def draws(seed):
            sampler = ScheduleSampler(
                DeterministicRNG(seed), geometry("ft_polynomial"), space
            )
            return [sampler.draw() for _ in range(30)]

        assert draws(5) == draws(5)
        assert draws(5) != draws(6)

    def test_shapes_come_from_menu(self):
        sampler = ScheduleSampler(
            DeterministicRNG(3), geometry("ft_toomcook"), toomcook_space()
        )
        names = {name for name, _ in SHAPES}
        seen = set()
        for _ in range(80):
            shape, _events = sampler.draw()
            assert shape in names
            seen.add(shape)
        # The weighted menu should exercise real variety, not one shape.
        assert len(seen) >= 4

    def test_empty_shape_draws_no_events(self):
        sampler = ScheduleSampler(
            DeterministicRNG(11), geometry("parallel"), toomcook_space()
        )
        for _ in range(60):
            shape, events = sampler.draw()
            if shape == "empty":
                assert events == []
                break
        else:
            raise AssertionError("empty shape never drawn in 60 draws")

    def test_soft_shapes_only_for_soft_variants(self):
        sampler = ScheduleSampler(
            DeterministicRNG(2), geometry("ft_toomcook"), toomcook_space()
        )
        for _ in range(80):
            _shape, events = sampler.draw()
            assert all(ev.kind != "soft" for ev in events)

    def test_soft_variant_draws_soft_events(self):
        sampler = ScheduleSampler(
            DeterministicRNG(2), geometry("soft_faults"), soft_space()
        )
        kinds = set()
        for _ in range(80):
            _shape, events = sampler.draw()
            kinds.update(ev.kind for ev in events)
        assert "soft" in kinds

    def test_replacement_kill_targets_incarnation_one(self):
        sampler = ScheduleSampler(
            DeterministicRNG(9), geometry("ft_polynomial"), toomcook_space()
        )
        for _ in range(120):
            shape, events = sampler.draw()
            if shape == "replacement-kill":
                assert sorted(ev.incarnation for ev in events) == [0, 1]
                return
        raise AssertionError("replacement-kill never drawn in 120 draws")
