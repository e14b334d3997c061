"""Determinism property: a seeded trial is a pure function of its inputs.

The goldens (tests/machine/test_goldens.py) pin a handful of hand-picked
scenarios byte-for-byte; this property sweeps the space around them.
Hypothesis draws an operand size, a seed and a within-geometry fault
schedule, runs the identical trial twice, and demands the same verdict,
the same product, the same error class and the same fired-event snapshot
both times — and a verdict outside the campaign oracle's defect set.

The trial parameters stay small on purpose (each example runs two full
machine executions); the ``ci`` profile is derandomized so a CI failure
replays locally with ``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.oracle import DEFECT_VERDICTS
from repro.campaign.runner import run_trial
from repro.machine.fault import FaultEvent

#: Hard faults exercise replacement, delays only stretch virtual time —
#: both must replay identically.
_KINDS = ("hard", "delay")

fault_events = st.lists(
    st.builds(
        FaultEvent,
        rank=st.integers(min_value=0, max_value=3),
        phase=st.sampled_from(("work", "*")),
        op_index=st.integers(min_value=0, max_value=4),
        incarnation=st.just(0),
        kind=st.sampled_from(_KINDS),
    ),
    max_size=2,
    unique_by=lambda e: e.rank,
)


def _observe(variant, seed, events, bits):
    out = run_trial(variant, seed=seed, events=events, bits=bits, timeout=20.0)
    err = out.execution.error
    return {
        "verdict": out.verdict,
        "actual": out.execution.actual,
        "error_class": None if err is None else type(err).__name__,
        "fired": out.execution.fired,
    }


def _assert_deterministic_and_sound(variant, seed, events, bits):
    first = _observe(variant, seed, events, bits)
    second = _observe(variant, seed, events, bits)
    assert second == first
    assert first["verdict"] not in DEFECT_VERDICTS, first
    return first


class TestTrialDeterminism:
    @given(
        variant=st.sampled_from(("parallel", "ft_linear")),
        seed=st.integers(min_value=0, max_value=2**16),
        events=fault_events,
        bits=st.sampled_from((120, 240, 600)),
    )
    @settings(max_examples=10, deadline=None)
    def test_trial_observables_replay(self, variant, seed, events, bits):
        _assert_deterministic_and_sound(variant, seed, events, bits)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=5, deadline=None)
    def test_fault_free_products_replay(self, seed):
        observed = _assert_deterministic_and_sound("ft_linear", seed, (), 240)
        assert observed["verdict"] == "exact"
