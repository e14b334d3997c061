"""Equivalence property: the indexed ``FaultSchedule.take`` is the scan.

``FaultSchedule`` keeps its pending events indexed by ``(kind, rank,
incarnation)`` so that a fault point looks only at its own events.  The
reference below is the linear scan the index replaced: walk the pending
list in order and consume the first event of the right kind, rank,
incarnation, phase (or ``"*"``) and op index.  Hypothesis draws event
lists with repeated ranks, ``"*"`` phases, incarnations 0-2 and all three
kinds, then interleaves ``take`` with ``add``, ``absorb_fired`` and a
pickle round trip (the process backend ships schedules to its ranks that
way).  After every step both must agree on the returned event and on the
``events``/``fired`` views.

A machine op checks the delay and the hard kind in one locked pass
(``take_machine_op``).  Its reference is the sequence it replaced:
``take(kind="delay")`` then ``take(kind="hard")``, on a schedule and on
a probe, which must record the op space the same way.
"""

from __future__ import annotations

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.machine.fault import FaultEvent, FaultSchedule, ProbingFaultSchedule

_PHASES = ("work", "recovery", "*")
_KINDS = ("hard", "soft", "delay")

events = st.builds(
    FaultEvent,
    rank=st.integers(min_value=0, max_value=2),
    phase=st.sampled_from(_PHASES),
    op_index=st.integers(min_value=0, max_value=3),
    incarnation=st.integers(min_value=0, max_value=2),
    kind=st.sampled_from(_KINDS),
)


class LinearSchedule:
    """The reference: one pending list, scanned front to back."""

    def __init__(self, pending: list[FaultEvent]):
        self.events = list(pending)
        self.fired: list[FaultEvent] = []

    def take(self, rank, phase, op_index, incarnation, kind):
        for ev in self.events:
            if (
                ev.kind == kind
                and ev.rank == rank
                and ev.incarnation == incarnation
                and (ev.phase == "*" or ev.phase == phase)
                and ev.op_index == op_index
            ):
                self.events.remove(ev)
                self.fired.append(ev)
                return ev
        return None

    def add(self, event):
        self.events.append(event)

    def absorb_fired(self, fired):
        for ev in fired:
            if ev in self.events:
                self.events.remove(ev)
                self.fired.append(ev)


def _agree(indexed: FaultSchedule, reference: LinearSchedule) -> None:
    assert indexed.events == reference.events
    assert indexed.fired == reference.fired
    assert len(indexed) == len(reference.events)


@given(initial=st.lists(events, max_size=12), data=st.data())
def test_indexed_take_matches_the_linear_scan(initial, data):
    indexed = FaultSchedule(initial)
    reference = LinearSchedule(initial)
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        step = data.draw(st.sampled_from(("take", "take", "take", "add", "absorb", "pickle")))
        if step == "take":
            # Aim most queries at an event seen so far, so they can match.
            seen = initial + reference.events + reference.fired
            target = data.draw(st.sampled_from(seen) | events if seen else events)
            phase = target.phase
            if phase == "*" or data.draw(st.booleans()):
                phase = data.draw(st.sampled_from(_PHASES))
            query = (target.rank, phase, target.op_index, target.incarnation, target.kind)
            assert indexed.take(*query) == reference.take(*query)
        elif step == "add":
            event = data.draw(events)
            indexed.add(event)
            reference.add(event)
        elif step == "absorb":
            # Fires seen elsewhere: some still pending here, some already
            # fired or never scheduled (both must be skipped).
            pool = reference.events + reference.fired
            candidates = st.sampled_from(pool) | events if pool else events
            fired = data.draw(st.lists(candidates, max_size=4))
            indexed.absorb_fired(fired)
            reference.absorb_fired(fired)
        else:
            indexed = pickle.loads(pickle.dumps(indexed))
        _agree(indexed, reference)


@given(initial=st.lists(events, max_size=12), data=st.data())
def test_machine_op_lookup_matches_delay_then_hard(initial, data):
    single, two_takes = FaultSchedule(initial), FaultSchedule(initial)
    probe, probe_two_takes = ProbingFaultSchedule(), ProbingFaultSchedule()
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        step = data.draw(st.sampled_from(("op", "op", "op", "add", "absorb", "pickle")))
        if step == "op":
            seen = initial + two_takes.events + two_takes.fired
            target = data.draw(st.sampled_from(seen) | events if seen else events)
            phase = target.phase
            if phase == "*" or data.draw(st.booleans()):
                phase = data.draw(st.sampled_from(_PHASES))
            query = (target.rank, phase, target.op_index, target.incarnation)
            expected = (
                two_takes.take(*query, kind="delay"),
                two_takes.take(*query, kind="hard"),
            )
            assert single.take_machine_op(*query) == expected
            assert probe.take_machine_op(*query) == (None, None)
            probe_two_takes.take(*query, kind="delay")
            probe_two_takes.take(*query, kind="hard")
        elif step == "add":
            event = data.draw(events)
            single.add(event)
            two_takes.add(event)
        elif step == "absorb":
            pool = two_takes.events + two_takes.fired
            candidates = st.sampled_from(pool) | events if pool else events
            fired = data.draw(st.lists(candidates, max_size=4))
            single.absorb_fired(fired)
            two_takes.absorb_fired(fired)
        else:
            single = pickle.loads(pickle.dumps(single))
            probe = pickle.loads(pickle.dumps(probe))
        _agree(single, two_takes)
        assert probe.observed() == probe_two_takes.observed()
