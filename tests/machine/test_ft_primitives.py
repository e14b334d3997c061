"""Tests for the fault-tolerance runtime primitives: agreement, gates,
votes, abort markers and incarnations.

Every case runs on both backends: the simulator and the process backend
reach the same :class:`~repro.machine.comm.Consensus` rules, the first
directly and the second by ``CONTROL`` round trips to its coordinator.
Each test class runs on the class's ``backend``, and its ``...OnProc``
subclass reruns every case on ``proc``.  Rank programs are module-level
functions so rank processes can import them under the ``spawn`` start
method.
"""

import time

import pytest

from repro.machine.backends import live_children
from repro.machine.engine import Machine
from repro.machine.errors import HardFault, MachineError, PeerDead
from repro.machine.fault import FaultEvent, FaultSchedule
from repro.machine.record import ScheduleRecorder

BACKENDS = ("sim", "proc")


@pytest.fixture(autouse=True)
def no_orphans():
    """Every test in this file must reap all its rank processes."""
    yield
    deadline = time.monotonic() + 5.0
    while live_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert live_children() == []


# ---------------------------------------------------------------- programs


def _consistent_snapshot(comm):
    if comm.rank == 2:
        with comm.phase("work"):
            comm.charge_flops(1)
        return None
    while comm.is_alive(2):
        time.sleep(0.005)
    return tuple(sorted(comm.agree_dead("k", range(comm.size))))


def _frozen_snapshot(comm):
    # The first caller samples; a later death under the same key is
    # invisible (by design: new key per epoch).
    first = comm.agree_dead("epoch", range(comm.size))
    if comm.rank == 1:
        try:
            with comm.phase("work"):
                comm.charge_flops(1)
        except HardFault:
            pass
        return None
    while comm.is_alive(1):
        time.sleep(0.005)
    second = comm.agree_dead("epoch", range(comm.size))
    return (tuple(first), tuple(second))


def _staggered_gate(comm):
    time.sleep(0.01 * comm.rank)
    comm.gate("g", range(comm.size))
    return "through"


def _gate_past_the_dead(comm):
    if comm.rank == 1:
        with comm.phase("work"):
            comm.charge_flops(1)  # dies, never registers
        return None
    comm.gate("g", range(comm.size))
    return "through"


def _gate_with_absentee(comm):
    if comm.rank == 0:
        comm.gate("g", range(comm.size), timeout=0.3)
    else:
        time.sleep(1.0)  # never registers, never dies


def _votes_after_gate(comm):
    comm.vote("v", comm.rank % 2 == 0)
    comm.gate("g", range(comm.size))
    return comm.poll_votes("v")


def _poll_missing_key(comm):
    return comm.poll_votes("nope")


def _withdrawn_scoped(comm):
    if comm.rank == 0:
        comm.mark_aborted(3)
        comm.gate("g", range(comm.size))
        return None
    comm.gate("g", range(comm.size))
    return (
        tuple(comm.withdrawn_ranks([0], task=3)),
        tuple(comm.withdrawn_ranks([0], task=4)),
    )


def _recv_abort_check(comm):
    if comm.rank == 0:
        comm.mark_aborted(7)
        comm.gate("g", range(comm.size))
        return None
    comm.gate("g", range(comm.size))
    try:
        comm.recv(0, tag=9, abort_check=7, timeout=2.0)
    except PeerDead:
        return "checked"
    return "received"


def _incarnation_visible(comm):
    if comm.rank == 0:
        try:
            with comm.phase("work"):
                comm.charge_flops(1)
        except HardFault:
            comm.begin_replacement()
        comm.gate("g", range(comm.size))
        return comm.incarnation
    while comm.incarnation_of(0) == 0:
        time.sleep(0.005)
    comm.gate("g", range(comm.size))
    return comm.incarnation_of(0)


def _gate_and_abort_through_sub(comm):
    sub = comm.sub([0, 1])
    if comm.rank == 0:
        sub.mark_aborted(2)
    sub.gate("g", range(sub.size))
    return tuple(sub.withdrawn_ranks([0], task=2))


def _agreement_through_permuted_sub(comm):
    # Local ranks 0, 1, 2 are global ranks 2, 0, 1.  Global 1 (local 2)
    # dies before the gate; global 0 (local 1) withdraws from task 4.
    view = comm.sub([2, 0, 1])
    if comm.rank == 1:
        try:
            with comm.phase("work"):
                comm.charge_flops(1)
        except HardFault:
            return None
    if comm.rank == 0:
        view.mark_aborted(4)
    view.vote("v", view.rank == 1)
    view.gate("g", range(view.size))
    return (
        view.rank,
        view.poll_votes("v"),
        tuple(sorted(view.agree_dead("k", range(view.size)))),
        tuple(sorted(view.dead_ranks())),
        tuple(sorted(view.dead_ranks([2, 1]))),
        tuple(sorted(view.withdrawn_ranks(range(view.size), task=4))),
    )


def _soft_fault_through_sub(comm):
    sub = comm.sub([0])
    with comm.phase("work"):
        return sub.soft_fault_point()


def _hard_fault_at(rank):
    return FaultSchedule([FaultEvent(rank, "work", 0)])


# ------------------------------------------------------------------ cases


class TestAgreeDead:
    backend = "sim"

    def test_consistent_snapshot(self):
        res = Machine(
            3, fault_schedule=_hard_fault_at(2), timeout=10, backend=self.backend
        ).run(_consistent_snapshot, raise_on_error=False)
        assert res.results[0] == res.results[1] == (2,)

    def test_snapshot_is_frozen_at_first_call(self):
        res = Machine(
            2, fault_schedule=_hard_fault_at(1), timeout=10, backend=self.backend
        ).run(_frozen_snapshot)
        assert res.results[0] == ((), ())


class TestAgreeDeadOnProc(TestAgreeDead):
    backend = "proc"


class TestGate:
    backend = "sim"

    def test_gate_releases_when_all_arrive(self):
        res = Machine(4, timeout=10, backend=self.backend).run(_staggered_gate)
        assert res.results == ["through"] * 4

    def test_gate_counts_dead_as_arrived(self):
        res = Machine(
            2, fault_schedule=_hard_fault_at(1), timeout=10, backend=self.backend
        ).run(_gate_past_the_dead, raise_on_error=False)
        assert res.results[0] == "through"

    def test_gate_times_out_on_absentee(self):
        with pytest.raises(MachineError, match="gate"):
            Machine(2, timeout=5, backend=self.backend).run(_gate_with_absentee)


class TestGateOnProc(TestGate):
    backend = "proc"


class TestVotes:
    backend = "sim"

    def test_votes_visible_after_gate(self):
        res = Machine(3, timeout=10, backend=self.backend).run(_votes_after_gate)
        assert res.results[0] == {0: True, 1: False, 2: True}

    def test_missing_key_is_empty(self):
        res = Machine(1, backend=self.backend).run(_poll_missing_key)
        assert res.results[0] == {}


class TestVotesOnProc(TestVotes):
    backend = "proc"


class TestAbortMarkers:
    backend = "sim"

    def test_withdrawn_scoped_to_exact_task(self):
        res = Machine(2, timeout=10, backend=self.backend).run(_withdrawn_scoped)
        assert res.results[1] == ((0,), ())

    def test_recv_abort_check_matches_exact_task(self):
        res = Machine(2, timeout=10, backend=self.backend).run(_recv_abort_check)
        assert res.results[1] == "checked"

    def test_incarnation_of_visible_to_peers(self):
        res = Machine(
            2, fault_schedule=_hard_fault_at(0), timeout=10, backend=self.backend
        ).run(_incarnation_visible)
        assert res.results == [1, 1]


class TestAbortMarkersOnProc(TestAbortMarkers):
    backend = "proc"


class TestSubcommDelegation:
    backend = "sim"

    def test_gate_and_abort_through_subcomm(self):
        res = Machine(2, timeout=10, backend=self.backend).run(
            _gate_and_abort_through_sub
        )
        assert res.results[1] == (0,)

    def test_agreement_through_permuted_subcomm(self):
        res = Machine(
            3, fault_schedule=_hard_fault_at(1), timeout=10, backend=self.backend
        ).run(_agreement_through_permuted_sub)
        # Every rank returned is in the view's numbering: global 1 is
        # local 2, global 0 is local 1, and votes are keyed likewise.
        seen = ({0: False, 1: True}, (2,), (2,), (2,), (1, 2))
        assert res.results[0] == (1, *seen)
        assert res.results[2] == (0, *seen)
        assert res.results[1] is None

    def test_soft_fault_point_through_subcomm(self):
        sched = FaultSchedule([FaultEvent(0, "work", 0, kind="soft")])
        res = Machine(1, fault_schedule=sched, backend=self.backend).run(
            _soft_fault_through_sub
        )
        assert res.results[0] is True


class TestSubcommDelegationOnProc(TestSubcommDelegation):
    backend = "proc"


class TestRecordedAcrossBackends:
    """The schedule recorder sees the same agreement traffic on both
    backends: same results, same recorded ops, same per-rank costs."""

    CASES = (
        (_incarnation_visible, 2, 0),
        (_withdrawn_scoped, 2, None),
        (_votes_after_gate, 3, None),
        (_frozen_snapshot, 2, 1),
    )

    def test_same_results_ops_and_costs(self):
        for program, size, victim in self.CASES:
            runs = {}
            for name in BACKENDS:
                recorder = ScheduleRecorder()
                schedule = None if victim is None else _hard_fault_at(victim)
                res = Machine(
                    size, fault_schedule=schedule, timeout=10, trace=recorder,
                    backend=name,
                ).run(program)
                runs[name] = (
                    res.results,
                    recorder.ops(),
                    [(c.f, c.bw, c.l) for c in res.per_rank],
                )
            assert runs["proc"] == runs["sim"], program.__name__
            assert runs["sim"][1], program.__name__
