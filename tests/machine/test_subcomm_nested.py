"""Nested sub-communicator rank translation, re-entry and schedule
recording.

Every case runs on both backends: each test class runs on the class's
``backend``, and its ``...OnProc`` subclass reruns every case on
``proc``.  Rank programs are module-level functions so rank processes can
import them under the ``spawn`` start method.
"""

import time

import pytest

from repro.machine.backends import live_children
from repro.machine.collectives import t_reduce
from repro.machine.engine import Machine
from repro.machine.errors import HardFault, PeerDead
from repro.machine.fault import FaultEvent, FaultSchedule
from repro.machine.record import ScheduleRecorder


@pytest.fixture(autouse=True)
def no_orphans():
    """Every test in this file must reap all its rank processes."""
    yield
    deadline = time.monotonic() + 5.0
    while live_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert live_children() == []


# ---------------------------------------------------------------- programs


def _nested_exchange(comm):
    if comm.rank >= 4:
        return None
    outer = comm.sub([0, 1, 2, 3])
    if comm.rank not in (1, 3):
        return None
    inner = outer.sub([1, 3])  # global ranks 1 and 3
    if inner.rank == 0:
        inner.send(1, "from-global-1")
        return inner.recv(1)
    inner.send(0, "from-global-3")
    return inner.recv(0)


def _doubly_nested(comm):
    if comm.rank not in (0, 2, 4):
        return None
    outer = comm.sub(list(range(comm.size)))
    mid = outer.sub([0, 2, 4])
    if comm.rank not in (0, 4):
        return None
    innermost = mid.sub([0, 2])  # global ranks 0 and 4
    if comm.rank == 4:
        innermost.send(0, comm.rank)
        return None
    if comm.rank == 0:
        return innermost.recv(1)
    return None


def _flattened(comm):
    outer = comm.sub([0, 1])
    if comm.rank != 1:
        return None
    inner = outer.sub([1])  # local rank 1 of outer = global rank 1
    return (
        type(inner) is type(comm)
        and inner.ranks == [1]
        and inner.to_global(0) == 1
    )


def _nested_sub_creation(comm):
    outer = comm.sub([0, 1, 2])
    if comm.rank in (0, 2):
        outer.sub([0, 2])  # local indices into outer -> global 0, 2
    return None


def _send_through_sub(comm):
    group = comm.sub([0, 1])
    if group.rank == 0:
        group.send(1, "x", tag=5)
        return None
    return group.recv(0, tag=5)


def _reenter_through_sub(comm, purge):
    sub = comm.sub([0, 1])
    if comm.rank == 0:
        sub.send(1, "in-flight", tag=5)
        sub.gate("posted", [0, 1])
        return None
    sub.gate("posted", [0, 1])
    try:
        with comm.phase("work"):
            comm.charge_flops(1)
    except HardFault:
        sub.begin_replacement(purge=purge)
    try:
        return sub.recv(0, tag=5), sub.incarnation
    except PeerDead:
        return "purged", sub.incarnation


def _faults_through(comm, route):
    # ``world`` makes every fault point on the world communicator, ``view``
    # on one permuted view, ``mixed`` alternates between the world and two
    # different views: all three must count the same machine ops.
    view = comm.sub([2, 0, 1])
    handles = {
        "world": (comm, comm, comm),
        "view": (view, view, view),
        "mixed": (view, comm.sub([1, 2, 0]), comm),
    }[route]
    with handles[0].phase("work"):
        handles[0].charge_flops(10)  # machine op 0: rank 1's delay
        soft = handles[1].soft_fault_point()  # soft op 0: rank 2's soft fault
        try:
            handles[2].charge_flops(10)  # machine op 1: rank 0's hard fault
        except HardFault as exc:
            return ("hard", exc.rank, exc.phase, exc.op_index)
    return ("ok", soft)


def _three_kinds():
    """Delay on rank 1 at machine op 0, soft fault on rank 2 at soft op 0,
    hard fault on rank 0 at machine op 1, all in phase ``work``."""
    return FaultSchedule(
        [
            FaultEvent(1, "work", 0, kind="delay", factor=4.0),
            FaultEvent(2, "work", 0, kind="soft"),
            FaultEvent(0, "work", 1),
        ]
    )


def _t_reduce_through_permuted_view(comm):
    # Local ranks 0, 1, 2 are global ranks 2, 0, 1; the root is local 0.
    view = comm.sub([2, 0, 1])
    with comm.phase("reduce"):
        return t_reduce(view, {0: view.rank + 1})


# ------------------------------------------------------------------ cases


class TestNestedSub:
    backend = "sim"

    def test_nested_sub_translates_to_global_ranks(self):
        result = Machine(6, timeout=10, backend=self.backend).run(_nested_exchange)
        assert result.ok
        assert result.results[1] == "from-global-3"
        assert result.results[3] == "from-global-1"

    def test_doubly_nested_sub(self):
        result = Machine(6, timeout=10, backend=self.backend).run(_doubly_nested)
        assert result.ok
        assert result.results[0] == 4

    def test_nested_sub_flattens_to_root_parent(self):
        result = Machine(2, timeout=10, backend=self.backend).run(_flattened)
        assert result.ok
        assert result.results[1] is True

    def test_recorder_logs_global_ranks_for_nested_sub(self):
        recorder = ScheduleRecorder()
        result = Machine(
            3, timeout=10, trace=recorder, backend=self.backend
        ).run(_nested_sub_creation)
        assert result.ok
        ops = recorder.ops()
        sub_events = [op for op in ops[0] if op["op"] == "sub"]
        assert [op["ranks"] for op in sub_events] == [[0, 1, 2], [0, 2]]

    def test_recorder_observes_sends_through_sub(self):
        recorder = ScheduleRecorder()
        result = Machine(
            2, timeout=10, trace=recorder, backend=self.backend
        ).run(_send_through_sub)
        assert result.ok
        sends = [op for op in recorder.ops()[0] if op["op"] == "send"]
        recvs = [op for op in recorder.ops()[1] if op["op"] == "recv"]
        # Recorded peers are global ranks, matching the checker's channels.
        assert sends and sends[0]["peer"] == 1 and sends[0]["tag"] == 5
        assert recvs and recvs[0]["peer"] == 0 and recvs[0]["tag"] == 5


class TestNestedSubOnProc(TestNestedSub):
    backend = "proc"


class TestReplacementThroughSub:
    """A rank re-entering through a sub-communicator keeps or drops the
    message a peer posted to it before the fault, as ``purge`` says."""

    backend = "sim"

    def reenter(self, purge):
        sched = FaultSchedule([FaultEvent(1, "work", 0)])
        return Machine(
            2, fault_schedule=sched, timeout=10, backend=self.backend
        ).run(_reenter_through_sub, args=(purge,))

    @pytest.mark.parametrize(
        "purge, received", [(False, "in-flight"), (True, "purged")]
    )
    def test_purge_is_forwarded(self, purge, received):
        result = self.reenter(purge)
        assert result.results[1] == (received, 1)


class TestReplacementThroughSubOnProc(TestReplacementThroughSub):
    backend = "proc"


class TestFaultsThroughView:
    """A hard, a soft and a delay fault reached through a permuted view
    are logged, raised and counted under the global rank, at the same op
    index as on the world communicator."""

    backend = "sim"

    def outcome(self, route):
        sched = _three_kinds()
        res = Machine(
            3, fault_schedule=sched, timeout=10, backend=self.backend
        ).run(_faults_through, args=(route,))
        log = sorted(
            (e.rank, e.phase, e.op_index, e.kind) for e in res.fault_log.entries
        )
        costs = [(c.f, c.bw, c.l) for c in res.per_rank]
        fired = sorted((e.rank, e.op_index, e.kind) for e in sched.fired)
        return res.results, log, costs, fired

    @pytest.mark.parametrize("route", ["view", "mixed"])
    def test_same_faults_as_world(self, route):
        world = self.outcome("world")
        assert world[0] == [("hard", 0, "work", 1), ("ok", False), ("ok", True)]
        assert world[1] == [
            (0, "work", 1, "hard"),
            (1, "work", 0, "delay"),
            (2, "work", 0, "soft"),
        ]
        # The delayed rank pays its factor on both charges.
        assert [f for f, _, _ in world[2]] == [10, 80, 20]
        assert self.outcome(route) == world


class TestFaultsThroughViewOnProc(TestFaultsThroughView):
    backend = "proc"


class TestLiveKillThroughView:
    """``REPRO_PROC_FAULTS=kill``: a rank killed inside ``t_reduce`` over
    a permuted view ships its census and fault-log entry under its global
    rank, so the run matches the simulator's."""

    @staticmethod
    def run(backend):
        # Global rank 1 (local 2) dies at its one transport fault point.
        sched = FaultSchedule([FaultEvent(1, "reduce", 0)])
        res = Machine(3, fault_schedule=sched, timeout=10, backend=backend).run(
            _t_reduce_through_permuted_view, raise_on_error=False
        )
        return res, sched

    def test_census_and_log_carry_global_rank(self, monkeypatch):
        sim, sim_sched = self.run("sim")
        monkeypatch.setenv("REPRO_PROC_FAULTS", "kill")
        proc, proc_sched = self.run("proc")
        assert proc_sched.fired, "the scheduled kill never fired"
        entries = [(e.rank, e.phase, e.op_index, e.kind) for e in proc.fault_log.entries]
        assert entries == [(1, "reduce", 0, "hard")]
        assert isinstance(proc.errors.get(1), HardFault)
        assert proc.errors[1].rank == 1
        # The root (global 2) sums the survivors; the victim's census
        # carries the Lemma 2.5 charge it paid before the kill.
        assert proc.results[2] == sim.results[2] == 1 + 2
        assert [(c.f, c.bw, c.l) for c in proc.per_rank] == [
            (c.f, c.bw, c.l) for c in sim.per_rank
        ]
        assert proc.per_rank[1].bw > 0
        assert proc.fault_log.entries == sim.fault_log.entries
