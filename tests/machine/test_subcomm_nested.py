"""Nested sub-communicator rank translation, re-entry and schedule
recording."""

import pytest

from repro.machine.engine import Machine
from repro.machine.errors import HardFault, PeerDead
from repro.machine.fault import FaultEvent, FaultSchedule
from repro.machine.record import ScheduleRecorder


class TestNestedSub:
    def test_nested_sub_translates_to_global_ranks(self):
        def program(comm):
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

        result = Machine(6).run(program)
        assert result.ok
        assert result.results[1] == "from-global-3"
        assert result.results[3] == "from-global-1"

    def test_doubly_nested_sub(self):
        def program(comm):
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

        result = Machine(6).run(program)
        assert result.ok
        assert result.results[0] == 4

    def test_nested_sub_flattens_to_root_parent(self):
        def program(comm):
            outer = comm.sub([0, 1])
            if comm.rank != 1:
                return None
            inner = outer.sub([1])  # local rank 1 of outer = global rank 1
            return inner.parent is comm and inner.ranks == [1]

        result = Machine(2).run(program)
        assert result.ok
        assert result.results[1] is True

    def test_recorder_logs_global_ranks_for_nested_sub(self):
        recorder = ScheduleRecorder()

        def program(comm):
            outer = comm.sub([0, 1, 2])
            if comm.rank in (0, 2):
                outer.sub([0, 2])  # local indices into outer -> global 0, 2
            return None

        result = Machine(3, trace=recorder).run(program)
        assert result.ok
        ops = recorder.ops()
        sub_events = [op for op in ops[0] if op["op"] == "sub"]
        assert [op["ranks"] for op in sub_events] == [[0, 1, 2], [0, 2]]

    def test_recorder_observes_sends_through_sub(self):
        recorder = ScheduleRecorder()

        def program(comm):
            group = comm.sub([0, 1])
            if group.rank == 0:
                group.send(1, "x", tag=5)
                return None
            return group.recv(0, tag=5)

        result = Machine(2, trace=recorder).run(program)
        assert result.ok
        sends = [op for op in recorder.ops()[0] if op["op"] == "send"]
        recvs = [op for op in recorder.ops()[1] if op["op"] == "recv"]
        # Recorded peers are global ranks, matching the checker's channels.
        assert sends and sends[0]["peer"] == 1 and sends[0]["tag"] == 5
        assert recvs and recvs[0]["peer"] == 0 and recvs[0]["tag"] == 5


class TestReplacementThroughSub:
    """A rank re-entering through a sub-communicator keeps or drops the
    message a peer posted to it before the fault, as ``purge`` says."""

    @staticmethod
    def reenter(purge):
        def program(comm):
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

        sched = FaultSchedule([FaultEvent(1, "work", 0)])
        return Machine(2, fault_schedule=sched, timeout=10).run(program)

    @pytest.mark.parametrize(
        "purge, received", [(False, "in-flight"), (True, "purged")]
    )
    def test_purge_is_forwarded(self, purge, received):
        result = self.reenter(purge)
        assert result.results[1] == (received, 1)

