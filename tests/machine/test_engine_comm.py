"""Tests for the SPMD engine, communicator, and fault semantics."""

import pytest

from repro.machine.costs import Counts
from repro.machine.engine import Machine
from repro.machine.errors import (
    CommError,
    DeadlockError,
    HardFault,
    MachineError,
    PeerDead,
)
from repro.machine.fault import FaultEvent, FaultSchedule


def run(size, program, **kw):
    machine_kw = {
        k: kw.pop(k)
        for k in ("memory_words", "word_bits", "fault_schedule", "timeout")
        if k in kw
    }
    return Machine(size, **machine_kw).run(program, **kw)


class TestBasicSPMD:
    def test_results_per_rank(self):
        res = run(4, lambda comm: comm.rank * 10)
        assert res.results == [0, 10, 20, 30]
        assert res.ok

    def test_shared_args(self):
        res = run(2, lambda comm, x: comm.rank + x, args=(100,))
        assert res.results == [100, 101]

    def test_rank_args(self):
        res = run(3, lambda comm, x: x * 2, rank_args=[(1,), (2,), (3,)])
        assert res.results == [2, 4, 6]

    def test_rank_args_length_checked(self):
        with pytest.raises(ValueError):
            run(3, lambda comm, x: x, rank_args=[(1,)])

    def test_bad_machine_params(self):
        with pytest.raises(ValueError):
            Machine(0)
        with pytest.raises(ValueError):
            Machine(2, word_bits=0)


class TestPointToPoint:
    def test_ping_pong(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, "ping")
                return comm.recv(1)
            comm.recv(0)
            comm.send(0, "pong")
            return None

        assert run(2, program).results[0] == "pong"

    def test_tags_distinguish_messages(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, "a", tag=1)
                comm.send(1, "b", tag=2)
                return None
            second = comm.recv(0, tag=2)
            first = comm.recv(0, tag=1)
            return (first, second)

        assert run(2, program).results[1] == ("a", "b")

    def test_fifo_per_source_tag(self):
        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(1, i)
                return None
            return [comm.recv(0) for _ in range(5)]

        assert run(2, program).results[1] == [0, 1, 2, 3, 4]

    def test_self_send_rejected(self):
        with pytest.raises(MachineError):
            run(1, lambda comm: comm.send(0, "x"))

    def test_recv_timeout_is_deadlock(self):
        def program(comm):
            if comm.rank == 0:
                # Stay busy (blocked on our own recv) so rank 1 hits a
                # genuine timeout, not the finished-peer fast path.
                try:
                    comm.recv(1, timeout=0.4)
                except MachineError:
                    return None
            else:
                return comm.recv(0, timeout=0.1)

        with pytest.raises(MachineError, match="no message"):
            run(2, program, timeout=0.5)

    def test_recv_from_finished_rank_is_peer_dead(self):
        def program(comm):
            if comm.rank == 0:
                return None  # finishes without ever sending
            with pytest.raises(PeerDead):
                comm.recv(0)  # fails over promptly, no timeout needed
            return "failed over"

        assert run(2, program, timeout=30).results[1] == "failed over"

    def test_finished_ranks_last_send_still_received(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, "parting gift")
                return None
            return comm.recv(0)

        assert run(2, program).results[1] == "parting gift"

    def test_sendrecv_exchange(self):
        def program(comm):
            other = 1 - comm.rank
            return comm.sendrecv(other, comm.rank, other)

        assert run(2, program).results == [1, 0]


class TestCostAccounting:
    def test_flops_counted(self):
        res = run(2, lambda comm: comm.charge_flops(50))
        assert res.critical_path.f == 50
        assert res.per_rank == [Counts(f=50), Counts(f=50)]

    def test_message_words_counted_both_ends(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, [1, 2, 3, 4])  # 4 words
            else:
                comm.recv(0)

        res = run(2, program)
        # Sender charges 4 words + 1 msg; receiver merges then charges too:
        # the receiver's clock is the critical path: bw=8, l=2.
        assert res.per_rank[0] == Counts(bw=4, l=1)
        assert res.per_rank[1] == Counts(bw=8, l=2)
        assert res.critical_path == Counts(bw=8, l=2)

    def test_explicit_words_override(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, "huge-object", words=1000)
            else:
                comm.recv(0)

        assert run(2, program).per_rank[0].bw == 1000

    def test_relay_chain_latency(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, 1)
            elif comm.rank < comm.size - 1:
                comm.send(comm.rank + 1, comm.recv(comm.rank - 1))
            else:
                comm.recv(comm.rank - 1)

        res = run(4, program)
        # 3 hops, each counted at both endpoints along the chain:
        # rank3's clock sees l = 2*3 = 6.
        assert res.critical_path.l == 6

    def test_independent_work_does_not_inflate_critical_path(self):
        def program(comm):
            comm.charge_flops(10 if comm.rank == 0 else 7)

        res = run(2, program)
        assert res.critical_path.f == 10

    def test_phase_ledger_rollup(self):
        def program(comm):
            with comm.phase("evaluation"):
                comm.charge_flops(5)
            with comm.phase("multiplication"):
                comm.charge_flops(100 if comm.rank == 1 else 1)

        res = run(2, program)
        assert res.phase_costs["evaluation"].f == 5
        assert res.phase_costs["multiplication"].f == 100

    def test_runtime_model(self):
        from repro.machine.costs import CostModel

        res = run(1, lambda comm: comm.charge_flops(10))
        assert res.runtime(CostModel(gamma=2.0)) == 20.0


class TestMemoryIntegration:
    def test_memory_visible_and_enforced(self):
        def program(comm):
            comm.memory.allocate("buf", 100)

        with pytest.raises(MachineError):
            run(1, program, memory_words=50)
        res = run(1, program, memory_words=200)
        assert res.peak_memory == [100]

    def test_max_peak_memory(self):
        def program(comm):
            comm.memory.allocate("buf", 10 * (comm.rank + 1))

        assert run(3, program).max_peak_memory() == 30


class TestErrors:
    def test_rank_exception_raises_by_default(self):
        def program(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")

        with pytest.raises(MachineError, match="boom"):
            run(2, program)

    def test_all_failed_ranks_reported(self):
        # Regression: the error used to name only the first failed rank.
        def program(comm):
            if comm.rank in (1, 3):
                raise RuntimeError(f"boom-{comm.rank}")

        with pytest.raises(MachineError, match="2 rank\\(s\\) failed") as exc_info:
            run(4, program)
        message = str(exc_info.value)
        assert "rank 1" in message and "boom-1" in message
        assert "rank 3" in message and "boom-3" in message

    def test_single_hard_fault_reraised_verbatim(self):
        def program(comm):
            with comm.phase("work"):
                comm.charge_flops(1)

        sched = FaultSchedule([FaultEvent(rank=0, phase="work", op_index=0)])
        with pytest.raises(HardFault):
            run(1, program, fault_schedule=sched)

    def test_rank_exception_collected_when_asked(self):
        def program(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            return "fine"

        res = run(2, program, raise_on_error=False)
        assert not res.ok
        assert res.results[0] == "fine"
        assert isinstance(res.errors[1], RuntimeError)


class TestFaults:
    def one_fault(self, phase="work", op_index=0):
        return FaultSchedule([FaultEvent(rank=1, phase=phase, op_index=op_index)])

    def test_unhandled_fault_surfaces(self):
        def program(comm):
            with comm.phase("work"):
                comm.charge_flops(1)
                comm.charge_flops(1)

        with pytest.raises(HardFault):
            run(2, program, fault_schedule=self.one_fault())

    def test_fault_wipes_memory_and_heap(self):
        observed = {}

        def program(comm):
            comm.memory.allocate("data", 10)
            comm.heap["data"] = [1, 2, 3]
            try:
                with comm.phase("work"):
                    comm.charge_flops(1)
            except HardFault:
                observed["mem"] = comm.memory.in_use
                observed["heap"] = dict(comm.heap)
                comm.begin_replacement()
            return "done"

        res = run(2, program, fault_schedule=self.one_fault())
        assert res.results == ["done", "done"]
        assert observed == {"mem": 0, "heap": {}}
        assert len(res.fault_log) == 1
        assert res.fault_log.entries[0].rank == 1

    def test_replacement_gets_new_incarnation(self):
        incs = {}

        def program(comm):
            try:
                with comm.phase("work"):
                    comm.charge_flops(1)
            except HardFault:
                incs["after"] = comm.begin_replacement()
            return comm.incarnation

        res = run(2, program, fault_schedule=self.one_fault())
        assert incs["after"] == 1
        assert res.results == [0, 1]

    def test_begin_replacement_while_alive_rejected(self):
        def program(comm):
            comm.begin_replacement()

        with pytest.raises(MachineError):
            run(1, program)

    def test_detector_sees_death(self):
        def program(comm):
            if comm.rank == 1:
                with comm.phase("work"):
                    comm.charge_flops(1)  # dies here
                return None
            # rank 0 polls the detector until rank 1 dies.
            import time

            deadline = time.monotonic() + 5
            while comm.is_alive(1):
                if time.monotonic() > deadline:  # pragma: no cover
                    raise AssertionError("detector never fired")
                time.sleep(0.01)
            return comm.dead_ranks()

        res = run(2, program, fault_schedule=self.one_fault(), raise_on_error=False)
        assert res.results[0] == {1}
        assert isinstance(res.errors[1], HardFault)

    def test_recv_from_dead_rank_raises_peer_dead(self):
        def program(comm):
            if comm.rank == 1:
                with comm.phase("work"):
                    comm.charge_flops(1)
                return None
            with pytest.raises(PeerDead):
                comm.recv(1, timeout=5.0)
            return "detected"

        res = run(2, program, fault_schedule=self.one_fault(), raise_on_error=False)
        assert res.results[0] == "detected"

    def test_message_sent_before_death_still_delivered(self):
        def program(comm):
            if comm.rank == 1:
                comm.send(0, "last words")
                with comm.phase("work"):
                    comm.charge_flops(1)
                return None
            return comm.recv(1)

        res = run(2, program, fault_schedule=self.one_fault(), raise_on_error=False)
        assert res.results[0] == "last words"

    def test_mailbox_purged_on_replacement(self):
        def program(comm):
            if comm.rank == 0:
                # Stale message racing the fault: must NOT be seen by the
                # replacement (its mailbox is purged at begin_replacement).
                comm.send(1, "stale", tag=9)
                comm.send(1, "fresh", tag=9)
                return None
            try:
                with comm.phase("work"):
                    comm.recv(0, tag=9)  # consumes "stale", then dies...
            except HardFault:
                comm.begin_replacement()
                with pytest.raises((DeadlockError, PeerDead)):
                    comm.recv(0, tag=9, timeout=0.3)
                return "purged"

        # Fault at op_index 1: the recv is op 0... set op 0 so the rank dies
        # on entering the recv, before consuming anything.
        sched = FaultSchedule([FaultEvent(rank=1, phase="work", op_index=0)])
        res = run(2, program, fault_schedule=sched, raise_on_error=False)
        assert res.results[1] == "purged"


class TestSubCommunicator:
    def test_translated_ranks(self):
        def program(comm):
            if comm.rank in (1, 3):
                sub = comm.sub([1, 3])
                if sub.rank == 0:
                    sub.send(1, "hello")
                    return sub.to_global(1)
                return sub.recv(0)

        res = run(4, program)
        assert res.results[1] == 3
        assert res.results[3] == "hello"

    def test_membership_required(self):
        def program(comm):
            if comm.rank == 0:
                comm.sub([1, 2])

        with pytest.raises(MachineError):
            run(3, program)

    def test_duplicate_ranks_rejected(self):
        def program(comm):
            comm.sub([0, 0])

        with pytest.raises(MachineError):
            run(1, program)

    def test_nested_sub(self):
        def program(comm):
            if comm.rank in (0, 2, 4):
                sub = comm.sub([0, 2, 4])
                if sub.rank in (0, 2):
                    inner = sub.sub([0, 2])
                    return inner.ranks  # global ranks preserved
            return None

        res = run(5, program)
        assert res.results[0] == [0, 4]
        assert res.results[4] == [0, 4]

    def test_sub_alive_and_dead_ranks(self):
        def program(comm):
            sub = comm.sub([0, 1])
            if comm.rank == 1:
                with comm.phase("work"):
                    comm.charge_flops(1)
                return None
            import time

            deadline = time.monotonic() + 5
            while sub.is_alive(1):
                time.sleep(0.01)
                assert time.monotonic() < deadline
            return sub.dead_ranks()

        sched = FaultSchedule([FaultEvent(rank=1, phase="work", op_index=0)])
        res = run(2, program, fault_schedule=sched, raise_on_error=False)
        assert res.results[0] == {1}


#: Every Communicator method that takes a rank, called with rank ``r``.
RANK_TAKING = {
    "is_alive": lambda c, r: c.is_alive(r),
    "incarnation_of": lambda c, r: c.incarnation_of(r),
    "aborted_at": lambda c, r: c.aborted_at(r),
    "dead_ranks": lambda c, r: c.dead_ranks([r]),
    "withdrawn_ranks": lambda c, r: c.withdrawn_ranks([r], 0),
    "agree_dead": lambda c, r: c.agree_dead("k", [r]),
    "gate": lambda c, r: c.gate("g", [r]),
    "send": lambda c, r: c.send(r, "x"),
    "recv": lambda c, r: c.recv(r),
    "recv_raw": lambda c, r: c.recv_raw(r),
    "sendrecv-dest": lambda c, r: c.sendrecv(r, "x", 1),
    "sendrecv-source": lambda c, r: c.sendrecv(1, "x", r),
    "sub": lambda c, r: c.sub([c.rank, r]),
}


class TestRankRange:
    """A rank outside ``[0, size)`` raises CommError at the method
    boundary, on the world communicator and on a view alike: ``-1`` never
    aliases the last rank and ``size`` never reaches past the group."""

    @staticmethod
    def program(comm, method, on_view, bad):
        if comm.rank != 0:
            return None
        target = comm.sub([1, 0]) if on_view else comm
        rank = -1 if bad == "-1" else target.size
        try:
            RANK_TAKING[method](target, rank)
        except CommError:
            return "CommError"
        return "accepted"

    @pytest.mark.parametrize("bad", ["-1", "size"])
    @pytest.mark.parametrize("on_view", [False, True], ids=["world", "view"])
    @pytest.mark.parametrize("method", sorted(RANK_TAKING))
    def test_out_of_range_rank_raises_comm_error(self, method, on_view, bad):
        res = run(3, self.program, args=(method, on_view, bad), timeout=5)
        assert res.results[0] == "CommError"
