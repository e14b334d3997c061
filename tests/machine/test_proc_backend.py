"""The process backend's mechanics: wire framing, port selection,
fault-free parity with the simulator, the watchdog, the finished-rank
fast path, and orphan-free teardown.

Conformance of the eight algorithm variants (bit-identical products and
byte-identical communication graphs across backends) lives in
``test_backend_conformance.py``; this file covers the machinery those
gates stand on.

Every program handed to the proc backend is a module-level function:
rank processes import it by qualified name under the ``spawn`` start
method.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.machine.backends import live_children
from repro.machine.backends import wire
from repro.machine.backends.rankproc import RankWaiter
from repro.machine.costs import Counts
from repro.machine.engine import Machine
from repro.machine.errors import DeadlockError, MachineError, PeerDead
from repro.machine.network import Message, Router

pytestmark = pytest.mark.usefixtures("no_orphans")


@pytest.fixture
def no_orphans():
    """Every test in this file must reap all its rank processes."""
    yield
    deadline = time.monotonic() + 5.0
    while live_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert live_children() == []


# ---------------------------------------------------------------- programs


def _ring_exchange(comm, base):
    """Each rank sends to its right neighbour and doubles what it got."""
    with comm.phase("exchange"):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.charge_flops(comm.rank + 1)
        comm.send(right, base + comm.rank, tag=31)
        value = comm.recv(left, tag=31)
    return value * 2


def _finish_then_receive(comm):
    """Satellite: a rank that finishes (and whose process exits) right
    after its final send must not hang or corrupt the peer's receive."""
    if comm.rank == 1:
        comm.send(0, ("final", comm.rank), tag=21)
        return "sent"  # process exits here; EOF reaches the coordinator
    # Give rank 1 ample time to exit so the drain actually races death.
    time.sleep(0.5)
    first = comm.recv(1, tag=21)  # must drain the delivered message
    try:
        comm.recv(1, tag=21)  # nothing further can arrive
    except PeerDead:
        return ("drained", first)
    return "second-receive-returned"


def _freeze_victim(comm):
    """Rank 0 SIGSTOPs rank 1; the heartbeat watchdog must convert the
    frozen process into a PeerDead, not a deadlock timeout."""
    if comm.rank == 1:
        comm.send(0, os.getpid(), tag=7)
        try:
            comm.recv(0, tag=8)  # never sent; frozen long before timeout
        except PeerDead:
            pass
        return None
    pid = comm.recv(1, tag=7)
    os.kill(pid, signal.SIGSTOP)
    try:
        comm.recv(1, tag=9)  # rank 1 never sends tag 9
    except PeerDead:
        return "watchdog-detected"
    return "unexpected-message"


def _all_to_all(comm):
    """Every rank sends to every other rank before receiving anything, so
    the first rank the coordinator releases floods its peers at once."""
    for dest in range(comm.size):
        if dest != comm.rank:
            comm.send(dest, comm.rank, tag=41)
    return [comm.recv(src, tag=41) for src in range(comm.size) if src != comm.rank]


def _ping_pong(comm, rounds):
    """Rank 0 sends a counter, rank 1 sends it back incremented."""
    peer = 1 - comm.rank
    value = 0
    for _ in range(rounds):
        if comm.rank == 0:
            comm.send(peer, value, tag=3)
            value = comm.recv(peer, tag=3)
        else:
            value = comm.recv(peer, tag=3) + 1
            comm.send(peer, value, tag=3)
    return value


def _short_and_long_waits(comm):
    """Neither rank ever sends: rank 1's 1 s receive gives up first, and
    its death must release rank 0 long before rank 0's own 60 s limit."""
    if comm.rank == 1:
        return comm.recv(0, tag=5, timeout=1.0)
    return comm.recv(1, tag=9, timeout=60.0)


def _second_receive_wait(comm):
    """Rank 1's first receive parks ~0.6 s before it matches; its second
    never matches and must still get its whole 1 s limit."""
    if comm.rank == 0:
        time.sleep(0.6)
        comm.send(1, "first", tag=4)
        try:
            comm.recv(1, tag=9, timeout=60.0)
        except PeerDead:
            return "released"
        return "unexpected-message"
    first = comm.recv(0, tag=4, timeout=1.0)
    started = time.monotonic()
    try:
        comm.recv(0, tag=5, timeout=1.0)
    except DeadlockError:
        return first, time.monotonic() - started
    return "unexpected-message"


def _exit_uncleanly(comm):
    """Rank 1 dies without RESULT/FIN: a real unexpected termination."""
    if comm.rank == 1:
        os._exit(3)
    try:
        comm.recv(1, tag=5)
    except PeerDead:
        return "peer-dead"
    return "unexpected-message"


# -------------------------------------------------------------------- wire


class TestWire:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            # One frame in flight at a time: a large unread frame would
            # fill the socketpair buffer and block the sender.
            for payload in (None, 42, "text", {"k": (1, 2)}, b"x" * 65536):
                wire.send_frame(a, wire.DATA, payload)
                kind, got = wire.recv_frame(b)
                assert kind == wire.DATA
                assert got == payload
        finally:
            a.close()
            b.close()

    def test_eof_on_closed_peer(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                wire.recv_frame(b)
        finally:
            b.close()

    def test_partial_header_is_loud(self):
        # Truncation mid-frame is a WireError, not a clean close —
        # tests/machine/test_wire.py covers the full fuzz matrix.
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00")  # half a length prefix, then EOF
            a.close()
            with pytest.raises(wire.WireError):
                wire.recv_frame(b)
        finally:
            b.close()


class TestPortRange:
    def test_range_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PORT_RANGE", "49500-49510")
        first = wire.bind_listener(4)
        try:
            second = wire.bind_listener(4)
        except OSError:
            first.close()
            raise
        try:
            ports = {s.getsockname()[1] for s in (first, second)}
            assert len(ports) == 2
            assert all(49500 <= p <= 49510 for p in ports)
        finally:
            first.close()
            second.close()

    def test_exhausted_range_raises(self, monkeypatch):
        # Hold a kernel-assigned port, then offer only that one: a fixed
        # port could already be taken by someone else's ephemeral bind.
        monkeypatch.delenv("REPRO_PORT_RANGE", raising=False)
        only = wire.bind_listener(4)
        try:
            port = only.getsockname()[1]
            monkeypatch.setenv("REPRO_PORT_RANGE", f"{port}-{port}")
            with pytest.raises(OSError, match="REPRO_PORT_RANGE"):
                wire.bind_listener(4)
        finally:
            only.close()

    def test_unset_means_ephemeral(self, monkeypatch):
        monkeypatch.delenv("REPRO_PORT_RANGE", raising=False)
        listener = wire.bind_listener(4)
        try:
            assert listener.getsockname()[1] > 0
        finally:
            listener.close()


# ------------------------------------------------------------------ parity


class TestFaultFreeParity:
    def test_ring_exchange_matches_simulator(self):
        runs = {}
        for name in ("sim", "proc"):
            machine = Machine(3, timeout=30.0, backend=name)
            runs[name] = machine.run(_ring_exchange, args=(100,))
        sim, proc = runs["sim"], runs["proc"]
        assert proc.results == sim.results
        assert proc.per_rank == sim.per_rank
        assert proc.critical_path == sim.critical_path
        assert proc.phase_costs == sim.phase_costs
        assert proc.peak_memory == sim.peak_memory


class TestRankWaiter:
    """Receives park on the rank process's one waiter: every wake must
    reach the program thread, and every receive gets its own limit."""

    def test_ping_pong_matches_simulator(self):
        runs = {}
        for name in ("sim", "proc"):
            machine = Machine(2, timeout=5.0, backend=name)
            started = time.monotonic()
            runs[name] = res = machine.run(_ping_pong, args=(200,))
            # A wake lost between a failed take and the park stalls that
            # receive for its whole limit.
            assert time.monotonic() - started < machine.timeout, name
            assert res.results == [200, 200]
            assert [str(c) for c in res.per_rank] == [
                "F=0 BW=800 L=800",
                "F=0 BW=799 L=799",
            ]
        assert runs["proc"].per_rank == runs["sim"].per_rank

    def test_wake_before_park_is_not_lost(self):
        # The delivery lands after the failed take but before the park:
        # the park must return at once, not wait out its 60 s limit.
        waiter = RankWaiter()
        waiter.begin()
        waiter.wake()
        started = time.monotonic()
        assert waiter.block_recv(0, 1, 0, 60.0)
        assert time.monotonic() - started < 5.0

    def test_handoffs_under_thread_switching_lose_no_wake(self):
        # One thread posts and wakes the way the receiver thread does,
        # each post racing the consumer's take-then-park; a tiny switch
        # interval lands wakes inside that window.  A lost wake stalls a
        # park for its whole limit.
        router, waiter, turn = Router(2), RankWaiter(), threading.Semaphore(0)
        handoffs, limit = 2000, 10.0

        def produce():
            for i in range(handoffs):
                turn.acquire()
                router.post(Message(1, 0, 0, i, 1, Counts(), 0))
                waiter.wake()

        producer = threading.Thread(target=produce)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        started = time.monotonic()
        try:
            producer.start()
            got = []
            for _ in range(handoffs):
                waiter.begin()
                turn.release()
                msg = router.take(0, 1, 0)
                while msg is None:
                    assert waiter.block_recv(0, 1, 0, limit)
                    msg = router.take(0, 1, 0)
                got.append(msg.payload)
        finally:
            sys.setswitchinterval(interval)
            turn.release(handoffs)
            producer.join(timeout=limit)
        assert not producer.is_alive()
        assert got == list(range(handoffs))
        assert time.monotonic() - started < limit

    def test_short_receive_limit_releases_long_waiter(self):
        for name in ("sim", "proc"):
            started = time.monotonic()
            res = Machine(2, timeout=5.0, backend=name).run(
                _short_and_long_waits, raise_on_error=False
            )
            elapsed = time.monotonic() - started
            assert sorted(res.errors) == [0, 1], name
            assert isinstance(res.errors[1], DeadlockError), name
            assert str(res.errors[1]) == "rank 1: no message from 0 tag 5 after 1.0s"
            assert isinstance(res.errors[0], PeerDead), name
            assert res.errors[0].peer == 1
            # Rank 0 failed over on rank 1's death, not on its own limit.
            assert elapsed < 30.0, name

    def test_limit_restarts_for_each_receive(self):
        res = Machine(2, timeout=5.0, backend="proc").run(_second_receive_wait)
        assert res.results[0] == "released"
        first, waited = res.results[1]
        assert first == "first"
        assert waited >= 0.95


# ------------------------------------------------------------------ guards


class TestStartup:
    def test_no_frame_reaches_a_rank_before_its_go(self):
        """Regression: the coordinator wrote GO one rank at a time, so a
        rank released early could have its DATA forwarded to a peer still
        waiting for GO, whose handshake then failed with "expected GO from
        coordinator, got 'deliver'".  Repeated because the race is timing
        dependent."""
        size = 9
        expected = [[s for s in range(size) if s != r] for r in range(size)]
        for attempt in range(20):
            res = Machine(size, timeout=20.0, backend="proc").run(_all_to_all)
            assert res.results == expected, f"attempt {attempt}"


class TestGuards:
    def test_tracer_rejected(self):
        machine = Machine(2, timeout=5.0, trace=True, backend="proc")
        with pytest.raises(MachineError, match="tracing"):
            machine.run(_ring_exchange, args=(0,))

    def test_unpicklable_program_rejected(self):
        machine = Machine(2, timeout=5.0, backend="proc")
        with pytest.raises(MachineError, match="picklable"):
            machine.run(lambda comm: None)


# ------------------------------------------------- death and the watchdog


class TestDeathPipeline:
    def test_finished_rank_drain_then_fast_peer_dead(self):
        machine = Machine(2, timeout=30.0, backend="proc")
        started = time.monotonic()
        res = machine.run(_finish_then_receive)
        elapsed = time.monotonic() - started
        assert res.results[0] == ("drained", ("final", 1))
        assert res.results[1] == "sent"
        # The second receive failed over via the finished flag — it did
        # not wait out the 30s per-receive deadline.
        assert elapsed < 20.0

    def test_unclean_exit_surfaces_as_peer_dead(self):
        machine = Machine(2, timeout=30.0, backend="proc")
        res = machine.run(_exit_uncleanly, raise_on_error=False)
        assert res.results[0] == "peer-dead"
        assert isinstance(res.errors[1], MachineError)
        assert "terminated unexpectedly" in str(res.errors[1])

    def test_heartbeat_watchdog_kills_frozen_rank(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.05")
        machine = Machine(2, timeout=60.0, backend="proc")
        res = machine.run(_freeze_victim, raise_on_error=False)
        assert res.results[0] == "watchdog-detected"
        assert isinstance(res.errors[1], MachineError)


# ---------------------------------------------------------------- teardown


class TestTeardown:
    def test_keyboard_interrupt_reaps_children(self, monkeypatch):
        from repro.machine.backends.proc import ProcBackend

        def interrupt(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(ProcBackend, "_await_connections", interrupt)
        machine = Machine(2, timeout=0.5, backend="proc")
        with pytest.raises(KeyboardInterrupt):
            machine.run(_ring_exchange, args=(0,))
        # The no_orphans fixture asserts live_children() drains to [].

    def test_failed_run_reaps_children(self):
        machine = Machine(2, timeout=30.0, backend="proc")
        res = machine.run(_exit_uncleanly, raise_on_error=False)
        assert res.errors
        assert live_children() == []
