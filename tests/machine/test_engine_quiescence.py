"""Virtual-time quiescence: deadlock detection without wall-clock waits.

A wall-clock watchdog detects a wedged receive by *waiting out* the
caller's timeout — a genuine deadlock costs real seconds, and the
per-receive timeout doubles as both a correctness parameter and a latency
knob.  The event engine replaces that with quiescence detection: when
every live rank is parked and no message can arrive, the scheduler picks
the waiter with the smallest ``(timeout, rank)`` key and fails it with a
DeadlockError — in microseconds of wall time, regardless of how large the
timeout is.

The finished-rank fixtures pin the fail-over semantics — a receive from a
rank that returned without sending fails over as PeerDead *promptly* —
and the huge-timeout deadlock tests pin the scheduler's contract: its
detection latency is independent of the timeout value.
"""

from __future__ import annotations

import time

import pytest

from repro.machine.engine import Machine
from repro.machine.errors import DeadlockError, PeerDead

#: Far beyond any test runner's patience: if the scheduler ever waits
#: this out in wall-clock time, the suite hangs and CI flags it.
_HUGE_TIMEOUT = 3600.0


def _run(size, program, *, timeout, raise_on_error=True):
    machine = Machine(size, timeout=timeout)
    return machine.run(program, raise_on_error=raise_on_error)


class TestFinishedRankFailover:
    """A recv from a rank that finished without sending is PeerDead, not
    a timeout."""

    def test_recv_from_finished_rank_is_peer_dead(self):
        def program(comm):
            if comm.rank == 0:
                return None  # finishes without ever sending
            with pytest.raises(PeerDead):
                comm.recv(0)  # fails over promptly, no timeout needed
            return "failed over"

        res = _run(2, program, timeout=30)
        assert res.results[1] == "failed over"

    def test_failover_latency_is_not_the_timeout(self):
        """The failover must be near-instant even with an absurd machine
        timeout — quiescence, not clock-watching."""

        def program(comm):
            if comm.rank == 0:
                return None
            with pytest.raises(PeerDead):
                comm.recv(0)
            return "failed over"

        start = time.monotonic()
        res = _run(2, program, timeout=_HUGE_TIMEOUT)
        elapsed = time.monotonic() - start
        assert res.results[1] == "failed over"
        assert elapsed < 30.0, f"failover took {elapsed:.1f}s wall-clock"


class TestQuiescenceDeadlock:
    def test_genuine_deadlock_detected_without_waiting(self):
        """Two ranks each waiting on the other: the scheduler must
        diagnose the cycle by quiescence — promptly despite an hour-long
        timeout — and raise a DeadlockError naming the missing sender."""

        def program(comm):
            comm.recv(1 - comm.rank)  # nobody ever sends

        start = time.monotonic()
        res = _run(
            2,
            program,
            timeout=_HUGE_TIMEOUT,
            raise_on_error=False,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"deadlock detection took {elapsed:.1f}s"
        assert any(
            isinstance(err, DeadlockError) for err in res.errors.values()
        )
        # The victim is deterministic: smallest (timeout, rank) key.
        assert isinstance(res.errors.get(0), DeadlockError)
        assert "no message from 1" in str(res.errors[0])

    def test_gate_deadlock_detected_by_quiescence(self):
        """A gate that can never complete (one participant already
        returned) must fail by quiescence, with the gate error message,
        not a wall-clock wait."""

        def program(comm):
            if comm.rank == 0:
                return None  # never reaches the gate
            comm.gate(("never", 0), [0, 1])

        start = time.monotonic()
        res = _run(
            2,
            program,
            timeout=_HUGE_TIMEOUT,
            raise_on_error=False,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"gate deadlock took {elapsed:.1f}s"
        err = res.errors.get(1)
        assert isinstance(err, DeadlockError)
        assert "gate" in str(err)

    def test_deadlock_cascade_is_deterministic(self):
        """A chain of waiters (1 waits on 0, 2 waits on 1, ...) collapses
        deterministically: rank 0's deadlock cascades as PeerDead to the
        rest, identically on every run."""

        def program(comm):
            if comm.rank == 0:
                comm.recv(3)  # 3 never sends to 0 -> deadlock victim
            else:
                comm.recv(comm.rank - 1)

        def classes():
            res = _run(
                4,
                program,
                timeout=_HUGE_TIMEOUT,
                raise_on_error=False,
            )
            return {r: type(e).__name__ for r, e in sorted(res.errors.items())}

        first = classes()
        assert first == classes(), "cascade differed between runs"
        assert first[0] == "DeadlockError"
        assert all(first[r] == "PeerDead" for r in (1, 2, 3))
