"""Carrier lifecycle of the simulator's scheduler.

Each rank runs on its own carrier thread, named ``rank-N``, started at
the rank's first dispatch.  These tests pin what happens around the
scheduler rather than inside it: every carrier of a run is gone when
``Machine.run`` returns, however the run ended; a rank that never
reaches a yield point is stopped by the wall-clock backstop within two
``join_grace`` windows and nothing is dispatched after it; a carrier
that cannot be started fails the run instead of hanging it; and a
runaway recursion is an error of its rank, not a crash of the process.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.machine.engine import Machine
from repro.machine.errors import DeadlockError, MachineError
from repro.util.env import join_grace


def _returns(comm, carriers):
    carriers.append(threading.current_thread())
    return comm.rank


def _raises(comm, carriers):
    carriers.append(threading.current_thread())
    if comm.rank % 2:
        raise ValueError(f"rank {comm.rank} gives up")
    comm.gate("g", range(0, comm.size, 2))
    return comm.rank


def _deadlocks(comm, carriers):
    carriers.append(threading.current_thread())
    comm.recv((comm.rank + 1) % comm.size)


def _recurses(comm):
    def deeper(n):
        # Every level passes through a C call, so it uses C stack.
        return sorted([0], key=lambda _: deeper(n + 1))

    return deeper(0)


def _relay(comm, log):
    left, right = (comm.rank - 1) % comm.size, (comm.rank + 1) % comm.size
    for lap in range(3):
        if comm.rank == 0:
            comm.send(right, lap, tag=lap)
            comm.recv(left, tag=lap)
        else:
            comm.send(right, comm.recv(left, tag=lap), tag=lap)
        log.append((comm.rank, lap))
        comm.is_alive(right)
        comm.gate(("lap", lap), range(comm.size))


class TestCarriersEndWithTheRun:
    @pytest.mark.parametrize(
        "program, failed",
        [(_returns, set()), (_raises, {1, 3}), (_deadlocks, {0, 1, 2, 3})],
        ids=["ok", "rank-errors", "quiescence-deadlock"],
    )
    def test_no_carrier_outlives_its_run(self, program, failed):
        before = threading.active_count()
        carriers: list[threading.Thread] = []
        result = Machine(4).run(program, args=(carriers,), raise_on_error=False)
        assert set(result.errors) == failed
        if program is _deadlocks:
            assert isinstance(result.errors[0], DeadlockError)
        assert sorted(t.name for t in carriers) == [f"rank-{r}" for r in range(4)]
        assert not [t.name for t in carriers if t.is_alive()]
        assert threading.active_count() == before


class TestCarrierStack:
    def test_runaway_recursion_is_a_rank_error(self):
        # A carrier has a full-size stack: recursion runs into the
        # interpreter's limit, not off the end of the stack.
        result = Machine(2).run(_recurses, raise_on_error=False)
        assert set(result.errors) == {0, 1}
        assert all(isinstance(e, RecursionError) for e in result.errors.values())


class TestPreemptedHandoffs:
    def test_short_switch_interval_changes_nothing(self):
        """Carriers hand the baton to each other directly.  Preempting the
        interpreter every microsecond must neither lose a wake (the run
        would stop at the backstop) nor change the order ranks run in."""

        def relay() -> list[tuple[int, int]]:
            log: list[tuple[int, int]] = []
            Machine(64, timeout=5.0).run(_relay, args=(log,))
            return log

        expected = relay()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert relay() == expected
        finally:
            sys.setswitchinterval(previous)


class TestBackstop:
    def test_rank_without_a_yield_point_is_stopped(self):
        release = threading.Event()
        dispatched: list[int] = []
        carriers: list[threading.Thread] = []

        def program(comm):
            dispatched.append(comm.rank)
            carriers.append(threading.current_thread())
            if comm.rank == 0:
                while not release.is_set():  # never reaches a yield point
                    pass
            return comm.rank

        machine = Machine(2, timeout=0.25)
        grace = join_grace(machine.timeout)
        start = time.monotonic()
        try:
            with pytest.raises(MachineError, match="rank-0 failed to terminate"):
                machine.run(program)
            elapsed = time.monotonic() - start
            assert grace <= elapsed < 2 * grace
        finally:
            release.set()
        carriers[0].join(timeout=10.0)
        assert not carriers[0].is_alive()
        # Rank 0 finished after the backstop fired: its carrier must not
        # have handed the baton on to rank 1.
        assert dispatched == [0]


class TestCarrierStartFailure:
    def test_failure_surfaces_from_run(self, monkeypatch):
        real_start = threading.Thread.start
        starts: list[threading.Thread] = []

        def flaky_start(thread):
            starts.append(thread)
            if len(starts) == 3:
                raise RuntimeError("can't start new thread")
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", flaky_start)
        carriers: list[threading.Thread] = []
        with pytest.raises(RuntimeError, match="can't start new thread"):
            Machine(4, timeout=0.25).run(_returns, args=(carriers,))
        assert [t.name for t in starts] == ["rank-0", "rank-1", "rank-2"]
        for t in carriers:
            t.join(timeout=10.0)
        assert [t.name for t in carriers] == ["rank-0", "rank-1"]
        assert not [t.name for t in carriers if t.is_alive()]
