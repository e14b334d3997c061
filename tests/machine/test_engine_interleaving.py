"""The simulator's interleaving, pinned directly: which rank resumes when.

Goldens pin products and cost cells, which only *imply* that the
scheduler runs the same ranks in the same order.  This test records the
order itself: every rank appends ``(rank, call)`` to one shared list each
time it comes back from a call that can park — a receive, a gate, a
failure-detector read (which yields the baton) — and in each
``PeerDead``/``DeadlockError``/``HardFault`` handler.  One rank runs at
a time, so the list needs no lock, and its sha256 is a fingerprint of the
whole schedule.

The program mixes every wake source the engine has: a hard fault whose
replacement comes up only after a gate the dead rank counts as arrived
at, detector busy-polls, a rank that finishes early under a receiver, a
withdrawal (``mark_aborted``) under an ``abort_check`` receive, a second
fault without replacement, a vote gate, and a quiescence cascade (the
victim's deadlock makes its finish fail the next waiter over, and so
on).  The hash was blessed on the engine whose main thread popped the
ready queue and whose liveness wakes walked every parked rank; any
scheduler change must reproduce it exactly.
"""

from __future__ import annotations

import hashlib

from repro.machine.engine import Machine
from repro.machine.errors import DeadlockError, HardFault, PeerDead
from repro.machine.fault import FaultEvent, FaultSchedule

P = 8

#: sha256 of ``repr(log)`` for :func:`_program` on :data:`P` ranks.
BLESSED = "8341e77f27d1c70df304c381115bb3a201c94988292b1953eb9ce846d727f44f"


def _program(comm, log):
    r = comm.rank

    def back(call):
        log.append((r, call))

    # Ring: send right, receive from the left.  Rank 3 reads the detector
    # a few times, dies at its receive (its own send has landed), waits at
    # a gate it counts as arrived at, and comes back keeping its mailbox;
    # everyone else watches it go and return through the detector.
    with comm.phase("ring"):
        comm.send((r + 1) % P, r, tag=1)
        if r == 3:
            for _ in range(3):
                comm.dead_ranks()
                back("dead_ranks")
        try:
            comm.recv((r - 1) % P, tag=1)
            back("recv")
        except HardFault:
            back("fault")
            comm.gate("down", range(P))
            back("gate")
            comm.begin_replacement(purge=False)
            comm.recv((r - 1) % P, tag=1)
            back("recv")
        if r != 3:
            while comm.is_alive(3):
                back("is_alive")
            back("is_alive")
            comm.gate("down", range(P))
            back("gate")
            while comm.incarnation_of(3) == 0:
                back("incarnation_of")
            back("incarnation_of")

    # Rank 1 finishes under rank 2's receive.
    if r == 1:
        return "early"
    if r == 2:
        try:
            comm.recv(1, tag=5)
        except PeerDead:
            back("peerdead")

    # Rank 6 withdraws from task 1 under rank 7's abort_check receive,
    # then dies for good in the tail phase.
    if r == 6:
        comm.mark_aborted(1)
        with comm.phase("tail"):
            try:
                comm.charge_flops(1)
            except HardFault:
                back("fault")
                return "dead"
    if r == 7:
        try:
            comm.recv(6, tag=7, abort_check=1)
        except PeerDead:
            back("peerdead")

    # A vote gate over the ranks still running the protocol.
    voters = [q for q in range(P) if q not in (1, 6)]
    comm.vote("v", r % 2 == 0)
    comm.gate("votes", voters)
    back("gate")
    comm.poll_votes("v")
    back("poll_votes")

    # Quiescence cascade: 0 waits on 5, 5 on 0, 4 on 5; nobody sends.
    # Rank 0 has the smallest limit, so it is the deadlock victim; its
    # finish fails 5 over, and 5's finish fails 4 over.
    partner = {0: (5, 1.0), 5: (0, 2.0), 4: (5, 3.0)}.get(r)
    if partner is not None:
        source, limit = partner
        try:
            comm.recv(source, tag=9, timeout=limit)
        except DeadlockError:
            back("deadlock")
        except PeerDead:
            back("peerdead")
    return "done"


def _interleaving() -> tuple[list[tuple[int, str]], list]:
    log: list[tuple[int, str]] = []
    schedule = FaultSchedule(
        [FaultEvent(3, "ring", 1), FaultEvent(6, "tail", 0)]
    )
    machine = Machine(P, fault_schedule=schedule, timeout=3600.0)
    result = machine.run(_program, args=(log,))
    return log, result.results


class TestInterleaving:
    def test_every_wake_source_is_exercised(self):
        log, results = _interleaving()
        calls = {call for _, call in log}
        assert calls == {
            "recv", "fault", "gate", "dead_ranks", "is_alive",
            "incarnation_of", "poll_votes", "peerdead", "deadlock",
        }
        assert (0, "deadlock") in log
        assert (5, "peerdead") in log and (4, "peerdead") in log
        assert results == [
            "done", "early", "done", "done", "done", "done", "dead", "done",
        ]

    def test_same_ranks_in_the_same_order(self):
        log, _ = _interleaving()
        digest = hashlib.sha256(repr(log).encode()).hexdigest()
        assert digest == BLESSED, f"interleaving moved: {log}"

    def test_repeatable(self):
        assert _interleaving() == _interleaving()
