"""The deterministic cooperative event engine (the simulator's scheduler).

Exactly one rank executes at any instant.  Every rank program runs on a
*carrier* — an OS thread used purely as a suspendable call stack, never as
a source of concurrency: a single baton passes from carrier to carrier,
and a carrier gives it up whenever its rank blocks (recv with no matching
message, gate with missing participants), explicitly yields
(failure-detector reads) or finishes.  Between two handoffs no other rank
can run, so every check-then-park in :mod:`repro.machine.comm` is atomic
by construction and the whole schedule is a deterministic function of the
program — no seeds, no wall clock, no OS scheduler influence.

Scheduling contract (docs/MACHINE.md "Scheduler"):

- The ready queue is FIFO, seeded with ranks ``0..P-1`` in order.
- A send wakes the destination iff it is parked on a matching
  ``(source, tag)`` receive; gate arrivals wake exactly the waiters whose
  pending set they empty; death/finish/abort wake every parked rank (in
  ascending rank order) so fail-over re-checks run promptly.
- A woken waiter *re-checks* its condition and re-parks if it is still
  unsatisfied (wake-and-recheck, never wake-and-assume).

Dispatch is direct: the carrier giving up the baton runs
:meth:`EventEngine._dispatch_next` itself and wakes (or first starts) the
next carrier, one thread switch per handoff.  The machine's thread only
makes the first dispatch and then waits for the run to complete.  Each
carrier is started at its rank's first dispatch and runs the program at
once.  Wakes cost what changed: a liveness change walks only the ranks
that are parked and not yet queued.

Hang detection is **virtual-time quiescence**, not wall clock: when the
ready queue is empty but waiters remain, no rank can ever run again, so
the machine is deadlocked *now* regardless of any timeout value.  The
waiter with the smallest ``(timeout, rank)`` key is resumed with a
``deadlock`` verdict and raises the :class:`DeadlockError` a wall-clock
watchdog would have produced — per-receive timeouts survive as
deterministic priorities, not as durations.  The one wall clock left is a
host-level backstop for a rank that never returns control at all (an
infinite loop between yield points): when a whole ``join_grace`` window
passes with no dispatch, the machine's thread raises for the running rank
and nothing is dispatched after that, so the backstop fires within two
windows of the last dispatch.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.machine.errors import MachineError
from repro.util.env import join_grace

if TYPE_CHECKING:
    from repro.machine.comm import _SharedState
    from repro.machine.network import Message

__all__ = ["EventEngine"]

class _Wait:
    """Why a parked rank is parked, and how urgently to sacrifice it.

    ``limit`` is the receive/gate timeout the caller passed — under
    virtual time it is a quiescence *priority* (smaller gives up first,
    matching which watchdog would have fired first on the wall clock),
    never a duration.  ``verdict`` tells the woken fiber whether to
    re-check (True) or to raise its deadlock error (False).
    """

    RECV = "recv"
    GATE = "gate"

    __slots__ = ("kind", "source", "tag", "key", "pending", "limit", "verdict")

    def __init__(
        self,
        kind: str,
        *,
        source: int = -1,
        tag: int = 0,
        key: Any = None,
        pending: set[int] | None = None,
        limit: float = 0.0,
    ):
        self.kind = kind
        self.source = source
        self.tag = tag
        self.key = key
        #: Gate waits only: participants not yet arrived-or-dead at park
        #: time.  Maintained incrementally by arrival hooks so a P-wide
        #: gate costs O(P) total, not O(P^2) re-scans.
        self.pending = pending if pending is not None else set()
        self.limit = limit
        self.verdict = True


class EventEngine:
    """Cooperative scheduler over carrier threads (one runnable rank)."""

    name = "event"

    def __init__(self, state: "_SharedState"):
        self._state = state
        size = state.size
        #: FIFO of runnable ranks, each at most once: a rank is queued
        #: only from ``_parked`` or by its own yield, so a finished rank
        #: never is.  Only the baton holder touches this or any engine
        #: field below, so no lock is needed.
        self._ready: deque[int] = deque()
        #: Rank -> why it is parked, from park until its next dispatch.
        self._waits: dict[int, _Wait] = {}
        #: Ranks in ``_waits`` not yet queued: the ranks a wake can move
        #: to the ready queue, each at most once per park.
        self._parked: set[int] = set()
        #: Gate key -> ranks parked on that gate (wake index).
        self._gate_waiters: dict[Any, set[int]] = {}
        self._batons = [threading.Event() for _ in range(size)]
        self._carriers: list[threading.Thread | None] = [None] * size
        self._runner: Callable[[int], None] | None = None
        #: Set once no rank can run again (or a carrier failed to start).
        self._complete = threading.Event()
        self._start_error: Exception | None = None
        #: Backstop bookkeeping: dispatches so far, the rank dispatched
        #: last, and whether the machine's thread has stopped the run.
        self._dispatches = 0
        self._running = -1
        self._halted = False

    # -- run (machine's thread) --------------------------------------------

    def execute(self, runner: Callable[[int], None]) -> None:
        state = self._state
        state.scheduler = self
        self._runner = runner
        grace = join_grace(state.timeout)
        try:
            self._ready.extend(range(state.size))
            self._dispatch_next()
            self._await_completion(grace)
        finally:
            state.scheduler = None
        if self._start_error is not None:
            raise self._start_error
        for t in self._carriers:
            if t is None:
                continue
            t.join(timeout=grace)
            if t.is_alive():
                raise MachineError(f"{t.name} failed to terminate (deadlock?)")

    def _await_completion(self, grace: float) -> None:
        """Wait for the run to end; stop it if a whole ``grace`` window
        passes with no dispatch (a rank looping between yield points)."""
        seen = self._dispatches
        while not self._complete.wait(timeout=grace):
            if self._dispatches == seen:
                # Halt first, then look again: a dispatch that raced the
                # first look either shows up now (and the run goes on) or
                # sees the halt and wakes nobody.
                self._halted = True
                if self._dispatches == seen:
                    raise MachineError(
                        f"rank-{self._running} failed to terminate (deadlock?)"
                    )
                self._halted = False
            seen = self._dispatches

    # -- dispatch (on the thread giving up the baton) ----------------------

    def _dispatch_next(self) -> None:
        """Hand the baton to the next runnable rank.

        Runs on whichever thread holds the baton: the machine's thread
        for the first dispatch, afterwards the carrier that parks, yields
        or finishes.  Waking the next carrier is its last touch of engine
        state.  With nothing runnable it resolves quiescence, and with
        nothing parked either it completes the run.
        """
        ready, waits = self._ready, self._waits
        if not ready:
            if not waits:
                self._complete.set()
                return
            # Virtual-time quiescence: nothing is runnable and nothing in
            # flight, so these waits can never be satisfied.  Sacrifice
            # the most impatient waiter; its failure cascades
            # deterministically (peers see its finished/alive flags and
            # fail over in turn).
            victim = min(waits, key=lambda r: (waits[r].limit, r))
            waits[victim].verdict = False
            self._enqueue(victim)
        rank = ready.popleft()
        wait = waits.pop(rank, None)
        if wait is not None and wait.kind == _Wait.GATE:
            waiters = self._gate_waiters[wait.key]
            waiters.discard(rank)
            if not waiters:
                del self._gate_waiters[wait.key]
        self._dispatches += 1
        if self._halted:
            return
        self._running = rank
        if self._carriers[rank] is None:
            self._start_carrier(rank)
        else:
            self._batons[rank].set()

    def _start_carrier(self, rank: int) -> None:
        carrier = threading.Thread(
            target=self._carrier, args=(rank,), name=f"rank-{rank}", daemon=True
        )
        self._carriers[rank] = carrier
        try:
            carrier.start()
        except Exception as exc:  # noqa: BLE001 - re-raised by execute
            self._start_error = exc
            self._halted = True
            self._complete.set()

    def _carrier(self, rank: int) -> None:
        assert self._runner is not None
        try:
            self._runner(rank)
        finally:
            # ``runner`` has already published the rank's finished/alive
            # flags (its own finally), so waiters re-checking now observe
            # them: wake them, then pass the baton on for good.
            self.on_liveness_change()
            self._dispatch_next()

    # -- fiber-side blocking (called on the running fiber only) ------------

    def block_recv(self, rank: int, source: int, tag: int, limit: float) -> bool:
        """Park until a matching message *may* be available.

        Returns True to re-check (a wake fired) or False when this rank
        was picked as the quiescence victim and must raise its
        :class:`DeadlockError`.
        """
        return self._block(
            rank, _Wait(_Wait.RECV, source=source, tag=tag, limit=limit)
        )

    def block_gate(
        self, rank: int, key: Any, pending: set[int], limit: float
    ) -> bool:
        """Park until the gate's pending set *may* have emptied."""
        wait = _Wait(_Wait.GATE, key=key, pending=pending, limit=limit)
        self._gate_waiters.setdefault(key, set()).add(rank)
        return self._block(rank, wait)

    def yield_turn(self, rank: int) -> None:
        """Hand the baton around the ready queue once (detector reads).

        Keeps busy-poll loops over ``is_alive``/``poll_votes`` live: the
        polling rank goes to the back of the queue so the ranks it is
        watching get to run and change the observed state.
        """
        self._ready.append(rank)
        self._handoff(rank)

    def _block(self, rank: int, wait: _Wait) -> bool:
        self._waits[rank] = wait
        self._parked.add(rank)
        self._handoff(rank)
        return wait.verdict

    def _handoff(self, rank: int) -> None:
        baton = self._batons[rank]
        # Clear our own baton *before* dispatching: whoever wakes us runs
        # only after the dispatch, so its set can never be lost to the
        # clear — and a dispatch that picks us again returns at once.
        baton.clear()
        self._dispatch_next()
        baton.wait()

    # -- wake hooks (called on the running fiber only) ---------------------

    def on_post(self, msg: "Message") -> None:
        """A message was posted: wake its destination iff it is parked on
        exactly this ``(source, tag)`` match."""
        dest = msg.dest
        if dest not in self._parked:
            return
        wait = self._waits[dest]
        if (
            wait.kind == _Wait.RECV
            and wait.source == msg.source
            and wait.tag == msg.tag
        ):
            self._enqueue(dest)

    def on_gate_arrival(self, key: Any, arriver: int) -> None:
        """``arriver`` registered at ``key``: strike it from every parked
        waiter's pending set, waking those that become complete."""
        waiters = self._gate_waiters.get(key)
        if not waiters:
            return
        for rank in sorted(waiters):
            wait = self._waits[rank]
            wait.pending.discard(arriver)
            if not wait.pending and rank in self._parked:
                self._enqueue(rank)

    def on_liveness_change(self) -> None:
        """A rank died, finished or aborted: every kind of wait can now
        fail over, so wake every parked rank (ascending rank) to
        re-check."""
        parked = self._parked
        if parked:
            self._ready.extend(sorted(parked))
            parked.clear()

    def _enqueue(self, rank: int) -> None:
        self._parked.discard(rank)
        self._ready.append(rank)
