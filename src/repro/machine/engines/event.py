"""The deterministic cooperative event engine (the simulator's scheduler).

Exactly one rank executes at any instant.  Every rank program runs on a
*carrier* — an OS thread used purely as a suspendable call stack, never as
a source of concurrency: the scheduler holds a single baton, hands it to
one carrier at a time, and a carrier gives it back whenever its rank
blocks (recv with no matching message, gate with missing participants) or
explicitly yields (failure-detector reads).  Between two handoffs no other
rank can run, so every check-then-park in :mod:`repro.machine.comm` is
atomic by construction and the whole schedule is a deterministic function
of the program — no seeds, no wall clock, no OS scheduler influence.

Scheduling contract (docs/MACHINE.md "Scheduler"):

- The ready queue is FIFO, seeded with ranks ``0..P-1`` in order.
- A send wakes the destination iff it is parked on a matching
  ``(source, tag)`` receive; gate arrivals wake exactly the waiters whose
  pending set they empty; death/finish/abort wake every waiter (in
  ascending rank order) so fail-over re-checks run promptly.
- A woken waiter *re-checks* its condition and re-parks if it is still
  unsatisfied (wake-and-recheck, never wake-and-assume).

Hang detection is **virtual-time quiescence**, not wall clock: when the
ready queue is empty but waiters remain, no rank can ever run again, so
the machine is deadlocked *now* regardless of any timeout value.  The
waiter with the smallest ``(timeout, rank)`` key is resumed with a
``deadlock`` verdict and raises the :class:`DeadlockError` a wall-clock
watchdog would have produced — per-receive timeouts survive as
deterministic priorities, not as durations.  The one wall clock left is a
host-level backstop for a rank that never returns control at all (an
infinite loop between yield points), bounded by the same ``join_grace``
the process backend's reaper uses.
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

#: Stack reservation per carrier thread.  Rank programs are ordinary
#: Python functions whose frames live on the heap; 512 KiB of C stack is
#: ample for the interpreter and keeps 4096 carriers near 2 GiB of
#: *virtual* address space (resident usage stays in the tens of MiB).
_CARRIER_STACK_BYTES = 512 * 1024


class _Wait:
    """Why a parked rank is parked, and how urgently to sacrifice it.

    ``limit`` is the receive/gate timeout the caller passed — under
    virtual time it is a quiescence *priority* (smaller gives up first,
    matching which watchdog would have fired first on the wall clock),
    never a duration.  ``queued`` latches once the rank has been appended
    to the ready queue so multiple wake sources cannot double-enqueue it;
    ``verdict`` tells the woken fiber whether to re-check (True) or to
    raise its deadlock error (False).
    """

    RECV = "recv"
    GATE = "gate"

    __slots__ = ("kind", "source", "tag", "key", "pending", "limit", "queued", "verdict")

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
        self.queued = False
        self.verdict = True


class EventEngine:
    """Cooperative scheduler over carrier threads (one runnable rank)."""

    name = "event"

    def __init__(self, state: "_SharedState"):
        self._state = state
        size = state.size
        #: FIFO of runnable ranks.  Only the running fiber or the
        #: scheduler mutates it, and never both at once (single baton),
        #: so no lock is needed.
        self._ready: deque[int] = deque()
        self._waits: dict[int, _Wait] = {}
        #: Gate key -> ranks parked on that gate (wake index).
        self._gate_waiters: dict[Any, set[int]] = {}
        self._batons = [threading.Event() for _ in range(size)]
        self._resume = threading.Event()
        self._done = [False] * size

    # -- run loop (machine's thread) ---------------------------------------

    def execute(self, runner: Callable[[int], None]) -> None:
        state = self._state
        size = state.size
        state.scheduler = self
        previous_stack: int | None
        try:
            previous_stack = threading.stack_size(_CARRIER_STACK_BYTES)
        except (ValueError, RuntimeError, OverflowError):
            previous_stack = None
        try:
            carriers = [
                threading.Thread(
                    target=self._carrier,
                    args=(r, runner),
                    name=f"rank-{r}",
                    daemon=True,
                )
                for r in range(size)
            ]
        finally:
            if previous_stack is not None:
                threading.stack_size(previous_stack)
        for t in carriers:
            t.start()
        grace = join_grace(state.timeout)
        self._ready.extend(range(size))
        try:
            while True:
                if self._ready:
                    rank = self._ready.popleft()
                    if self._done[rank]:
                        continue
                    wait = self._waits.pop(rank, None)
                    if wait is not None and wait.kind == _Wait.GATE:
                        waiters = self._gate_waiters.get(wait.key)
                        if waiters is not None:
                            waiters.discard(rank)
                            if not waiters:
                                del self._gate_waiters[wait.key]
                    self._resume.clear()
                    self._batons[rank].set()
                    if not self._resume.wait(timeout=grace):
                        # The fiber never came back: it is looping without
                        # touching a yield point.
                        raise MachineError(
                            f"rank-{rank} failed to terminate (deadlock?)"
                        )
                elif self._waits:
                    # Virtual-time quiescence: nothing is runnable and
                    # nothing in flight, so these waits can never be
                    # satisfied.  Sacrifice the most impatient waiter;
                    # its failure cascades deterministically (peers see
                    # its finished/alive flags and fail over in turn).
                    victim = min(
                        self._waits, key=lambda r: (self._waits[r].limit, r)
                    )
                    wait = self._waits[victim]
                    wait.verdict = False
                    self._enqueue(victim, wait)
                else:
                    break
        finally:
            state.scheduler = None
        for t in carriers:
            t.join(timeout=grace)
            if t.is_alive():
                raise MachineError(f"{t.name} failed to terminate (deadlock?)")

    def _carrier(self, rank: int, runner: Callable[[int], None]) -> None:
        self._batons[rank].wait()
        try:
            runner(rank)
        finally:
            # ``runner`` has already published the rank's finished/alive
            # flags (its own finally), so waiters re-checking now observe
            # them: wake everyone, then hand the baton home for good.
            self._done[rank] = True
            self.on_liveness_change()
            self._resume.set()

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
        self._handoff(rank)
        return wait.verdict

    def _handoff(self, rank: int) -> None:
        baton = self._batons[rank]
        # Clear our own baton *before* releasing the scheduler: a wake can
        # only be issued by code the scheduler runs after this point, so
        # set-then-wait can never race ahead of the clear.
        baton.clear()
        self._resume.set()
        baton.wait()

    # -- wake hooks (called on the running fiber only) ---------------------

    def on_post(self, msg: "Message") -> None:
        """A message was posted: wake its destination iff it is parked on
        exactly this ``(source, tag)`` match."""
        wait = self._waits.get(msg.dest)
        if (
            wait is not None
            and not wait.queued
            and wait.kind == _Wait.RECV
            and wait.source == msg.source
            and wait.tag == msg.tag
        ):
            self._enqueue(msg.dest, wait)

    def on_gate_arrival(self, key: Any, arriver: int) -> None:
        """``arriver`` registered at ``key``: strike it from every parked
        waiter's pending set, waking those that become complete."""
        waiters = self._gate_waiters.get(key)
        if not waiters:
            return
        for rank in sorted(waiters):
            wait = self._waits[rank]
            wait.pending.discard(arriver)
            if not wait.pending and not wait.queued:
                self._enqueue(rank, wait)

    def on_liveness_change(self) -> None:
        """A rank died, finished, aborted or was replaced: every kind of
        wait can now fail over, so wake all waiters (ascending rank) to
        re-check."""
        for rank in sorted(self._waits):
            wait = self._waits[rank]
            if not wait.queued:
                self._enqueue(rank, wait)

    def _enqueue(self, rank: int, wait: _Wait) -> None:
        wait.queued = True
        self._ready.append(rank)
