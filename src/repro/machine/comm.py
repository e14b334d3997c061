"""Rank-side communication API (MPI-flavoured).

Each rank program receives a :class:`Communicator`.  It provides:

- point-to-point ``send``/``recv`` with automatic word sizing and
  critical-path clock propagation,
- ``charge_flops`` for local arithmetic accounting,
- phase management (``with comm.phase("evaluation"): ...``) — phases scope
  both the per-phase cost ledger and fault-schedule matching,
- fault machinery: every machine operation is a *fault point*; a scheduled
  hard fault raises :class:`~repro.machine.errors.HardFault`, wipes the
  local memory and marks the rank dead.  Fault-tolerant programs catch it
  and call :meth:`Communicator.begin_replacement` to re-enter as the
  replacement processor (fresh incarnation, empty memory, purged mailbox),
- ``sub(ranks)`` for row/column groups: a view of the same class that
  numbers the group's ranks from 0 and shares all state,
- failure detection (``dead_ranks``, ``is_alive``) — the paper assumes
  faults are detected; we model a perfect failure detector,
- the runtime's agreement primitives (``agree_dead``, ``vote``, ``gate``,
  ``mark_aborted``), whose rules live once in :class:`Consensus`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

from repro.machine.costs import CostClock, PhaseLedger
from repro.machine.errors import CommError, DeadlockError, HardFault, PeerDead
from repro.machine.fault import FaultLog, FaultSchedule
from repro.machine.memory import LocalMemory
from repro.machine.network import Message, Router
from repro.machine.sizes import payload_words
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["Communicator", "Consensus"]


class Consensus:
    """The machine's agreement authority (the runtime support that
    fault-tolerant MPI runtimes such as ULFM give their programs).

    It holds the liveness, finish and withdrawal flags and the
    incarnation numbers, and the three rules built on them:

    - **failure agreement** — the first caller per key snapshots the
      failure detector; later callers see the same snapshot, so all
      ranks act on one dead set;
    - **votes** — one boolean flag per rank and key, read back after the
      matching gate;
    - **gates** — a gate is complete for its caller once every
      participant has arrived or died.

    The simulator's :class:`_SharedState` is one.  The process backend's
    coordinator holds one as its authority, and a rank process reaches
    it by ``CONTROL`` round trips (docs/MACHINE.md "Backends").
    """

    def __init__(self, size: int):
        self.lock = threading.Lock()
        self.alive = [True] * size  # guarded-by: lock
        # Ranks whose program has returned (or raised): a finished rank
        # will never send again, so a receiver still blocked on it can
        # fail over immediately instead of waiting out the deadlock
        # detector.  Pending messages still win — the engine sets this
        # only after the rank's last send has been posted.
        self.finished = [False] * size  # guarded-by: lock
        # Logical withdrawal markers: a rank that abandons the current task
        # (polynomial-code column halt, Section 4.2) records the task index
        # here so peers stop waiting for its messages.  -1 = participating.
        self.aborted_task = [-1] * size  # guarded-by: lock
        self.incarnations = [0] * size  # guarded-by: lock
        self.agreed_dead: dict[Any, frozenset] = {}  # guarded-by: lock
        self.gates: dict[Any, set[int]] = {}  # guarded-by: lock
        self.votes: dict[Any, dict[int, bool]] = {}  # guarded-by: lock

    def agree_dead(self, key: Any, candidates: Iterable[int]) -> frozenset:
        """The dead ``candidates`` as the first caller under ``key`` saw
        them."""
        with self.lock:
            dead = self.agreed_dead.get(key)
            if dead is None:
                dead = self.agreed_dead[key] = frozenset(
                    r for r in candidates if not self.alive[r]
                )
            return dead

    def vote(self, key: Any, rank: int, value: bool) -> None:
        with self.lock:
            self.votes.setdefault(key, {})[rank] = value

    def poll_votes(self, key: Any) -> dict[int, bool]:
        with self.lock:
            return dict(self.votes.get(key, {}))

    def arrive(self, key: Any, rank: int) -> None:
        """Register ``rank`` at gate ``key``."""
        with self.lock:
            self.gates.setdefault(key, set()).add(rank)

    def gate_pending(self, key: Any, participants: Iterable[int]) -> set[int]:
        """The participants of gate ``key`` that have neither arrived nor
        died; the gate is complete when this is empty."""
        with self.lock:
            arrived = self.gates.get(key, ())
            return {p for p in participants if p not in arrived and self.alive[p]}

    def die(self, rank: int) -> None:
        with self.lock:
            self.alive[rank] = False

    def finish(self, rank: int) -> None:
        with self.lock:
            self.finished[rank] = True

    def abort(self, rank: int, task: int) -> None:
        with self.lock:
            self.aborted_task[rank] = task

    def replace(self, rank: int) -> int:
        """Bring ``rank`` back as its next incarnation; returns the new
        incarnation number.  The abort marker is deliberately left
        untouched: recovery protocols decide when the replacement rejoins
        a task."""
        with self.lock:
            self.incarnations[rank] += 1
            self.alive[rank] = True
            return self.incarnations[rank]


class _SharedState(Consensus):
    """Machine-wide state shared by all communicators (engine-owned): the
    agreement authority plus the router, cost clocks, ledgers, memories
    and fault schedule."""

    def __init__(
        self,
        size: int,
        router: Router,
        word_bits: int,
        memories: list[LocalMemory],
        fault_schedule: FaultSchedule,
        fault_log: FaultLog,
        timeout: float,
        topology: Any = None,
        tracer: Tracer | None = None,
    ):
        from repro.machine.topology import FullyConnected

        super().__init__(size)
        self.size = size
        # Explicit None-check: an empty RecordingTracer has len() == 0 and
        # would be falsy under ``tracer or NULL_TRACER``.
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: Where blocking calls park and posts/deaths issue wakes: the
        #: cooperative :class:`~repro.machine.engines.event.EventEngine`
        #: for the duration of a simulator run (docs/MACHINE.md
        #: "Scheduler"), or the process backend's
        #: :class:`~repro.machine.backends.rankproc.RankWaiter` in a rank
        #: process.  None outside a run.
        self.scheduler: Any = None
        self.topology = topology or FullyConnected(size)
        self.router = router
        self.word_bits = word_bits
        self.memories = memories
        self.fault_schedule = fault_schedule
        self.fault_log = fault_log
        self.timeout = timeout
        self.clocks = [CostClock() for _ in range(size)]
        self.ledgers = [PhaseLedger() for _ in range(size)]
        self.heaps: list[dict[str, Any]] = [dict() for _ in range(size)]
        # Per-rank fault-point counters (machine ops in the current phase,
        # soft checks in the run) and the delay-fault slowdown on
        # arithmetic (the paper's third fault category; 1.0 = healthy).
        # They live here, not on a Communicator, so every view of a rank
        # counts the same ops.
        self.phase_ops = [0] * size
        self.soft_ops = [0] * size
        self.slowdowns = [1.0] * size


class Communicator:
    """Per-rank handle onto the machine, over a group of ranks.

    ``ranks`` maps the group's local ranks to global ranks: local rank
    ``i`` is global rank ``ranks[i]``.  The world communicator a rank
    program receives has ``ranks == range(size)``; :meth:`sub` returns a
    view over a subset, of the same class and sharing all state.  ``rank``
    and ``size`` are local to the group, and every rank argument is
    checked against ``[0, size)`` and translated once, at the method
    boundary; state slots, message stamps, fault-log entries and tracer
    events all use the global rank ``world_rank``.
    """

    def __init__(self, state: _SharedState, rank: int):
        self._state = state
        self.ranks: Sequence[int] = range(state.size)
        self.size = state.size
        self.rank = rank
        #: This rank's global rank, whatever group the view spans.
        self.world_rank = rank

    # -- rank translation --------------------------------------------------
    def to_global(self, rank: int) -> int:
        """The global rank of local ``rank``; :class:`CommError` outside
        ``[0, size)``."""
        if not 0 <= rank < self.size:
            raise CommError(
                f"rank {rank} out of range for a communicator of size {self.size}"
            )
        return self.ranks[rank]

    def _to_globals(self, ranks: Iterable[int]) -> list[int]:
        """:meth:`to_global` over a whole rank list, in one pass."""
        local = list(ranks)
        if local and not (0 <= min(local) and max(local) < self.size):
            for r in local:
                self.to_global(r)  # raises at the first bad rank
        table = self.ranks
        return [table[r] for r in local]

    # -- introspection -----------------------------------------------------
    @property
    def word_bits(self) -> int:
        return self._state.word_bits

    @property
    def memory(self) -> LocalMemory:
        return self._state.memories[self.world_rank]

    @property
    def heap(self) -> dict[str, Any]:
        """Engine-visible storage wiped on a hard fault."""
        return self._state.heaps[self.world_rank]

    @property
    def clock(self) -> CostClock:
        return self._state.clocks[self.world_rank]

    @property
    def ledger(self) -> PhaseLedger:
        return self._state.ledgers[self.world_rank]

    @property
    def incarnation(self) -> int:
        with self._state.lock:
            return self._state.incarnations[self.world_rank]

    def is_alive(self, rank: int) -> bool:
        g = self.to_global(rank)
        self._detector_yield()
        with self._state.lock:
            return self._state.alive[g]

    def incarnation_of(self, rank: int) -> int:
        """Current incarnation number of ``rank`` (0 = original processor).
        Protocols use this to wait for a replacement to come up."""
        g = self.to_global(rank)
        self._detector_yield()
        with self._state.lock:
            return self._state.incarnations[g]

    def _detector_yield(self) -> None:
        """Cooperative yield at failure-detector reads.

        Programs may legitimately busy-poll the detector ("spin until the
        replacement comes up"); under the one-runnable-rank scheduler such
        a loop would otherwise never let the observed rank run.  Yielding
        here keeps those loops live without charging any cost or touching
        a fault point — detector reads are free in the model.
        """
        self._state.scheduler.yield_turn(self.world_rank)

    def agree_dead(self, key: Any, candidates: Sequence[int]) -> frozenset:
        """Consistent failure snapshot (ULFM-style agreement).

        All ranks calling with the same ``key`` observe the same set of
        failed ``candidates`` — the detector state sampled by whichever
        rank got there first.  Ranks that fail *after* the snapshot are
        picked up under a later key.  Pair with :meth:`gate` so the
        snapshot is taken only after every participant has settled.
        """
        members = self._to_globals(candidates)
        state = self._state
        dead = state.agree_dead(key, members)
        tracer = state.tracer
        if tracer.enabled:
            tracer.on_agree_dead(
                self.world_rank, self.current_phase, self.incarnation, key,
                members, dead,
            )
        table = self.ranks
        return frozenset(table.index(g) for g in dead if g in table)

    def vote(self, key: Any, value: bool) -> None:
        """Record a boolean flag under ``key`` (read after the matching
        :meth:`gate` with :meth:`poll_votes`) — used for consistent group
        decisions such as "did this task attempt succeed everywhere"."""
        state = self._state
        state.vote(key, self.world_rank, value)
        tracer = state.tracer
        if tracer.enabled:
            tracer.on_vote(
                self.world_rank, self.current_phase, self.incarnation, key, value
            )

    def poll_votes(self, key: Any) -> dict[int, bool]:
        """The group's votes recorded under ``key`` so far, by local rank
        (vote before the gate, read after it, and every live participant's
        vote is present).

        Named ``poll_votes`` (not ``votes``) so the accessor is not
        mistaken for the guarded ``Consensus.votes`` field itself."""
        self._detector_yield()
        table = self.ranks
        return {
            table.index(g): value
            for g, value in self._state.poll_votes(key).items()
            if g in table
        }

    def gate(self, key: Any, participants: Sequence[int], timeout: float | None = None) -> None:
        """Fault-tolerant barrier: block until every participant has
        either registered at this gate or failed.

        A rank in its hard-fault handler registers too (dead ranks count
        as arrived), so a subsequent :meth:`agree_dead` sees every failure
        that happened before the boundary.  Synchronization itself is
        runtime-provided and charged no cost (its ``O(log P)`` latency is
        dominated by the boundary's reduces).

        The rank parks on the scheduler with the set of participants still
        missing; arrivals strike ranks off that set and wake it when it
        empties (deaths wake everyone).  ``timeout`` survives only as the
        quiescence priority; in a rank process it is the gate's wall-clock
        limit.
        """
        members = self._to_globals(participants)
        me = self.world_rank
        state = self._state
        state.arrive(key, me)
        scheduler = state.scheduler
        # Our arrival may complete a gate a parked peer is waiting on.
        scheduler.on_gate_arrival(key, me)
        tracer = state.tracer
        if tracer.enabled:
            tracer.on_gate(
                me, self.current_phase, self.incarnation, key, members
            )
        limit = state.timeout if timeout is None else timeout
        pending = state.gate_pending(key, members)
        while pending:
            if not scheduler.block_gate(me, key, pending, limit):
                raise DeadlockError(
                    f"rank {me}: gate {key!r} never completed"
                )
            pending = state.gate_pending(key, members)

    def dead_ranks(self, ranks: Sequence[int] | None = None) -> set[int]:
        """The perfect failure detector: dead ranks among ``ranks``
        (default: the whole group)."""
        if ranks is None:
            local, members = range(self.size), self.ranks
        else:
            local = list(ranks)
            members = self._to_globals(local)
        self._detector_yield()
        with self._state.lock:
            alive = self._state.alive
            return {r for r, g in zip(local, members) if not alive[g]}

    # -- logical withdrawal (column halt, Section 4.2) ---------------------
    def mark_aborted(self, task: int) -> None:
        """Record that this rank abandoned task ``task`` (its polynomial-
        code column was killed); peers treat it like a dead sender for
        that task."""
        state = self._state
        state.abort(self.world_rank, task)
        # Receivers using abort_check fail over on withdrawal exactly like
        # on death: wake them to re-check.
        state.scheduler.on_liveness_change()
        tracer = state.tracer
        if tracer.enabled:
            tracer.on_abort(
                self.world_rank,
                self.current_phase,
                self.clock.snapshot(),
                self.incarnation,
                task,
            )

    def aborted_at(self, rank: int) -> int:
        """The task index at which ``rank`` abandoned, or -1."""
        g = self.to_global(rank)
        with self._state.lock:
            return self._state.aborted_task[g]

    def withdrawn_ranks(self, ranks: Sequence[int], task: int) -> set[int]:
        """Ranks among ``ranks`` that are dead or have abandoned exactly
        task ``task`` (an abort is scoped to one task; the rank
        participates again in the next)."""
        local = list(ranks)
        members = self._to_globals(local)
        state = self._state
        with state.lock:
            alive, aborted = state.alive, state.aborted_task
            return {
                r for r, g in zip(local, members)
                if not alive[g] or aborted[g] == task
            }

    # -- phases ------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scope machine ops under a named algorithm phase.

        With tracing enabled the scope is recorded as a begin/end span
        pair in virtual time; spans nest exactly like the ``with`` blocks
        do, which is what makes the exported Perfetto timeline stack."""
        me = self.world_rank
        phase_ops = self._state.phase_ops
        previous = self.ledger.current_phase
        prev_ops = phase_ops[me]
        self.set_phase(name)
        tracer = self._state.tracer
        if tracer.enabled:
            tracer.on_phase_begin(
                me, name, self.clock.snapshot(), self.incarnation
            )
        try:
            yield
        finally:
            if tracer.enabled:
                tracer.on_phase_end(
                    me, name, self.clock.snapshot(), self.incarnation
                )
            self.ledger.set_phase(previous)
            phase_ops[me] = prev_ops

    def set_phase(self, name: str) -> None:
        self.ledger.set_phase(name)
        self._state.phase_ops[self.world_rank] = 0

    @property
    def current_phase(self) -> str:
        return self.ledger.current_phase

    # -- fault machinery -----------------------------------------------------
    def fault_point(self) -> None:
        """Check the fault schedule; die here if a hard event matches, or
        start running slow if a delay event matches."""
        me = self.world_rank
        state = self._state
        op = state.phase_ops[me]
        state.phase_ops[me] = op + 1
        phase, incarnation = self.current_phase, self.incarnation
        delay, hard = state.fault_schedule.take_machine_op(
            me, phase, op, incarnation
        )
        if delay is not None:
            state.slowdowns[me] = max(state.slowdowns[me], delay.factor)
            state.fault_log.record(me, phase, op, incarnation, kind="delay")
        if hard is not None:
            self._die(op)

    def soft_fault_point(self) -> bool:
        """Check for a scheduled *soft* fault (silent miscalculation).

        Algorithms call this at the completion of a computed value; a True
        return means the value must be corrupted (the processor
        miscalculated without noticing).  Soft checks count their own op
        indices, separate from hard fault points.
        """
        me = self.world_rank
        state = self._state
        op = state.soft_ops[me]
        state.soft_ops[me] = op + 1
        if state.fault_schedule.should_fail(
            me, self.current_phase, op, self.incarnation, kind="soft"
        ):
            state.fault_log.record(
                me, self.current_phase, op, self.incarnation, kind="soft"
            )
            return True
        return False

    def _die(self, op_index: int) -> None:
        me = self.world_rank
        state = self._state
        state.die(me)
        # Receivers parked on this rank must re-check and fail over.
        state.scheduler.on_liveness_change()
        phase = self.current_phase
        state.fault_log.record(me, phase, op_index, self.incarnation, kind="hard")
        # Data loss: the processor's memory contents are gone.
        self.memory.wipe()
        state.heaps[me].clear()
        raise HardFault(me, phase, op_index)

    def begin_replacement(self, purge: bool = True) -> int:
        """Re-enter as the replacement processor for this grid position.

        Returns the new incarnation number.  The replacement starts with an
        empty memory and (by default) a purged mailbox; recovery protocols
        are responsible for reconstructing its data (Section 4.1 "fault
        recovery").  ``purge=False`` models a network that retains (or
        peers that resend) in-flight messages for the replacement — used by
        protocols whose recovery inputs arrive as ordinary messages.
        """
        me = self.world_rank
        state = self._state
        if purge:
            state.router.purge(me)
        with state.lock:
            if state.alive[me]:
                raise CommError(f"rank {me} called begin_replacement while alive")
        incarnation = state.replace(me)
        state.phase_ops[me] = 0
        tracer = state.tracer
        if tracer.enabled:
            tracer.on_replacement(
                me, self.current_phase, self.clock.snapshot(), incarnation, purge
            )
        return incarnation

    # -- accounting ----------------------------------------------------------
    def charge_flops(self, ops: int) -> None:
        """Charge ``ops`` arithmetic operations at this rank (a delayed
        processor pays its slowdown factor per operation)."""
        self.fault_point()
        charged = int(ops * self._state.slowdowns[self.world_rank])
        self.clock.charge_flops(charged)
        self.ledger.charge(f=charged)

    # -- point-to-point --------------------------------------------------------
    def send(self, dest: int, payload: Any, tag: int = 0, words: int | None = None) -> None:
        """Send ``payload`` to ``dest``.

        ``words`` overrides the automatic :func:`payload_words` sizing.
        Sends to dead ranks succeed silently (the data is lost) — matching
        the physical reality that the sender cannot know the receiver died.
        """
        to = self.to_global(dest)
        me = self.world_rank
        if to == me:
            raise CommError(f"rank {me} attempted a self-send")
        self.fault_point()
        nwords = payload_words(payload, self.word_bits) if words is None else words
        hops = self._state.topology.hops(me, to)
        self.clock.bw += nwords
        self.clock.l += hops
        self.ledger.charge(bw=nwords, l=hops)
        tracer = self._state.tracer
        if tracer.enabled:
            tracer.on_send(
                me, self.current_phase, self.clock.snapshot(),
                self.incarnation, to, tag, nwords, hops,
            )
        self._post(to, payload, tag, nwords)

    def _post(self, dest: int, payload: Any, tag: int, words: int) -> None:
        """Deposit a message to global rank ``dest`` stamped with this
        rank's clock and incarnation, and wake ``dest`` if it is parked on
        it (shared by :meth:`send` and the modeled collective transport)."""
        msg = Message(
            source=self.world_rank,
            dest=dest,
            tag=tag,
            payload=payload,
            words=words,
            clock=self.clock.snapshot(),
            incarnation=self.incarnation,
        )
        state = self._state
        state.router.post(msg)
        state.scheduler.on_post(msg)

    def recv(
        self,
        source: int,
        tag: int = 0,
        timeout: float | None = None,
        abort_check: int | None = None,
    ) -> Any:
        """Blocking matched receive.

        Raises :class:`PeerDead` when ``source`` is dead — or, when
        ``abort_check`` is given, has withdrawn from task ``abort_check``
        or earlier — and no matching message is queued;
        :class:`DeadlockError` on timeout.
        """
        src = self.to_global(source)
        self.fault_point()
        return self.absorb(self._collect_matched(src, tag, timeout, abort_check))

    def recv_raw(
        self,
        source: int,
        tag: int = 0,
        timeout: float | None = None,
        abort_check: int | None = None,
    ) -> Message:
        """Matched receive **without** clock merging or cost charging.

        Returns the raw :class:`~repro.machine.network.Message` (whose
        ranks are global); callers that decide to use the payload must
        pass the message to :meth:`absorb` — this is how
        straggler-avoiding collectors pick the earliest messages in
        *virtual* time: physically receive, inspect the attached clock,
        and only absorb (i.e. "wait for") the ones actually used.
        """
        src = self.to_global(source)
        self.fault_point()
        return self._collect_matched(src, tag, timeout, abort_check, raw=True)

    def _collect_matched(
        self,
        source: int,
        tag: int,
        timeout: float | None,
        abort_check: int | None,
        raw: bool = False,
        modeled: bool = False,
    ) -> Message:
        """The receive loop behind :meth:`recv`, :meth:`recv_raw` and the
        modeled collective transport: take a match from global rank
        ``source`` from the router, else fail over to :class:`PeerDead`
        when the source can post no further messages, else park on the
        scheduler and re-check.

        A wake means "re-check"; a False verdict from the park means the
        wait ran out (quiescence in the simulator, the wall clock in a
        rank process) and raises :class:`DeadlockError`.  ``modeled``
        transport fails over only when the source dies — a finished or
        withdrawn contributor that never sent is a deadlock, not a
        skipped summand — and is observed with no hops.  Every delivered
        message passes through here exactly once, which is where the
        tracer's ``on_deliver`` hook (the schedule recorder's receives)
        fires."""
        me = self.world_rank
        if source == me:
            raise CommError(f"rank {me} attempted a self-receive")
        state = self._state
        limit = state.timeout if timeout is None else timeout
        take = state.router.take
        msg = take(me, source, tag)
        while msg is None:
            with state.lock:
                source_gone = not state.alive[source] or (
                    not modeled
                    and (
                        state.finished[source]
                        or state.aborted_task[source] == abort_check
                    )
                )
            if source_gone:
                # The source can post no further messages, but in a rank
                # process its final send may have landed between the
                # failed take and the flag check (sends happen-before the
                # flags are set): drain once more before failing over.
                msg = take(me, source, tag)
                if msg is None:
                    raise PeerDead(source)
                break
            if not state.scheduler.block_recv(me, source, tag, limit):
                raise DeadlockError(
                    f"rank {me}: no message from {source} tag {tag} "
                    f"after {limit:.1f}s"
                )
            msg = take(me, source, tag)
        tracer = state.tracer
        if tracer.enabled:
            hops = 0 if modeled else state.topology.hops(msg.source, me)
            tracer.on_deliver(
                me, self.current_phase, self.incarnation, msg.source,
                msg.tag, msg.words, hops, modeled, raw,
            )
        return msg

    def absorb(self, msg: Message) -> Any:
        """Account for a message obtained via :meth:`recv_raw`: merge its
        clock and charge the transfer, exactly as :meth:`recv` would.
        (:meth:`recv` itself ends here, so all charged receives trace
        through one path.)"""
        me = self.world_rank
        self.clock.merge(msg.clock)
        hops = self._state.topology.hops(msg.source, me)
        self.clock.bw += msg.words
        self.clock.l += hops
        self.ledger.charge(bw=msg.words, l=hops)
        tracer = self._state.tracer
        if tracer.enabled:
            tracer.on_recv(
                me, self.current_phase, self.clock.snapshot(),
                self.incarnation, msg.source, msg.tag, msg.words,
            )
        return msg.payload

    def sendrecv(
        self,
        dest: int,
        payload: Any,
        source: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ) -> Any:
        """Combined send-then-receive (safe: sends never block)."""
        self.send(dest, payload, tag=send_tag)
        return self.recv(source, tag=send_tag if recv_tag is None else recv_tag)

    # -- sub-communicators --------------------------------------------------
    def sub(self, ranks: Sequence[int]) -> "Communicator":
        """A view over the group ``ranks`` (local ranks of this
        communicator, in the view's order; must include this rank).

        The view is an instance of this communicator's own class sharing
        all of its state; only the rank numbering differs, so a nested
        view maps straight to global ranks."""
        members = self._to_globals(ranks)
        if len(set(members)) != len(members):
            raise CommError("sub-communicator ranks must be distinct")
        me = self.world_rank
        if me not in members:
            raise CommError(
                f"rank {me} is not a member of sub-communicator {members}"
            )
        # Built through the constructor (so a subclass keeps anything
        # rank-wide in the shared state), never by copying ``__dict__``:
        # reading an instance's ``__dict__`` moves CPython's inline
        # attributes into a real dict and slows every later attribute
        # read on the communicator it was read from.
        view = type(self)(self._state, me)
        view.ranks = members
        view.size = len(members)
        view.rank = members.index(me)
        tracer = self._state.tracer
        if tracer.enabled:
            tracer.on_sub(me, self.current_phase, self.incarnation, members)
        return view
