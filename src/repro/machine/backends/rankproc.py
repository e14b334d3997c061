"""Rank-process side of the process backend.

Each rank runs :func:`rank_main` in its own OS process: it connects back
to the coordinator, rebuilds the simulator's per-rank machinery — a
local :class:`~repro.machine.network.Router` mailbox, a
:class:`RankState` whose liveness lists are *mirrors* maintained from
coordinator broadcasts, and a :class:`ProcCommunicator` — and then runs
the **unmodified** rank program against the ordinary
:class:`~repro.machine.comm.Communicator` API.

Three threads per rank process:

- the *program* thread (the process main thread) runs the rank program;
- the *receiver* thread drains the socket — message deliveries into the
  local router, liveness events into the mirrors (waking the program
  thread's :class:`RankWaiter` after each), control replies to the
  program thread;
- the *heartbeat* thread pings the coordinator every
  ``REPRO_HEARTBEAT`` seconds so a wedged process is distinguishable
  from a slow one.

Only the agreement methods of :class:`~repro.machine.comm.Consensus`
(failure agreement, votes, gate arrivals and completion, deaths,
aborts and replacements) round-trip to the coordinator, which holds the
one authority; :class:`RankState` makes each of them a ``CONTROL``, so
the ``Communicator`` methods above them run unchanged.  Everything else
— cost clocks, ledgers, phases, fault points, memory, the schedule
recorder — is rank-local, exactly as in the simulator, which is what
makes fault-free runs bit-identical across backends.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.machine.backends import wire
from repro.machine.comm import Communicator, _SharedState
from repro.machine.errors import CommError, DeadlockError, MachineError
from repro.machine.fault import FaultLog, FaultSchedule
from repro.machine.memory import LocalMemory
from repro.machine.network import Message, Router
from repro.machine.record import ScheduleRecorder
from repro.util.env import heartbeat_interval, join_grace, poll_interval

__all__ = [
    "RankConfig",
    "RankWaiter",
    "RankState",
    "ProcRouter",
    "ProcCommunicator",
    "rank_main",
]


@dataclass
class RankConfig:
    """Everything a rank process needs, shipped via the spawn pickle.

    ``timeout`` is the machine's *already scaled* per-receive deadline —
    the child must not apply ``REPRO_TIMEOUT_SCALE`` a second time.
    ``incarnation`` is nonzero only for a respawned replacement process
    (live fault mode).
    """

    rank: int
    size: int
    host: str
    port: int
    word_bits: int
    memory_words: float
    timeout: float
    topology: Any
    fault_schedule: FaultSchedule
    fault_mode: str
    record: bool
    program: Any
    prog_args: tuple
    incarnation: int = 0


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a stand-in
    :class:`MachineError` carrying its repr (rank programs may raise
    exceptions holding sockets, locks, ...)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return MachineError(f"unpicklable rank error: {exc!r}")


class RankWaiter:
    """The rank process's scheduler, and the process backend's one
    wall-clock wait.

    Installed as ``state.scheduler``: the inherited receive loop and gate
    park here between re-checks.  The receiver thread calls :meth:`wake`
    after every delivery and liveness event.  Wakes are counted, so one
    that lands between a failed re-check and the park returns the park
    at once instead of being lost.  Each receive and each gate gets its own
    ``limit``, measured from its first park; :meth:`begin` marks where a
    new one starts.  Every park returns True ("re-check") until that
    limit has run out, then False.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._wakes = 0  # guarded-by: _cond
        # Program thread only: wakes already acted on, and the current
        # wait's deadline (None until its first park).
        self._seen = 0
        self._deadline: float | None = None

    def wake(self) -> None:
        """A delivery or liveness event landed (receiver thread)."""
        with self._cond:
            self._wakes += 1
            self._cond.notify()

    def begin(self) -> None:
        """A new receive or gate starts; its first park sets its deadline."""
        self._deadline = None

    def block_recv(self, rank: int, source: int, tag: int, limit: float) -> bool:
        """Park a receive until the next wake."""
        return self._park(limit, None)

    def block_gate(
        self, rank: int, key: Any, pending: set[int], limit: float
    ) -> bool:
        """Park a gate until the next wake or for one poll interval (the
        coordinator does not push gate arrivals)."""
        return self._park(limit, poll_interval())

    def _park(self, limit: float, tick: float | None) -> bool:
        now = time.monotonic()
        if self._deadline is None:
            self._deadline = now + limit
        remaining = self._deadline - now
        with self._cond:
            if self._wakes == self._seen:
                if remaining <= 0:
                    return False
                self._cond.wait(remaining if tick is None else min(tick, remaining))
            self._seen = self._wakes
        return True

    def on_post(self, msg: Message) -> None:
        """Sends leave the process; deliveries arrive through :meth:`wake`."""

    def on_gate_arrival(self, key: Any, arriver: int) -> None:
        """Gate parks re-poll the coordinator instead."""

    def on_liveness_change(self) -> None:
        """Peers learn of this rank's death or abort by broadcast."""

    def yield_turn(self, rank: int) -> None:
        """Detector reads see the receiver thread's mirrors directly."""


class HubClient:
    """The rank process's connection to the coordinator.

    Owns the socket, serializes concurrent writers (program, heartbeat),
    and matches ``CONTROL`` round-trips.  Only the program thread issues
    controls, so a single reply slot suffices.
    """

    def __init__(self, sock: socket.socket, config: RankConfig):
        self.sock = sock
        self.config = config
        self.fault_mode = config.fault_mode
        self.state: RankState | None = None
        self.router: "ProcRouter | None" = None
        self.sent_result = False
        self._wlock = threading.Lock()
        self._seq = 0
        self._reply_ready = threading.Event()
        self._reply: tuple[int, Any] | None = None
        self._last_purge = 0
        self._stop_heartbeat = threading.Event()
        self.waiter = RankWaiter()

    # -- frame output (any thread) ------------------------------------------
    def send(self, kind: str, payload: Any = None) -> None:
        with self._wlock:
            wire.send_frame(self.sock, kind, payload)

    def post_message(self, msg: Message) -> None:
        self.send(wire.DATA, msg)

    # -- handshake (program thread, before the receiver starts) ------------
    def handshake(self) -> dict[str, Any]:
        """HELLO then block for GO; returns the mirror snapshot."""
        self.send(wire.HELLO, (self.config.rank, self.config.incarnation))
        kind, payload = wire.recv_frame(self.sock)
        if kind != wire.GO:
            raise MachineError(f"expected GO from coordinator, got {kind!r}")
        return payload

    # -- control round-trips (program thread only) --------------------------
    def control(self, op: str, *args: Any) -> Any:
        self._seq += 1
        seq = self._seq
        self._reply_ready.clear()
        self.send(wire.CONTROL, (seq, op, args))
        if not self._reply_ready.wait(join_grace(self.config.timeout)):
            raise DeadlockError(
                f"rank {self.config.rank}: coordinator never answered "
                f"control {op!r}"
            )
        assert self._reply is not None
        got_seq, value = self._reply
        if got_seq != seq:
            raise MachineError(
                f"control reply out of sequence ({got_seq} != {seq})"
            )
        return value

    # -- receiver thread -----------------------------------------------------
    def start_receiver(self) -> None:
        threading.Thread(
            target=self._receive_loop,
            name=f"rank-{self.config.rank}-recv",
            daemon=True,
        ).start()

    def _receive_loop(self) -> None:
        state = self.state
        router = self.router
        waiter = self.waiter
        assert state is not None and router is not None
        try:
            while True:
                kind, payload = wire.recv_frame(self.sock)
                if kind == wire.DELIVER:
                    router.post_local(payload)
                    waiter.wake()
                elif kind == wire.EVENT:
                    self._apply_event(state, payload)
                    waiter.wake()
                elif kind == wire.PURGE_DONE:
                    self._last_purge = router.purge_local(self.config.rank)
                elif kind == wire.CONTROL_REPLY:
                    self._reply = payload
                    self._reply_ready.set()
                elif kind == wire.SHUTDOWN:
                    # Coordinator teardown: nothing we produce can be
                    # consumed any more.  Exit hard — the program thread
                    # may be blocked in a receive.
                    os._exit(0 if self.sent_result else 3)
        except (EOFError, OSError):
            # Coordinator gone.  A finished rank exits normally with the
            # program thread; an unfinished one must not linger as an
            # orphan working for nobody.
            if not self.sent_result:
                os._exit(1)
        except wire.WireError:
            # Corrupt coordinator frame: the stream can never be
            # resynchronized and no recovery protocol exists above it.
            # Exit hard with a distinct code; the coordinator accounts
            # the EOF as an unexpected death.
            if not self.sent_result:
                os._exit(4)

    @staticmethod
    def _apply_event(state: RankState, payload: tuple) -> None:
        """Fold a liveness broadcast into the mirrors.

        Events carry absolute values (not deltas) so re-applying one a
        rank already knows — e.g. a replacement's own incarnation, already
        in its GO snapshot — is harmless.
        """
        op, rank, value = payload
        with state.lock:
            if op == "dead":
                state.alive[rank] = False
            elif op == "replacement":
                state.incarnations[rank] = value
                state.alive[rank] = True
            elif op == "finished":
                state.finished[rank] = True
            elif op == "abort":
                state.aborted_task[rank] = value

    # -- heartbeat thread ----------------------------------------------------
    def start_heartbeat(self) -> None:
        threading.Thread(
            target=self._heartbeat_loop,
            name=f"rank-{self.config.rank}-heartbeat",
            daemon=True,
        ).start()

    def _heartbeat_loop(self) -> None:
        interval = heartbeat_interval()
        while not self._stop_heartbeat.wait(interval):
            try:
                self.send(wire.HEARTBEAT, self.config.rank)
            except OSError:
                return

    def stop(self) -> None:
        self._stop_heartbeat.set()


class ProcRouter(Router):
    """The rank-local mailbox, with remote posting through the coordinator.

    Only this rank's own mailbox is live here: ``post`` to any other
    rank becomes a ``DATA`` frame, and the receiver thread feeds
    forwarded deliveries back in via :meth:`post_local`.  ``take`` (and
    with it the entire matched-receive/fail-over machinery of
    :class:`~repro.machine.comm.Communicator`) is inherited unchanged.
    """

    def __init__(self, size: int, client: HubClient):
        super().__init__(size)
        self._client = client
        self._own_rank = client.config.rank

    def post(self, msg: Message) -> None:
        self._check_rank(msg.dest)
        self._check_rank(msg.source)
        if msg.dest == self._own_rank:
            super().post(msg)
        else:
            self._client.post_message(msg)

    def post_local(self, msg: Message) -> None:
        """Deliver a coordinator-forwarded message (receiver thread)."""
        super().post(msg)

    def purge_local(self, rank: int) -> int:
        return super().purge(rank)

    def purge(self, rank: int) -> int:
        """Purge this rank's mailbox with a well-defined FIFO cut.

        The coordinator writes a ``PURGE_DONE`` marker down this rank's
        own socket (under the destination write lock) before answering
        the control, so every message it forwarded before the purge is
        in the socket ahead of the marker: the receiver thread delivers
        them, then purges, then unblocks the control reply.  Exactly the
        messages "already in the network" at the purge are dropped.
        """
        if rank != self._own_rank:
            raise CommError(
                f"rank {self._own_rank} cannot purge rank {rank}'s mailbox"
            )
        self._client.control("purge", rank)
        return self._client._last_purge


class RankState(_SharedState):
    """The rank process's machine state.

    Its liveness lists mirror the coordinator's
    :class:`~repro.machine.comm.Consensus`: the receiver thread folds
    every liveness broadcast into them.  Each agreement method is a
    ``CONTROL`` round trip to that authority.  The coordinator
    broadcasts the liveness change a control makes before it replies,
    down the same socket, so when a round trip returns the mirror
    already shows it.
    """

    def __init__(self, client: HubClient, **kwargs: Any):
        super().__init__(**kwargs)
        self._client = client

    def agree_dead(self, key: Any, candidates: Any) -> frozenset:
        return self._client.control("agree_dead", key, tuple(candidates))

    def vote(self, key: Any, rank: int, value: bool) -> None:
        self._client.control("vote", key, rank, value)

    def poll_votes(self, key: Any) -> dict[int, bool]:
        return self._client.control("poll_votes", key)

    def arrive(self, key: Any, rank: int) -> None:
        self._client.control("arrive", key, rank)

    def gate_pending(self, key: Any, participants: Any) -> set[int]:
        return self._client.control("gate_pending", key, tuple(participants))

    def die(self, rank: int) -> None:
        self._client.control("die", rank)

    def abort(self, rank: int, task: int) -> None:
        self._client.control("abort", rank, task)

    def replace(self, rank: int) -> int:
        return self._client.control("replace", rank)


class ProcCommunicator(Communicator):
    """The standard communicator, with a fresh wall-clock limit for each
    receive and gate and the live-kill hold at a fault point.  Its
    :meth:`~repro.machine.comm.Communicator.sub` views are
    ``ProcCommunicator`` instances too, so they keep both; the hub client
    is reached through the shared :class:`RankState`."""

    _state: RankState

    def _collect_matched(self, *args: Any, **kwargs: Any) -> Message:
        self._state._client.waiter.begin()
        return super()._collect_matched(*args, **kwargs)

    def gate(
        self, key: Any, participants: Any, timeout: float | None = None
    ) -> None:
        self._state._client.waiter.begin()
        super().gate(key, participants, timeout)

    def _die(self, op_index: int) -> None:
        client = self._state._client
        if client.fault_mode in ("kill", "respawn"):
            # Live injection: ship the census (clock, ledger, recorder
            # ops, fault log — everything a SIGKILL would destroy), then
            # hold still at the scheduled fault point and wait for the
            # coordinator's kill.  This process never executes another
            # instruction of the rank program.
            phase = self.current_phase
            self._state.fault_log.record(
                self.world_rank, phase, op_index, self.incarnation, kind="hard"
            )
            census = build_census(self, phase=phase, op_index=op_index)
            client.send(wire.FAULT_REQ, census)
            while True:
                time.sleep(poll_interval())
        super()._die(op_index)


def build_census(
    comm: Communicator,
    phase: str | None = None,
    op_index: int | None = None,
    result: Any = None,
    error: BaseException | None = None,
) -> dict[str, Any]:
    """The rank's complete accounting state, ready to ship.

    Sent with ``RESULT`` at normal completion and with ``FAULT_REQ``
    just before a live kill — either way the coordinator can assemble
    its share of the :class:`~repro.machine.engine.RunResult` without
    this process surviving.
    """
    state = comm._state
    ledger = comm.ledger
    tracer = state.tracer
    return {
        "rank": comm.world_rank,
        "inc": comm.incarnation,
        "clock": comm.clock.snapshot(),
        "ledger": [(name, ledger.get(name)) for name in ledger.phases()],
        "peak": comm.memory.peak,
        "fault_entries": state.fault_log.entries,
        "fired": state.fault_schedule.fired,
        "recorder_ops": (
            tracer.ops() if isinstance(tracer, ScheduleRecorder) else None
        ),
        "phase": phase,
        "op_index": op_index,
        "result": result,
        "error": None if error is None else _picklable_error(error),
    }


def rank_main(config: RankConfig) -> None:
    """Entry point of a rank process (the spawn target)."""
    sock = socket.create_connection((config.host, config.port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    client = HubClient(sock, config)
    snapshot = client.handshake()
    router = ProcRouter(config.size, client)
    memories = [
        LocalMemory(config.memory_words, rank=r) for r in range(config.size)
    ]
    state = RankState(
        client,
        size=config.size,
        router=router,
        word_bits=config.word_bits,
        memories=memories,
        fault_schedule=config.fault_schedule,
        fault_log=FaultLog(),
        timeout=config.timeout,
        topology=config.topology,
        tracer=ScheduleRecorder() if config.record else None,
    )
    state.scheduler = client.waiter
    with state.lock:
        state.alive[:] = snapshot["alive"]
        state.finished[:] = snapshot["finished"]
        state.aborted_task[:] = snapshot["aborted"]
        state.incarnations[:] = snapshot["incarnations"]
    client.state = state
    client.router = router
    client.start_receiver()
    client.start_heartbeat()
    comm = ProcCommunicator(state, config.rank)
    result: Any = None
    error: BaseException | None = None
    try:
        result = config.program(comm, *config.prog_args)
    except BaseException as exc:  # noqa: BLE001 - shipped to the coordinator
        error = exc
        # Dead-for-everyone semantics, as in the simulator's runner: a
        # rank failing outside the fault protocol flips its liveness so
        # peers unblock fast.
        try:
            state.die(config.rank)
        except (MachineError, OSError):  # repro-lint: disable=EXC001 -- audited: best-effort death notice; the error itself still ships in the census
            pass
    client.stop()
    try:
        census = build_census(comm, result=result, error=error)
        client.send(wire.RESULT, census)
        client.sent_result = True
        client.send(wire.FIN, config.rank)
    except OSError:
        os._exit(1)
    sock.close()
