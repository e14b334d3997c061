"""The process-backend coordinator.

:class:`ProcBackend` realizes one :meth:`Machine.run
<repro.machine.engine.Machine.run>` by spawning one OS process per rank
(through :func:`repro.parallel.spawn_process`), relaying their messages
over localhost sockets, and assembling the same
:class:`~repro.machine.engine.RunResult` the simulator would return.

Responsibilities, in the order they matter:

- **Relay**: every ``DATA`` frame from rank *i* is forwarded to rank
  *j*'s socket under a per-destination write lock.  TCP FIFO per socket
  plus one reader thread per source gives the same per-channel ordering
  guarantee the simulator's router provides.
- **Consistency**: the machine's :class:`~repro.machine.comm.Consensus`
  (votes, gates, failure agreement, incarnations and liveness) lives
  here; ranks reach it via ``CONTROL`` round-trips, so "first caller
  snapshots the detector" means first *frame processed*, a total order,
  exactly like the simulator's lock.
- **Watchdog**: a rank is declared dead on socket EOF or process exit
  (authoritative) or after ``20 * REPRO_HEARTBEAT * REPRO_TIMEOUT_SCALE``
  of silence (wedged — it is then killed so EOF follows).  Death is
  broadcast as an ``EVENT``, which is what feeds peers'
  ``PeerDead``/``agree_dead``/replacement machinery.
- **Fault injection**: with ``REPRO_PROC_FAULTS=kill|respawn``, a rank
  hitting a scheduled hard fault ships its census and asks to be killed;
  the coordinator ``SIGKILL``\\ s it mid-phase — a *real* crash — and in
  ``respawn`` mode starts a replacement process at the next incarnation.
- **Teardown**: every spawn is registered in a module-level table;
  :meth:`ProcBackend.run` reaps all of it in a ``finally`` (including on
  ``KeyboardInterrupt``), and children exit on their own when the
  coordinator's socket goes away, so no path leaks an orphan.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import pickle
import signal
import socket
import threading
import time
from typing import Any

from repro.machine.backends import wire
from repro.machine.backends.rankproc import RankConfig, rank_main
from repro.machine.comm import Consensus
from repro.machine.costs import Counts, PhaseLedger
from repro.machine.engine import (
    RunResult,
    merge_phase_costs,
    raise_run_errors,
)
from repro.machine.errors import HardFault, MachineError
from repro.machine.fault import FaultLog
from repro.machine.record import ScheduleRecorder
from repro.parallel import spawn_process
from repro.util.env import (
    heartbeat_interval,
    join_grace,
    poll_interval,
    proc_fault_mode,
    timeout_scale,
)

__all__ = ["ProcBackend", "live_children"]

#: The :class:`Consensus` methods a rank calls by ``CONTROL``.
_CONTROLS = frozenset(
    ("agree_dead", "vote", "poll_votes", "arrive", "gate_pending", "die", "replace", "abort")
)

#: Every child this module ever spawned and has not yet reaped.  The CI
#: backend-conformance job (and the teardown tests) assert this is empty
#: of live processes after a suite — the "no leaked orphans" gate.
_CHILDREN: set[Any] = set()
_CHILDREN_LOCK = threading.Lock()


def live_children() -> list[Any]:
    """Spawned rank processes still alive (should be [] between runs)."""
    with _CHILDREN_LOCK:
        return [p for p in _CHILDREN if p.is_alive()]


def _close_quietly(sock: Any) -> None:
    """Best-effort close of a socket whose peer may already be gone.

    The only audited swallow for close paths: by the time teardown or the
    EOF pipeline runs, the interesting failure (the disconnect itself) has
    already been observed and accounted elsewhere.
    """
    try:
        sock.close()
    except OSError:  # repro-lint: disable=EXC001 -- audited: peer already gone, nothing left to report
        pass


def _kill_quietly(pid: int) -> None:
    """SIGKILL a rank process that may have already exited.

    Losing the race to a natural death is the desired outcome, not an
    error: either way the EOF pipeline converts the exit into a normal
    death event.
    """
    try:
        os.kill(pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):  # repro-lint: disable=EXC001 -- audited: process already dead, which is the goal
        pass


class _RankSlot:
    """Coordinator-side bookkeeping for one rank (all incarnations)."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.proc: Any = None
        self.conn: socket.socket | None = None
        self.wlock = threading.Lock()
        self.last_seen = 0.0
        self.censuses: list[dict[str, Any]] = []
        self.result: Any = None
        self.error: BaseException | None = None
        self.got_result = False
        self.kill_requested = False
        self.done = threading.Event()


class ProcBackend:
    """One-process-per-rank execution of a single machine run."""

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        self.fault_mode = proc_fault_mode()
        self.lock = threading.Lock()
        self.slots = [_RankSlot(r) for r in range(machine.size)]
        #: The agreement authority every rank reaches by ``CONTROL``.
        self.consensus = Consensus(machine.size)
        self.listener: socket.socket | None = None
        self.port = 0
        self.configs: list[RankConfig] = []  # guarded-by: lock
        self._spawned: list[Any] = []  # guarded-by: lock
        self._connected = threading.Semaphore(0)
        self._closing = False

    # ------------------------------------------------------------------ run
    def run(
        self,
        program: Any,
        args: Any,
        rank_args: Any,
        raise_on_error: bool,
    ) -> RunResult:
        machine = self.machine
        if machine.tracer.enabled and not isinstance(
            machine.tracer, ScheduleRecorder
        ):
            raise MachineError(
                "tracing is not supported on the proc backend; "
                "run with backend='sim' to trace"
            )
        configs = [
            self._config_for(r, program, args, rank_args)
            for r in range(machine.size)
        ]
        try:
            pickle.dumps(configs[0])
        except Exception as exc:
            raise MachineError(
                "the proc backend ships the rank program to worker "
                f"processes and requires it to be picklable: {exc}"
            ) from exc
        self.listener = wire.bind_listener(machine.size + 8)
        self.port = self.listener.getsockname()[1]
        for cfg in configs:
            cfg.port = self.port
        with self.lock:
            self.configs = configs
        try:
            threading.Thread(
                target=self._accept_loop, name="proc-accept", daemon=True
            ).start()
            for r in range(machine.size):
                self._spawn_rank(configs[r])
            self._await_connections()
            threading.Thread(
                target=self._monitor_loop, name="proc-monitor", daemon=True
            ).start()
            grace = join_grace(machine.timeout)
            for slot in self.slots:
                if not slot.done.wait(grace):
                    raise MachineError(
                        f"rank-{slot.rank} failed to terminate (deadlock?)"
                    )
        finally:
            self._teardown()
        return self._assemble(raise_on_error)

    def _config_for(
        self, rank: int, program: Any, args: Any, rank_args: Any
    ) -> RankConfig:
        machine = self.machine
        return RankConfig(
            rank=rank,
            size=machine.size,
            host="127.0.0.1",
            port=0,  # patched once the listener is bound
            word_bits=machine.word_bits,
            memory_words=machine.memory_words,
            timeout=machine.timeout,
            topology=machine.topology,
            fault_schedule=machine.fault_schedule,
            fault_mode=self.fault_mode,
            record=isinstance(machine.tracer, ScheduleRecorder),
            program=program,
            prog_args=tuple(rank_args[rank]) if rank_args is not None else tuple(args),
        )

    def _spawn_rank(self, config: RankConfig) -> None:
        slot = self.slots[config.rank]
        proc = spawn_process(
            rank_main,
            args=(config,),
            name=f"repro-rank-{config.rank}.{config.incarnation}",
        )
        with _CHILDREN_LOCK:
            _CHILDREN.add(proc)
        with self.lock:
            self._spawned.append(proc)
            slot.proc = proc
            slot.last_seen = time.monotonic()

    def _await_connections(self) -> None:
        deadline = time.monotonic() + join_grace(self.machine.timeout)
        for _ in range(self.machine.size):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._connected.acquire(timeout=remaining):
                missing = [
                    s.rank for s in self.slots if s.conn is None
                ]
                raise MachineError(
                    f"rank processes failed to start: no connection from "
                    f"ranks {missing}"
                )
        snapshot = self._snapshot()
        # No rank may see any frame before its GO (the handshake rejects
        # anything else), yet a rank released first starts sending at
        # once and its reader forwards DATA/EVENT frames to peers.  Hold
        # every write lock until all GOs are out so those frames queue
        # behind them.  Ascending rank order; every other writer holds at
        # most one write lock, so this cannot deadlock.
        with contextlib.ExitStack() as held:
            for slot in self.slots:
                held.enter_context(slot.wlock)
            for slot in self.slots:
                self._write_locked(slot, wire.GO, snapshot)

    # ----------------------------------------------------------- accept side
    def _accept_loop(self) -> None:
        listener = self.listener
        assert listener is not None
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed: teardown
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._reader, args=(conn,), daemon=True
            ).start()

    def _reader(self, conn: socket.socket) -> None:
        """Per-connection reader: HELLO first, then the frame loop."""
        slot: _RankSlot | None = None
        try:
            kind, payload = wire.recv_frame(conn)
            if kind != wire.HELLO:
                conn.close()
                return
            rank, incarnation = payload
            slot = self.slots[rank]
            # The write lock spans publishing the connection and writing
            # a replacement's GO: a peer forwarding to this rank in
            # between would otherwise reach it before its GO.
            with slot.wlock:
                with self.lock:
                    slot.conn = conn
                    slot.last_seen = time.monotonic()
                if incarnation > 0:
                    # A replacement process coming up, spawned at the
                    # rank's next incarnation: make the machine state
                    # agree.  The snapshot already carries the bump, and
                    # the broadcast echo to the new rank re-applies it
                    # idempotently.
                    self.consensus.replace(rank)
                    self._write_locked(slot, wire.GO, self._snapshot())
            if incarnation > 0:
                self._broadcast("replacement", rank, incarnation)
            self._connected.release()
            while True:
                kind, payload = wire.recv_frame(conn)
                slot.last_seen = time.monotonic()
                if kind == wire.DATA:
                    self._forward(payload)
                elif kind == wire.CONTROL:
                    self._handle_control(slot, payload)
                elif kind == wire.HEARTBEAT:
                    pass  # last_seen updated above
                elif kind == wire.FAULT_REQ:
                    self._handle_fault_req(slot, payload)
                elif kind == wire.RESULT:
                    self._handle_result(slot, payload)
                elif kind == wire.FIN:
                    self._handle_fin(slot)
        except (EOFError, OSError):  # repro-lint: disable=EXC001 -- audited: disconnect; the finally block routes it to _on_disconnect
            pass
        except wire.WireError as exc:
            # A malformed frame is a protocol violation, not a clean
            # death — surface it on the slot so the run fails loudly.
            # Exception: a rank we just SIGKILLed (live fault injection)
            # legitimately dies mid-frame; that stays an expected
            # disconnect and keeps its HardFault accounting.
            if slot is not None:
                with self.lock:
                    if (
                        not slot.kill_requested
                        and not self._closing
                        and slot.error is None
                    ):
                        slot.error = MachineError(
                            f"wire protocol violation on rank "
                            f"{slot.rank}'s connection: {exc}"
                        )
        finally:
            if slot is not None:
                self._on_disconnect(slot)
            else:
                _close_quietly(conn)

    # -------------------------------------------------------------- relaying
    def _send_to(self, slot: _RankSlot, kind: str, payload: Any) -> None:
        """Write a frame to one rank, dropping on any failure.

        Sends to dead/exited ranks succeed silently, matching the
        simulator (and physical reality): the sender cannot know.
        """
        with slot.wlock:
            self._write_locked(slot, kind, payload)

    @staticmethod
    def _write_locked(slot: _RankSlot, kind: str, payload: Any) -> None:
        """:meth:`_send_to` for a caller already holding ``slot.wlock``."""
        conn = slot.conn
        if conn is None:
            return
        try:
            wire.send_frame(conn, kind, payload)
        except OSError:  # repro-lint: disable=EXC001 -- audited: send-to-dead-rank succeeds silently by contract (see _send_to)
            pass

    def _forward(self, msg: Any) -> None:
        self._send_to(self.slots[msg.dest], wire.DELIVER, msg)

    def _broadcast(self, op: str, rank: int, value: Any = None) -> None:
        for slot in self.slots:
            self._send_to(slot, wire.EVENT, (op, rank, value))

    def _snapshot(self) -> dict[str, Any]:
        consensus = self.consensus
        with consensus.lock:
            return {
                "alive": list(consensus.alive),
                "finished": list(consensus.finished),
                "aborted": list(consensus.aborted_task),
                "incarnations": list(consensus.incarnations),
            }

    # -------------------------------------------------------------- controls
    def _handle_control(self, slot: _RankSlot, payload: tuple) -> None:
        seq, op, args = payload
        value = self._control(slot, op, args)
        self._send_to(slot, wire.CONTROL_REPLY, (seq, value))

    def _control(self, slot: _RankSlot, op: str, args: tuple) -> Any:
        """Dispatch a rank's control to the :class:`Consensus`, then
        broadcast any liveness change it made."""
        if op == "purge":
            # The FIFO cut: the marker goes down the purging rank's own
            # socket *before* this control's reply (same write lock), so
            # the rank's receiver delivers everything forwarded so far,
            # purges, and only then unblocks the caller.
            (rank,) = args
            self._send_to(self.slots[rank], wire.PURGE_DONE, None)
            return None
        if op not in _CONTROLS:
            raise MachineError(f"unknown control op {op!r} from rank {slot.rank}")
        value = getattr(self.consensus, op)(*args)
        if op == "die":
            self._broadcast("dead", args[0])
        elif op == "replace":
            self._broadcast("replacement", args[0], value)
        elif op == "abort":
            self._broadcast("abort", *args)
        return value

    # ------------------------------------------------------------ fault path
    def _handle_fault_req(self, slot: _RankSlot, census: dict) -> None:
        """A rank reached its scheduled fault point in live mode: kill it.

        The census shipped with the request preserves the victim's
        accounting (clock, ledger, recorder ops, fault log) — the only
        state the ``SIGKILL`` is allowed to destroy is the state the
        paper's fault model says a crash destroys.
        """
        with self.lock:
            slot.censuses.append(census)
            slot.kill_requested = True
            proc = slot.proc
        self.consensus.die(slot.rank)
        self._broadcast("dead", slot.rank)
        if proc is not None and proc.pid is not None:
            _kill_quietly(proc.pid)

    def _handle_result(self, slot: _RankSlot, census: dict) -> None:
        with self.lock:
            slot.censuses.append(census)
            slot.result = census.get("result")
            slot.error = census.get("error")
            slot.got_result = True
        if census.get("error") is not None:
            self.consensus.die(slot.rank)

    def _handle_fin(self, slot: _RankSlot) -> None:
        self.consensus.finish(slot.rank)
        self._broadcast("finished", slot.rank)
        slot.done.set()

    def _on_disconnect(self, slot: _RankSlot) -> None:
        """Socket EOF: clean exit after FIN, or a death to account for."""
        with self.lock:
            conn, slot.conn = slot.conn, None
            closing = self._closing
        if conn is not None:
            _close_quietly(conn)
        if slot.got_result or closing:
            slot.done.set()
            return
        respawn = False
        with self.lock:
            was_killed = slot.kill_requested
            slot.kill_requested = False
            if was_killed and self.fault_mode == "respawn":
                respawn = True
                # The monitor must not mistake the killed incarnation's
                # corpse for a lost rank while the replacement spawns.
                slot.proc = None
            elif slot.error is None:
                if was_killed and slot.censuses:
                    census = slot.censuses[-1]
                    slot.error = HardFault(
                        slot.rank,
                        census.get("phase") or "init",
                        census.get("op_index") or 0,
                    )
                else:
                    slot.error = MachineError(
                        f"rank {slot.rank} terminated unexpectedly"
                    )
        self.consensus.die(slot.rank)
        if respawn:
            self._respawn(slot)
        else:
            self._broadcast("dead", slot.rank)
            slot.done.set()

    def _respawn(self, slot: _RankSlot) -> None:
        """Start the replacement process at the next incarnation.

        It runs the same rank program from the top — the paper's model:
        the replacement processor has none of the victim's data and
        must re-acquire its state through the protocol.
        """
        with self.lock:
            base = self.configs[slot.rank]
        consensus = self.consensus
        with consensus.lock:
            incarnation = consensus.incarnations[slot.rank] + 1
        config = dataclasses.replace(base, incarnation=incarnation)
        self._spawn_rank(config)

    # -------------------------------------------------------------- watchdog
    def _monitor_loop(self) -> None:
        silence_limit = 20.0 * heartbeat_interval() * timeout_scale()
        interval = max(poll_interval(), heartbeat_interval() / 2.0)
        while True:
            if self._closing:
                return
            time.sleep(interval)
            now = time.monotonic()
            for slot in self.slots:
                if slot.done.is_set():
                    continue
                with self.lock:
                    proc = slot.proc
                    conn = slot.conn
                    last = slot.last_seen
                if conn is not None and now - last > silence_limit:
                    # Wedged: no frames and no heartbeats.  Kill it so
                    # the EOF pipeline converts it into a normal death.
                    if proc is not None and proc.pid is not None:
                        _kill_quietly(proc.pid)
                elif conn is None and proc is not None and not proc.is_alive():
                    # Died before ever connecting (e.g. crash in spawn):
                    # no EOF will arrive, account for it here.
                    with self.lock:
                        if slot.error is None:
                            slot.error = MachineError(
                                f"rank {slot.rank} terminated unexpectedly"
                            )
                    self.consensus.die(slot.rank)
                    self._broadcast("dead", slot.rank)
                    slot.done.set()

    # -------------------------------------------------------------- teardown
    def _teardown(self) -> None:
        """Reap everything; never leaks, including on KeyboardInterrupt."""
        with self.lock:
            self._closing = True
        if self.listener is not None:
            _close_quietly(self.listener)
        for slot in self.slots:
            self._send_to(slot, wire.SHUTDOWN, None)
        deadline = time.monotonic() + join_grace(self.machine.timeout)
        with self.lock:
            children = list(self._spawned)
        for proc in children:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=join_grace(self.machine.timeout))
        for slot in self.slots:
            with slot.wlock:
                conn, slot.conn = slot.conn, None
            if conn is not None:
                _close_quietly(conn)
        with _CHILDREN_LOCK:
            for proc in children:
                if not proc.is_alive():
                    _CHILDREN.discard(proc)

    # -------------------------------------------------------------- assembly
    def _assemble(self, raise_on_error: bool) -> RunResult:
        machine = self.machine
        results: list[Any] = [None] * machine.size
        errors: dict[int, BaseException] = {}
        per_rank: list[Counts] = []
        ledgers: list[PhaseLedger] = []
        peaks: list[int] = []
        fault_log = FaultLog()
        for slot in self.slots:
            clock = Counts()
            ledger = PhaseLedger()
            peak = 0
            for census in slot.censuses:
                clock = clock.merge(census["clock"])
                for name, counts in census["ledger"]:
                    ledger.set_phase(name)
                    ledger.charge(f=counts.f, bw=counts.bw, l=counts.l)
                peak = max(peak, census["peak"])
                fault_log.absorb(census["fault_entries"])
                machine.fault_schedule.absorb_fired(census["fired"])
                ops = census.get("recorder_ops")
                if ops:
                    machine.tracer.absorb(ops)
            per_rank.append(clock)
            ledgers.append(ledger)
            peaks.append(peak)
            results[slot.rank] = slot.result
            if slot.error is not None:
                errors[slot.rank] = slot.error
        critical = Counts()
        for counts in per_rank:
            critical = critical.merge(counts)
        result = RunResult(
            results=results,
            critical_path=critical,
            per_rank=per_rank,
            phase_costs=merge_phase_costs(ledgers),
            peak_memory=peaks,
            fault_log=fault_log,
            errors=errors,
            trace=machine.tracer if machine.tracer.enabled else None,
            metrics=None,
        )
        if errors and raise_on_error:
            raise_run_errors(errors)
        return result
