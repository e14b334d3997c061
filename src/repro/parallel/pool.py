"""A deterministic process-pool executor for independent simulation runs.

Every heavy workflow in this repo — fault campaigns, comm-graph
extraction, benchmark sweeps — is a fan-out of *independent* simulated
:class:`~repro.machine.engine.Machine` runs.  :class:`WorkerPool` runs
such fan-outs across CPU cores while keeping the results **byte-identical
to serial execution**:

- Tasks are explicit, picklable descriptions (:class:`Task`): a
  module-level function plus arguments that carry their own seeds.  No
  wall-clock, PID, or scheduling entropy ever reaches a task's inputs.
- Results are reassembled strictly in submission order; completion order
  is never observable to the caller.
- A worker crash (signal, OOM kill, interpreter abort) or a per-task
  timeout is retried on a **fresh** worker up to ``max_retries`` times
  and then surfaced loudly in a :class:`WorkerPoolError` — a task is
  never silently dropped.
- An exception *raised by the task function* is deterministic (the task
  would fail again on any worker), so it is not retried; it is captured
  with its traceback and surfaced in the same :class:`WorkerPoolError`.
- Per-task wall-clock durations, outcomes, and retry counts flow into a
  :class:`~repro.obs.metrics.MetricsRegistry` (``pool_task_seconds``,
  ``pool_tasks_total``, ``pool_retries_total``).  Pool metrics are
  host-side observability and are deliberately kept out of any
  deterministic report (wall time differs run to run).

``jobs=1`` executes the tasks in-process with a plain loop — no worker
processes, no pickling, exceptions propagate raw — so a serial run is
*exactly* the serial code path, not a one-worker pool.

Timeouts are wall-clock by necessity (this is the host watchdog layer,
outside the virtual-time simulation) and stretch with
``REPRO_TIMEOUT_SCALE`` like the machine's deadlock detector
(:mod:`repro.util.env`).
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.util.env import (
    default_jobs,
    scaled_timeout,
    start_method,
    timeout_scale,
)

__all__ = [
    "Task",
    "TaskFailure",
    "WorkerPool",
    "WorkerPoolError",
    "parallel_map",
]


@dataclass(frozen=True)
class Task:
    """One unit of fan-out work.

    ``fn`` must be picklable (a module-level function) and pure given its
    arguments: retries and ``jobs`` sweeps assume re-running it yields
    the same value.  ``timeout`` is the per-attempt wall-clock budget in
    seconds (``None`` = no deadline); it is multiplied by
    ``REPRO_TIMEOUT_SCALE`` at dispatch time.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    key: str = ""
    timeout: float | None = None

    def label(self, index: int) -> str:
        return self.key or f"task-{index}"


@dataclass(frozen=True)
class TaskFailure:
    """Why one task was abandoned (carried by :class:`WorkerPoolError`)."""

    index: int
    key: str
    kind: str  # "exception" | "crash" | "timeout"
    attempts: int
    detail: str

    def render(self) -> str:
        return (
            f"[{self.kind}] {self.key} (task {self.index}, "
            f"{self.attempts} attempt(s)): {self.detail}"
        )


class WorkerPoolError(RuntimeError):
    """One or more tasks failed for good.  Never raised silently: the
    message enumerates every abandoned task with its failure kind and
    attempt count."""

    def __init__(self, failures: Sequence[TaskFailure]):
        self.failures = tuple(failures)
        lines = [f"{len(self.failures)} task(s) failed:"]
        lines += [f"  {f.render()}" for f in self.failures]
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class _RemoteError:
    """Picklable capture of an exception raised inside a worker."""

    type_name: str
    message: str
    traceback_text: str

    def render(self) -> str:
        out = f"{self.type_name}: {self.message}"
        if self.traceback_text:
            out += "\n" + self.traceback_text.rstrip()
        return out


def _worker_main(conn: Any) -> None:
    """Worker loop: receive ``(index, attempt, fn, args, kwargs)``,
    reply ``(index, attempt, status, value)``.  ``None`` shuts down."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            conn.close()
            return
        index, attempt, fn, args, kwargs = msg
        try:
            value = fn(*args, **kwargs)
            reply = (index, attempt, "ok", value)
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            reply = (
                index,
                attempt,
                "error",
                _RemoteError(type(exc).__name__, str(exc), traceback.format_exc()),
            )
        try:
            conn.send(reply)
        except BaseException as exc:  # noqa: BLE001 - unpicklable result
            conn.send(
                (
                    index,
                    attempt,
                    "error",
                    _RemoteError(
                        type(exc).__name__,
                        f"task result could not be pickled: {exc}",
                        "",
                    ),
                )
            )


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("process", "conn", "current", "deadline", "started")

    def __init__(self, process: Any, conn: Any):
        self.process = process
        self.conn = conn
        self.current: tuple[int, int] | None = None  # (index, attempt)
        self.deadline: float | None = None
        self.started: float = 0.0


class WorkerPool:
    """Deterministic fan-out executor (see module docstring).

    Parameters
    ----------
    jobs:
        Worker-process count.  ``1`` (the default) runs tasks in-process
        serially; ``None`` reads ``REPRO_JOBS``.
    max_retries:
        How many times a crashed or timed-out task is re-dispatched to a
        fresh worker before it is abandoned (default 2, i.e. up to 3
        attempts).
    metrics:
        Registry receiving ``pool_*`` series (default: a private one,
        exposed as ``pool.metrics``).
    start_method:
        ``spawn``/``fork``/``forkserver`` override (default: the
        ``REPRO_MP_START_METHOD`` environment knob, which defaults to
        ``spawn``).
    """

    def __init__(
        self,
        jobs: int | None = 1,
        max_retries: int = 2,
        metrics: MetricsRegistry | None = None,
        start_method: str | None = None,
    ):
        if jobs is None:
            jobs = default_jobs()
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.jobs = jobs
        self.max_retries = max_retries
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._start_method = start_method

    # -- public API ---------------------------------------------------------

    def run(self, tasks: Iterable[Task]) -> list[Any]:
        """Execute ``tasks``; return their values in submission order.

        Raises :class:`WorkerPoolError` after all salvageable work is
        done when any task was abandoned (its entry in the result list
        would have been meaningless).  With ``jobs=1`` this is a plain
        serial loop and task exceptions propagate unwrapped.
        """
        task_list = list(tasks)
        if not task_list:
            return []
        if self.jobs <= 1:
            return self._run_serial(task_list)
        return _PoolRun(self, task_list).execute()

    # -- serial path --------------------------------------------------------

    def _run_serial(self, tasks: list[Task]) -> list[Any]:
        results: list[Any] = []
        for index, task in enumerate(tasks):
            start = time.monotonic()
            value = task.fn(*task.args, **task.kwargs)
            self._record(task.label(index), "ok", time.monotonic() - start)
            results.append(value)
        return results

    # -- shared metric helpers ---------------------------------------------

    def _record(self, key: str, outcome: str, duration: float | None) -> None:
        self.metrics.inc("pool_tasks_total", key=key, outcome=outcome)
        if duration is not None:
            self.metrics.observe("pool_task_seconds", max(0.0, duration), key=key)


class _PoolRun:
    """State of one parallel :meth:`WorkerPool.run` invocation."""

    def __init__(self, pool: WorkerPool, tasks: list[Task]):
        # Imported here: a ``jobs=1`` pool starts no process and does not
        # pay for ``multiprocessing``.
        from multiprocessing import connection, get_context

        self.pool = pool
        self.tasks = tasks
        self.ctx = get_context(pool._start_method or start_method())
        self.wait = connection.wait
        self.scale = timeout_scale()
        self.pending: deque[int] = deque(range(len(tasks)))
        self.attempts = [0] * len(tasks)
        self.results: list[Any] = [None] * len(tasks)
        self.failures: list[TaskFailure] = []
        self.remaining = len(tasks)
        self.workers: list[_WorkerHandle] = []

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        process = self.ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        # Close the parent's copy of the child end: the worker dying must
        # close the pipe's last write handle so the parent sees EOF.
        child_conn.close()
        handle = _WorkerHandle(process, parent_conn)
        self.workers.append(handle)
        self.pool.metrics.gauge_max("pool_workers", len(self.workers))
        return handle

    def _retire(self, worker: _WorkerHandle, kill: bool = False) -> None:
        if worker in self.workers:
            self.workers.remove(worker)
        if kill and worker.process.is_alive():
            worker.process.kill()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        worker.process.join(timeout=scaled_timeout(5.0))

    def _dispatch(self, worker: _WorkerHandle, index: int) -> None:
        task = self.tasks[index]
        self.attempts[index] += 1
        worker.current = (index, self.attempts[index])
        worker.started = time.monotonic()
        worker.deadline = (
            worker.started + task.timeout * self.scale
            if task.timeout is not None
            else None
        )
        worker.conn.send(
            (index, self.attempts[index], task.fn, task.args, task.kwargs)
        )

    def _fill(self) -> None:
        """Hand pending tasks to idle live workers, growing the pool up
        to ``jobs`` and replacing dead idle workers."""
        while self.pending:
            idle = None
            for worker in list(self.workers):
                if worker.current is not None:
                    continue
                if not worker.process.is_alive():
                    self._retire(worker)
                    continue
                idle = worker
                break
            if idle is None:
                if len(self.workers) >= self.pool.jobs:
                    return
                idle = self._spawn()
            self._dispatch(idle, self.pending.popleft())

    # -- failure / retry ----------------------------------------------------

    def _give_up(self, index: int, kind: str, detail: str) -> None:
        task = self.tasks[index]
        self.failures.append(
            TaskFailure(
                index=index,
                key=task.label(index),
                kind=kind,
                attempts=self.attempts[index],
                detail=detail,
            )
        )
        self.remaining -= 1

    def _retry_or_fail(self, index: int, kind: str, detail: str) -> None:
        task = self.tasks[index]
        self.pool._record(task.label(index), kind, None)
        if self.attempts[index] <= self.pool.max_retries:
            self.pool.metrics.inc("pool_retries_total", key=task.label(index))
            self.pending.appendleft(index)
        else:
            self._give_up(index, kind, detail)

    # -- event handling -----------------------------------------------------

    def _handle_reply(self, worker: _WorkerHandle) -> None:
        assert worker.current is not None
        index, attempt = worker.current
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            # The worker died between dispatch and reply: pipe closed.
            self._retire(worker)
            self._retry_or_fail(
                index,
                "crash",
                f"worker exited with code {worker.process.exitcode} "
                "before returning a result",
            )
            return
        except Exception as exc:  # noqa: BLE001 - undecodable reply
            worker.current = None
            self.pool._record(self.tasks[index].label(index), "error", None)
            self._give_up(
                index,
                "exception",
                f"task reply could not be unpickled: {type(exc).__name__}: {exc}",
            )
            return
        r_index, r_attempt, status, value = reply
        if (r_index, r_attempt) != (index, attempt):  # pragma: no cover
            return  # stale reply from a superseded attempt; ignore
        duration = time.monotonic() - worker.started
        worker.current = None
        worker.deadline = None
        task = self.tasks[index]
        if status == "ok":
            self.pool._record(task.label(index), "ok", duration)
            self.results[index] = value
            self.remaining -= 1
        else:
            self.pool._record(task.label(index), "error", duration)
            self._give_up(index, "exception", value.render())

    def _enforce_deadlines(self, now: float) -> None:
        for worker in list(self.workers):
            if worker.current is None or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            index, _attempt = worker.current
            task = self.tasks[index]
            budget = (task.timeout or 0.0) * self.scale
            self._retire(worker, kill=True)
            self._retry_or_fail(
                index,
                "timeout",
                f"attempt exceeded its {budget:.3g}s deadline "
                "(worker killed)",
            )

    def _wait_timeout(self) -> float | None:
        deadlines = [
            w.deadline
            for w in self.workers
            if w.current is not None and w.deadline is not None
        ]
        if not deadlines:
            return None
        return max(0.01, min(deadlines) - time.monotonic())

    # -- main loop ----------------------------------------------------------

    def execute(self) -> list[Any]:
        try:
            while self.remaining:
                self._fill()
                busy = {
                    w.conn: w for w in self.workers if w.current is not None
                }
                if not busy:
                    # Every outstanding task just failed for good.
                    break
                ready = self.wait(list(busy), timeout=self._wait_timeout())
                for conn in ready:
                    worker = busy[conn]
                    if worker.current is not None:
                        self._handle_reply(worker)
                self._enforce_deadlines(time.monotonic())
        finally:
            self._shutdown()
        if self.failures:
            raise WorkerPoolError(sorted(self.failures, key=lambda f: f.index))
        return self.results

    def _shutdown(self) -> None:
        for worker in list(self.workers):
            try:
                worker.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for worker in list(self.workers):
            worker.process.join(timeout=scaled_timeout(1.0))
            self._retire(worker, kill=True)


def parallel_map(
    fn: Callable[..., Any],
    arg_tuples: Iterable[tuple],
    jobs: int | None = None,
    keys: Sequence[str] | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    metrics: MetricsRegistry | None = None,
) -> list[Any]:
    """Map ``fn`` over ``arg_tuples`` through a :class:`WorkerPool`.

    ``jobs=None`` reads ``REPRO_JOBS`` (default 1 = the exact serial
    loop).  Results come back in input order regardless of completion
    order.
    """
    tasks = [
        Task(
            fn=fn,
            args=tuple(args),
            key=keys[i] if keys is not None else "",
            timeout=timeout,
        )
        for i, args in enumerate(arg_tuples)
    ]
    pool = WorkerPool(jobs=jobs, max_retries=max_retries, metrics=metrics)
    return pool.run(tasks)
