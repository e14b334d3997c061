"""Raw process-spawn primitive for machine backends.

:class:`~repro.parallel.pool.WorkerPool` covers *task fan-out* — run a
picklable function N times, collect results in order — but the process
backend (:mod:`repro.machine.backends`) needs something lower-level: one
long-lived process per rank, each holding a socket back to the
coordinator, with the *coordinator* deciding liveness (heartbeats, EOF,
``SIGKILL`` injection) rather than a retry policy.  That primitive lives
here so ``parallel/`` remains the single home of process management
(lint rule ``PAR001``) and every spawn in the project honours
``REPRO_MP_START_METHOD``.

Children are started as daemons: if the coordinating process dies
without running its teardown path, the interpreter reaps them on exit
instead of leaking orphans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.util.env import start_method

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

__all__ = ["spawn_process"]


def spawn_process(
    target: Callable[..., Any],
    args: tuple = (),
    name: str | None = None,
) -> BaseProcess:
    """Start ``target(*args)`` in a fresh daemon process and return it.

    ``target`` and ``args`` must be picklable under the configured start
    method (``spawn`` by default — see
    :func:`repro.util.env.start_method`).  The caller owns the returned
    handle: join or kill it; the daemon flag is only the last-resort
    orphan guard.
    """
    import multiprocessing

    ctx = multiprocessing.get_context(start_method())
    process = ctx.Process(target=target, args=args, name=name, daemon=True)
    process.start()
    return process
