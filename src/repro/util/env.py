"""Host-environment knobs shared across subsystems.

The simulator itself is virtual-time deterministic; the only environment
the project reads is the handful of knobs below, all of which shape *how*
a run executes (worker counts, watchdog slack) and never *what* it
computes.  Centralizing the parsing keeps the reads auditable — the
determinism lint rules stay clean because none of these touch the wall
clock or entropy.

``REPRO_TIMEOUT_SCALE``
    Multiplies every per-receive deadlock timeout (and the worker-pool
    task deadlines).  Loaded CI boxes run the same virtual-time schedule
    but slower in wall-clock terms, so the watchdog — a host-level
    safety net, not part of the modeled execution — must stretch with
    the host.  Default ``1.0``.

``REPRO_JOBS``
    Default worker count for fan-out helpers that do not receive an
    explicit ``--jobs`` (the benchmark sweeps).  Default ``1`` (serial).

``REPRO_MP_START_METHOD``
    Start method for pool workers (``spawn``/``fork``/``forkserver``).
    Default ``spawn``: immune to fork-with-locks hazards and identical
    across platforms; set ``fork`` to trade that safety for faster
    worker start on Linux.

``REPRO_PERF_DIR``
    Directory holding the benchmark trajectory files
    (``BENCH_<suite>.json``, see docs/OBSERVABILITY.md "Perf
    observatory").  Unset means the caller's default: the repository
    root for ``benchmarks/_common.emit``, the current directory for
    ``python -m repro perf``.

``REPRO_PERF_BASELINE``
    Directory holding the pinned baseline records ``repro perf compare``
    gates against.  Default ``benchmarks/baselines``.

``REPRO_BACKEND``
    Execution backend for :class:`~repro.machine.engine.Machine` runs:
    ``sim`` (default, in-process simulator) or ``proc`` (one real OS
    process per rank exchanging messages over localhost sockets — see
    docs/MACHINE.md "Backends").  Conformance-gated: both backends
    produce bit-identical products and communication graphs.

``REPRO_HEARTBEAT``
    Rank heartbeat interval in seconds for the process backend (default
    ``0.5``).  The watchdog declares a rank dead after
    ``20 * interval * REPRO_TIMEOUT_SCALE`` of silence (or immediately on
    process exit / socket EOF, which are authoritative).

``REPRO_PORT_RANGE``
    TCP port range ``LO-HI`` the process-backend coordinator binds in
    (first free port wins).  Unset = an ephemeral kernel-assigned port.

``REPRO_PROC_FAULTS``
    How the process backend realizes scheduled hard faults: ``sim``
    (default — raise :class:`~repro.machine.errors.HardFault` inside the
    rank process, preserving the simulator's in-thread replacement
    protocol and full conformance), ``kill`` (the coordinator actually
    ``SIGKILL``\\ s the rank at the scheduled fault point), or
    ``respawn`` (``kill`` plus a replacement process at the next
    incarnation).  See docs/MACHINE.md "Backends".

The full user-facing table of these variables lives in README.md
("Environment variables"); keep the two in sync.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "timeout_scale",
    "scaled_timeout",
    "poll_interval",
    "join_grace",
    "default_jobs",
    "start_method",
    "perf_dir",
    "perf_baseline",
    "backend",
    "backend_scope",
    "heartbeat_interval",
    "port_range",
    "proc_fault_mode",
]

_SCALE_VAR = "REPRO_TIMEOUT_SCALE"
_JOBS_VAR = "REPRO_JOBS"
_START_VAR = "REPRO_MP_START_METHOD"
_PERF_DIR_VAR = "REPRO_PERF_DIR"
_PERF_BASELINE_VAR = "REPRO_PERF_BASELINE"
_BACKEND_VAR = "REPRO_BACKEND"
_HEARTBEAT_VAR = "REPRO_HEARTBEAT"
_PORT_RANGE_VAR = "REPRO_PORT_RANGE"
_PROC_FAULTS_VAR = "REPRO_PROC_FAULTS"

#: Polling granularity for watchdog/fail-over loops, in seconds.  This is
#: a *sampling rate*, not a deadline: scaling it with the host would slow
#: fail-over detection without buying any robustness, so it is the one
#: timing constant deliberately outside ``REPRO_TIMEOUT_SCALE`` — and the
#: single place it is written down (TIME001 enforces that no other module
#: hard-codes a timeout literal).
_POLL_INTERVAL = 0.02

#: Grace multiplier on the machine timeout that bounds how long the
#: simulator waits for a rank to hand back control (or the process
#: backend for a rank process to terminate) once its work should be done.
_JOIN_GRACE_FACTOR = 4.0


def timeout_scale() -> float:
    """The host timeout multiplier (``REPRO_TIMEOUT_SCALE``, default 1.0).

    Invalid values raise :class:`ValueError` immediately rather than
    silently running with an unscaled watchdog.
    """
    raw = os.environ.get(_SCALE_VAR)
    if raw is None or not raw.strip():
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        raise ValueError(
            f"{_SCALE_VAR} must be a number, got {raw!r}"
        ) from None
    if scale <= 0 or scale != scale or scale == float("inf"):
        raise ValueError(f"{_SCALE_VAR} must be positive and finite, got {raw!r}")
    return scale


def scaled_timeout(timeout: float) -> float:
    """``timeout`` stretched by the host scale factor.

    The single funnel for every host-level deadline in the project: any
    wall-clock budget (per-receive watchdog, pool task deadline, worker
    shutdown grace, heartbeat silence window) must pass through here so
    ``REPRO_TIMEOUT_SCALE`` stretches all of them coherently.
    """
    return timeout * timeout_scale()


def poll_interval() -> float:
    """Watchdog/fail-over polling granularity in seconds (unscaled —
    see the module constant for why)."""
    return _POLL_INTERVAL


def join_grace(timeout: float) -> float:
    """How long to wait for a rank to terminate once its work should be
    done: the (already scaled) machine ``timeout`` times a fixed grace
    factor.  Shared by the simulator's scheduler and the process backend's
    shutdown reaper so both backends give up in step."""
    return timeout * _JOIN_GRACE_FACTOR


def default_jobs() -> int:
    """Default fan-out width (``REPRO_JOBS``, default 1 = serial)."""
    raw = os.environ.get(_JOBS_VAR)
    if raw is None or not raw.strip():
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(f"{_JOBS_VAR} must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise ValueError(f"{_JOBS_VAR} must be >= 1, got {raw!r}")
    return jobs


def _path_var(name: str) -> str | None:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    return raw.strip()


def perf_dir() -> str | None:
    """Trajectory directory override (``REPRO_PERF_DIR``), or ``None``."""
    return _path_var(_PERF_DIR_VAR)


def perf_baseline() -> str | None:
    """Baseline directory override (``REPRO_PERF_BASELINE``), or ``None``."""
    return _path_var(_PERF_BASELINE_VAR)


def start_method() -> str:
    """Worker start method (``REPRO_MP_START_METHOD``, default ``spawn``)."""
    raw = os.environ.get(_START_VAR, "").strip()
    if not raw:
        return "spawn"
    if raw not in ("spawn", "fork", "forkserver"):
        raise ValueError(
            f"{_START_VAR} must be spawn, fork or forkserver, got {raw!r}"
        )
    return raw


def backend() -> str:
    """Machine execution backend (``REPRO_BACKEND``: ``sim``/``proc``)."""
    raw = os.environ.get(_BACKEND_VAR, "").strip()
    if not raw:
        return "sim"
    if raw not in ("sim", "proc"):
        raise ValueError(f"{_BACKEND_VAR} must be sim or proc, got {raw!r}")
    return raw


@contextmanager
def backend_scope(name: str) -> Iterator[None]:
    """Scope ``REPRO_BACKEND`` to ``name`` for the duration of the block.

    The backend is resolved per :meth:`~repro.machine.engine.Machine.run`,
    so scoping the variable around a call that builds machines internally
    (campaign trials, commcheck extraction) selects the backend for every
    machine in that call — including ones constructed in worker processes,
    which inherit the environment.
    """
    if name not in ("sim", "proc"):
        raise ValueError(f"backend must be sim or proc, got {name!r}")
    previous = os.environ.get(_BACKEND_VAR)
    os.environ[_BACKEND_VAR] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(_BACKEND_VAR, None)
        else:
            os.environ[_BACKEND_VAR] = previous


def proc_fault_mode() -> str:
    """Hard-fault realization on the process backend
    (``REPRO_PROC_FAULTS``: ``sim``/``kill``/``respawn``, default
    ``sim``)."""
    raw = os.environ.get(_PROC_FAULTS_VAR, "").strip()
    if not raw:
        return "sim"
    if raw not in ("sim", "kill", "respawn"):
        raise ValueError(
            f"{_PROC_FAULTS_VAR} must be sim, kill or respawn, got {raw!r}"
        )
    return raw


def heartbeat_interval() -> float:
    """Process-backend heartbeat interval (``REPRO_HEARTBEAT``, seconds,
    default 0.5).  The silence *deadline* derived from it is scaled by
    ``REPRO_TIMEOUT_SCALE``; the send rate itself is not."""
    raw = os.environ.get(_HEARTBEAT_VAR)
    if raw is None or not raw.strip():
        return 0.5
    try:
        interval = float(raw)
    except ValueError:
        raise ValueError(
            f"{_HEARTBEAT_VAR} must be a number, got {raw!r}"
        ) from None
    if interval <= 0 or interval != interval or interval == float("inf"):
        raise ValueError(
            f"{_HEARTBEAT_VAR} must be positive and finite, got {raw!r}"
        )
    return interval


def port_range() -> tuple[int, int] | None:
    """Coordinator bind range (``REPRO_PORT_RANGE`` as ``LO-HI``), or
    ``None`` for an ephemeral port."""
    raw = os.environ.get(_PORT_RANGE_VAR)
    if raw is None or not raw.strip():
        return None
    text = raw.strip()
    lo_text, sep, hi_text = text.partition("-")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(
            f"{_PORT_RANGE_VAR} must be LO-HI, got {raw!r}"
        ) from None
    if not sep or not (0 < lo <= hi <= 65535):
        raise ValueError(
            f"{_PORT_RANGE_VAR} must satisfy 0 < LO <= HI <= 65535, got {raw!r}"
        )
    return lo, hi
