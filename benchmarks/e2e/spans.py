"""Outside-in layer tracing for the end-to-end benchmark.

:func:`traced` swaps a timing wrapper in at every public layer function,
at the attribute its callers look up, and puts the identical original
objects back on exit.  Nothing in ``src/`` knows about it; timed runs
never install it.

Each span records its layer name, the rank that ran it (from the
carrier thread name ``rank-N``; -1 for the main thread), its parent
layer, wall time and CPU time.  CPU time is ``time.thread_time``, so a
rank parked inside ``recv`` or ``gate`` while other ranks run accrues
wall time but no CPU: ``wall - cpu`` is its wait.  A span's self time is
its CPU minus the CPU of the spans nested inside it on the same thread.
Spans live on per-thread stacks and in one in-memory list until the
caller folds them with :meth:`SpanRecorder.totals`.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: (module, class or None, attribute, layer).  Functions imported by name
#: are patched in every module that binds them.
SITES: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.bigint.lazy", "LazyToomCook", "multiply_blocks", "bigint.leaf"),
    *(
        (f"repro.core.{mod}", None, "apply_matrix_to_blocks", "bigint.blockops")
        for mod in ("parallel_toomcook", "ft_polynomial", "ft_toomcook", "multistep",
                    "soft_faults")
    ),
    ("repro.core.ft_linear", "ColumnCode", "encode", "coding.encode"),
    ("repro.core.ft_linear", "ColumnCode", "recover", "coding.recover"),
    ("repro.core.ft_linear", None, "recovery_coefficients", "coding.coefficients"),
    ("repro.machine.comm", "Communicator", "send", "machine.send"),
    ("repro.machine.comm", "Communicator", "recv", "machine.recv"),
    ("repro.machine.comm", "Communicator", "gate", "machine.sync"),
    ("repro.machine.comm", "Communicator", "agree_dead", "machine.sync"),
    ("repro.machine.collectives", None, "t_reduce", "machine.collective"),
    ("repro.machine.collectives", None, "t_broadcast", "machine.collective"),
    ("repro.machine.engine", "Machine", "run", "machine.run"),
    ("repro.core.layout", "CyclicLayout", "distribute", "core.layout"),
    ("repro.core.layout", "CyclicLayout", "collect", "core.layout"),
    ("repro.campaign.runner", None, "probe_variant", "campaign.probe"),
    ("repro.campaign.runner", None, "classify", "campaign.classify"),
)

#: The recursive leaf kernel opens a span only at its outermost call.
_OUTERMOST_ONLY = {"bigint.leaf"}
RANK_LAYER = "core.rank"


def site_owners() -> list[tuple[Any, str, str]]:
    """``(owner object, attribute, layer)`` for every site."""
    out = []
    for module, cls, attr, layer in SITES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        out.append((owner, attr, layer))
    return out


@dataclass
class Span:
    """One finished span; times in seconds, ``start`` on ``perf_counter``."""

    rank: int
    layer: str
    parent: str | None
    start: float
    wall: float
    cpu: float
    self_cpu: float


@dataclass
class RunRecord:
    """One ``Machine.run`` call: its size and modeled traffic."""

    size: int
    words: int = 0
    messages: int = 0


@dataclass
class SpanRecorder:
    """In-memory span store shared by every thread of one traced op."""

    spans: list[Span] = field(default_factory=list)
    runs: list[RunRecord] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> tuple[int, list]:
        local = self._local
        try:
            return local.rank, local.stack
        except AttributeError:
            name = threading.current_thread().name
            local.rank = int(name[5:]) if name.startswith("rank-") else -1
            local.stack = []
            return local.rank, local.stack

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span around each call (outermost only for
        recursive layers)."""
        outermost_only = layer in _OUTERMOST_ONLY
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rank, stack = self._stack()
            if outermost_only and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]  # layer, CPU of nested spans
            stack.append(frame)
            t0, c0 = perf(), cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                c = cpu() - c0
                wall = perf() - t0
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += c
                self.spans.append(Span(rank, layer, parent, t0, wall, c, c - frame[1]))

        return wrapper

    def wrap_machine_run(self, run: Callable) -> Callable:
        """``Machine.run`` that also spans the rank program it is given
        and records the run's size and traffic."""
        traced_run = self.wrap("machine.run", run)

        @functools.wraps(run)
        def wrapper(machine: Any, program: Callable, *args: Any, **kwargs: Any) -> Any:
            record = RunRecord(size=machine.size)
            self.runs.append(record)
            result = traced_run(machine, self.wrap(RANK_LAYER, program), *args, **kwargs)
            record.words = sum(c.bw for c in result.per_rank)
            record.messages = sum(c.l for c in result.per_rank)
            return result

        return wrapper


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the span wrappers for the duration of the block."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, layer in site_owners():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if layer == "machine.run":
                setattr(owner, attr, recorder.wrap_machine_run(original))
            else:
                setattr(owner, attr, recorder.wrap(layer, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
