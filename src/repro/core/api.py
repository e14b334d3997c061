"""High-level entry points.

Most users want one of four calls:

- :func:`multiply` — sequential Toom-Cook-k (Algorithm 1 or the lazy
  Algorithm 2), verified exact.
- :func:`multiply_parallel` — Parallel Toom-Cook on a simulated
  ``P``-processor machine (Section 3), returning the product plus the
  measured F/BW/L cost evidence.
- :func:`multiply_fault_tolerant` — the paper's combined fault-tolerant
  algorithm (Section 4), tolerating ``f`` injected hard faults.
- :func:`multiply_replicated` — the replication baseline (Theorem 5.3).

Each parallel call accepts a fault schedule so fault campaigns are one
argument away; see :mod:`repro.machine.fault`.
"""

from __future__ import annotations

import math

from repro.bigint.lazy import LazyToomCook
from repro.bigint.toomcook import ToomCook
from repro.core.checkpoint import CheckpointedToomCook
from repro.core.ft_toomcook import FaultTolerantToomCook
from repro.core.multistep import MultiStepToomCook
from repro.core.parallel_toomcook import MultiplyOutcome, ParallelToomCook
from repro.core.plan import make_plan
from repro.core.replication import ReplicatedToomCook
from repro.core.soft_faults import SoftTolerantToomCook
from repro.machine.fault import FaultSchedule

__all__ = [
    "multiply",
    "multiply_parallel",
    "multiply_fault_tolerant",
    "multiply_replicated",
    "multiply_checkpointed",
    "multiply_multistep",
    "multiply_soft_tolerant",
]


def multiply(a: int, b: int, k: int = 3, lazy: bool = False, word_bits: int = 64) -> int:
    """Sequential Toom-Cook-k product of two ints (any sign)."""
    algo = LazyToomCook(k, threshold_bits=word_bits) if lazy else ToomCook(
        k, threshold_bits=word_bits
    )
    product, _flops = algo.multiply(a, b)
    return product


def _plan_for(a: int, b: int, p: int, k: int, word_bits: int, m_words: float):
    n_bits = max(abs(a).bit_length(), abs(b).bit_length(), 1)
    return make_plan(n_bits, p=p, k=k, word_bits=word_bits, m_words=m_words)


def multiply_parallel(
    a: int,
    b: int,
    p: int = 9,
    k: int = 2,
    word_bits: int = 64,
    m_words: float = math.inf,
    fault_schedule: FaultSchedule | None = None,
    trace=None,
) -> MultiplyOutcome:
    """Parallel Toom-Cook-k on ``p`` simulated processors (Section 3).

    ``trace`` enables the observability layer (see :mod:`repro.obs`); the
    resulting events and metrics ride back on ``outcome.run``; a
    :class:`~repro.machine.record.ScheduleRecorder` passed as ``trace``
    captures the run's communication graph (see :mod:`repro.commcheck`).
    """
    plan = _plan_for(a, b, p, k, word_bits, m_words)
    algo = ParallelToomCook(
        plan, memory_words=m_words, fault_schedule=fault_schedule, trace=trace
    )
    return algo.multiply(a, b)


def multiply_fault_tolerant(
    a: int,
    b: int,
    p: int = 9,
    k: int = 2,
    f: int = 1,
    word_bits: int = 64,
    m_words: float = math.inf,
    fault_schedule: FaultSchedule | None = None,
    trace=None,
) -> MultiplyOutcome:
    """The combined fault-tolerant algorithm (Section 4, Theorem 5.2)."""
    plan = _plan_for(a, b, p, k, word_bits, m_words)
    algo = FaultTolerantToomCook(
        plan, f=f, memory_words=m_words, fault_schedule=fault_schedule,
        trace=trace,
    )
    return algo.multiply(a, b)


def multiply_replicated(
    a: int,
    b: int,
    p: int = 9,
    k: int = 2,
    f: int = 1,
    word_bits: int = 64,
    m_words: float = math.inf,
    fault_schedule: FaultSchedule | None = None,
) -> MultiplyOutcome:
    """The replication baseline (Theorem 5.3): ``f+1`` copies."""
    plan = _plan_for(a, b, p, k, word_bits, m_words)
    algo = ReplicatedToomCook(
        plan, f=f, memory_words=m_words, fault_schedule=fault_schedule
    )
    return algo.multiply(a, b)


def multiply_checkpointed(
    a: int,
    b: int,
    p: int = 9,
    k: int = 2,
    f: int = 1,
    word_bits: int = 64,
    fault_schedule: FaultSchedule | None = None,
) -> MultiplyOutcome:
    """The checkpoint-restart baseline (global rollback)."""
    plan = _plan_for(a, b, p, k, word_bits, math.inf)
    algo = CheckpointedToomCook(plan, f=f, fault_schedule=fault_schedule)
    return algo.multiply(a, b)


def multiply_multistep(
    a: int,
    b: int,
    p: int = 9,
    k: int = 2,
    l: int = 1,
    f: int = 1,
    word_bits: int = 64,
    fault_schedule: FaultSchedule | None = None,
) -> MultiplyOutcome:
    """Multi-step fault-tolerant Toom-Cook (Sections 4.3/6.1): ``l``
    combined BFS steps, only ``f * P/(2k-1)**l`` code processors."""
    plan = _plan_for(a, b, p, k, word_bits, math.inf)
    algo = MultiStepToomCook(plan, l=l, f=f, fault_schedule=fault_schedule)
    return algo.multiply(a, b)


def multiply_soft_tolerant(
    a: int,
    b: int,
    p: int = 9,
    k: int = 2,
    f: int = 2,
    word_bits: int = 64,
    fault_schedule: FaultSchedule | None = None,
) -> MultiplyOutcome:
    """Soft-fault hardened multiplication (Section 7): detects up to ``f``
    and corrects up to ``floor(f/2)`` silent miscalculations."""
    plan = _plan_for(a, b, p, k, word_bits, math.inf)
    algo = SoftTolerantToomCook(plan, f=f, fault_schedule=fault_schedule)
    return algo.multiply(a, b)
