"""Kernel-level operation counters for the sequential bigint multipliers.

The ``flops`` totals the kernels return answer "how much arithmetic";
they say nothing about *shape* — how many single-limb multiplications
the run bottomed out in, how deep the recursion went, or whether the
Toom evaluation/interpolation operators came from cache.  Those are the
quantities the kernel auto-tuner (ROADMAP item 3) will tune against, so
the kernels accept an optional :class:`KernelCounters` and the perf
observatory persists them per benchmark run.

Counting is opt-in and free when off: every instrumentation site is an
``if counters is not None`` branch.  A ``KernelCounters`` is plain
single-threaded mutable state — one per kernel invocation — and
publishes into a :class:`~repro.obs.metrics.MetricsRegistry` as labeled
series:

- ``kernel_limb_mults_total{kernel=...}`` — single-word multiplications
  at the recursion leaves (the ``s``-sized hardware ops of Algorithm 1);
- ``kernel_recursion_depth{kernel=...}`` — maximum split depth (gauge);
- ``kernel_eval_cache_hits_total{kernel=...}`` /
  ``kernel_eval_cache_misses_total{kernel=...}`` — evaluation-operator
  cache effectiveness (Toom-Cook only; the compiled U/W^T come from the
  process-wide geometry cache, keyed by ``(k, points)``).
"""

from __future__ import annotations

from typing import Any

__all__ = ["KernelCounters"]


class KernelCounters:
    """Mutable op-shape counters threaded through one kernel run."""

    __slots__ = ("limb_mults", "recursion_depth", "eval_cache_hits", "eval_cache_misses")

    def __init__(self) -> None:
        self.limb_mults = 0
        self.recursion_depth = 0
        self.eval_cache_hits = 0
        self.eval_cache_misses = 0

    def add_limb_mults(self, n: int = 1) -> None:
        """Count ``n`` single-word multiplications at a recursion leaf."""
        self.limb_mults += n

    def note_depth(self, depth: int) -> None:
        """Raise the maximum recursion depth to ``depth`` if deeper."""
        if depth > self.recursion_depth:
            self.recursion_depth = depth

    def note_eval_cache(self, hit: bool) -> None:
        """Record one evaluation-operator cache lookup."""
        if hit:
            self.eval_cache_hits += 1
        else:
            self.eval_cache_misses += 1

    def merge(self, other: "KernelCounters") -> None:
        """Fold another run's counters in (depth folds as a maximum)."""
        self.limb_mults += other.limb_mults
        self.note_depth(other.recursion_depth)
        self.eval_cache_hits += other.eval_cache_hits
        self.eval_cache_misses += other.eval_cache_misses

    def publish(self, registry: Any, kernel: str) -> Any:
        """Export into ``registry`` as series labeled ``kernel=<kernel>``."""
        registry.inc("kernel_limb_mults_total", self.limb_mults, kernel=kernel)
        registry.gauge_max("kernel_recursion_depth", self.recursion_depth, kernel=kernel)
        registry.inc("kernel_eval_cache_hits_total", self.eval_cache_hits, kernel=kernel)
        registry.inc(
            "kernel_eval_cache_misses_total", self.eval_cache_misses, kernel=kernel
        )
        return registry

    def as_dict(self) -> dict[str, int]:
        return {
            "limb_mults": self.limb_mults,
            "recursion_depth": self.recursion_depth,
            "eval_cache_hits": self.eval_cache_hits,
            "eval_cache_misses": self.eval_cache_misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelCounters(limb_mults={self.limb_mults}, "
            f"recursion_depth={self.recursion_depth}, "
            f"eval_cache_hits={self.eval_cache_hits}, "
            f"eval_cache_misses={self.eval_cache_misses})"
        )
