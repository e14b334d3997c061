"""Helpers shared by the benchmark modules.

Every benchmark result leaves this process through exactly one funnel:
:func:`emit`.  It renders the ``.txt`` table under ``benchmarks/results/``
(byte-identical to what it always wrote) *and* folds the run's metric
cells into a schema-versioned perf record appended to the suite's
trajectory file ``BENCH_<suite>.json`` (``repro.obs.perf``, lint rule
``OBS001`` bans any other writer).  One benchmark process produces one
record per suite; successive ``emit()`` calls upsert into it.

Deterministic model measurements go in as *cells* (compared exactly by
``python -m repro perf compare``); host wall-clock seconds measured by
:func:`once` ride along under ``wall`` with a percentage tolerance band.
"""

from __future__ import annotations

import math
import os
import random
import sys
# Wall-clock is measured here (benchmarks are host measurements, outside
# the simulator's virtual-time determinism contract); the linted src/
# tree never reads the clock.
import time
from pathlib import Path

from repro.core.plan import make_plan
from repro.obs.perf.record import add_cells, add_wall, new_record, run_manifest
from repro.obs.perf.store import PerfStore
from repro.parallel import Task, WorkerPool
from repro.util import env

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

WORD_BITS = 16

#: Per-suite perf records under construction (suite -> record); one
#: benchmark process contributes one record per suite.
_RECORDS: dict[str, dict] = {}
_RUN_KEY: str | None = None
_MANIFEST: dict | None = None
#: Wall seconds of the latest :func:`once` call, consumed by the next
#: :func:`emit` from the same module.
_LAST_WALL: float | None = None


def operands(n_bits: int, seed: int = 0) -> tuple[int, int]:
    rng = random.Random(seed)
    return rng.getrandbits(n_bits), rng.getrandbits(max(1, n_bits - 8))


def plan_for(n_bits: int, p: int, k: int, extra_dfs: int = 0, m_words: float = math.inf):
    return make_plan(
        n_bits, p=p, k=k, word_bits=WORD_BITS, extra_dfs=extra_dfs, m_words=m_words
    )


def perf_store() -> PerfStore:
    """The trajectory store benchmarks write to: ``REPRO_PERF_DIR`` when
    set (tests, CI scratch dirs), else the repository root."""
    return PerfStore(env.perf_dir() or REPO_ROOT)


def _suite_of(module_name: str) -> str:
    name = module_name.rsplit(".", 1)[-1]
    return name[len("bench_"):] if name.startswith("bench_") else name


def _record_for(suite: str) -> dict:
    global _RUN_KEY, _MANIFEST
    if _MANIFEST is None:
        _MANIFEST = run_manifest(
            seeds={"word_bits": WORD_BITS}, cwd=str(REPO_ROOT)
        )
        _RUN_KEY = f"{_MANIFEST['git_sha'][:10]}.{os.getpid()}"
    record = _RECORDS.get(suite)
    if record is None:
        record = _RECORDS[suite] = new_record(suite, _RUN_KEY, _MANIFEST)
    return record


def emit(name: str, text: str, cells=None, registry=None, wall=None) -> None:
    """Print a rendered table, persist it under ``benchmarks/results/``,
    and fold its measurements into the suite's perf record.

    ``cells`` is a flat ``{cell: number}`` mapping of the deterministic
    measurements behind the table (see :func:`series_cells` /
    :func:`table_cells`); ``registry`` contributes a
    :class:`~repro.obs.metrics.MetricsRegistry` labeled snapshot the same
    way.  ``wall`` (seconds) defaults to the duration of the most recent
    :func:`once` call.  The suite is the calling benchmark module
    (``bench_scaling`` -> ``scaling``).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)

    global _LAST_WALL
    if wall is None:
        wall = _LAST_WALL
    _LAST_WALL = None
    suite = _suite_of(sys._getframe(1).f_globals.get("__name__", "unknown"))
    record = _record_for(suite)
    merged: dict = {}
    if registry is not None:
        merged.update(registry.labeled_snapshot())
    if cells:
        merged.update(cells)
    add_cells(record, name, merged)
    if wall is not None:
        add_wall(record, name, wall)
    perf_store().upsert(suite, record)


def series_cells(xs, series) -> dict:
    """Flatten ``render_series`` inputs into perf cells:
    ``{f"{name}[{x}]": value}`` for every numeric series point."""
    cells = {}
    for name in series:
        for x, value in zip(xs, series[name]):
            cells[f"{name}[{x}]"] = value
    return cells


def table_cells(headers, rows) -> dict:
    """Flatten ``render_table`` inputs into perf cells keyed
    ``{row-label}/{column-header}`` (non-numeric cells are dropped by the
    record layer)."""
    cells = {}
    for row in rows:
        key = str(row[0])
        for header, value in zip(headers[1:], row[1:]):
            cells[f"{key}/{header}"] = value
    return cells


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value.

    Also measures the call's wall-clock seconds so the next
    :func:`emit` can attach them to its table.
    """
    global _LAST_WALL
    start = time.perf_counter()
    try:
        return benchmark.pedantic(fn, rounds=1, iterations=1)
    finally:
        _LAST_WALL = time.perf_counter() - start


def sweep(fn, param_tuples, jobs=None, keys=None):
    """Run ``fn`` over a parameter sweep, optionally across CPU cores.

    ``fn`` must be a module-level function (picklable) whose value
    depends only on its arguments — every table/figure sweep here
    qualifies, because operands derive from explicit seeds.  Results
    come back in input order, so rendered tables are byte-identical for
    any ``jobs``.  ``jobs=None`` reads ``REPRO_JOBS`` (default 1, the
    exact serial loop); benchmarks therefore stay serial unless the
    harness opts in, e.g. ``REPRO_JOBS=4 pytest benchmarks/``.
    """
    pool = WorkerPool(jobs=jobs)
    return pool.run(
        [
            Task(
                fn=fn,
                args=tuple(args),
                key=keys[i] if keys is not None else f"sweep-{i}",
            )
            for i, args in enumerate(param_tuples)
        ]
    )


def run_registry(out):
    """Per-phase metrics for an algorithm result, via the shared
    MetricsRegistry aggregation path (same series the traced view reads):
    read individual phases back with ``repro.obs.metrics.phase_cost``."""
    from repro.obs.metrics import publish_run_metrics

    return publish_run_metrics(out.run)


def comm_envelope_line(variant, out, n_words, p, k, f_eff):
    """Hold a run's measured (BW, L) — summed from its ``phase_cost``
    gauges — to the commcheck certifier's envelope for ``variant`` at the
    redundancy ``f_eff`` the run's algorithm carried.

    Returns ``(passed, line)`` where ``line`` is the one-line PASS/FAIL
    verdict the envelope benchmark prints per variant.
    """
    from repro.commcheck.certify import cost_envelope
    from repro.obs.metrics import phase_cost

    registry = run_registry(out)
    bw = l = 0.0
    for phase in out.run.phase_costs:
        costs = phase_cost(registry, phase)
        bw += costs.bw
        l += costs.l
    bound_bw, bound_l = cost_envelope(variant, n_words, p, k, f_eff)
    passed = bw <= bound_bw and l <= bound_l
    status = "PASS" if passed else "FAIL"
    line = (
        f"[{status}] {variant:<14} BW {bw:8.0f} <= {bound_bw:9.1f}   "
        f"L {l:6.0f} <= {bound_l:7.1f}"
    )
    return passed, line
