"""Schedule extraction: one fault-free recorded run per variant.

The communication structure of every algorithm here is *data-oblivious*
given the plan parameters ``(P, k, f)``: which rank talks to which, with
which tag, in which phase, is fixed by the traversal geometry, not by
the operand values.  Extraction therefore runs the real machine
once, fault-free, with a :class:`~repro.machine.record.ScheduleRecorder`
installed, and the recorded per-rank program order *is* the schedule.
(Message *sizes* do scale with the operand length, which is why the
certifier's formulas take ``n_words`` from the same plan.)

Determinism: each rank's op list follows its own deterministic program
order; no cross-rank interleaving order is recorded, and extraction is
fault-free, so the canonical JSON is byte-identical across runs — a
property the test suite pins.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from typing import Any

from repro.campaign.registry import get_variant, registered_variants
from repro.campaign.runner import CampaignConfig, _workload_rng
from repro.commcheck.graph import CommGraph
from repro.core.layout import FaultGeometry
from repro.machine.fault import FaultSchedule
from repro.machine.record import ScheduleRecorder
from repro.util.env import backend_scope

__all__ = [
    "COMMCHECK_VARIANTS",
    "ExtractionError",
    "graph_meta",
    "make_config",
    "extract_variant",
]

#: The registered algorithm variants, in registry order.
COMMCHECK_VARIANTS = tuple(spec.name for spec in registered_variants())


class ExtractionError(RuntimeError):
    """The extraction run failed — the schedule cannot be trusted."""


def make_config(
    p: int = 9,
    k: int = 2,
    f: int = 1,
    bits: int = 600,
    word_bits: int = 16,
    timeout: float = 15.0,
    seed: int = 0,
) -> CampaignConfig:
    """Campaign-compatible config for extraction (fault settings unused)."""
    return CampaignConfig(
        seed=seed,
        trials=1,
        bits=bits,
        word_bits=word_bits,
        p=p,
        k=k,
        f=f,
        timeout=timeout,
        minimize=False,
    )


def graph_meta(name: str, cfg: CampaignConfig, geometry: FaultGeometry) -> dict[str, Any]:
    """A graph's meta: the extraction parameters plus the variant's
    geometry, as its algorithm states it."""
    meta: dict[str, Any] = {
        "variant": name,
        "p": cfg.p,
        "k": cfg.k,
        "f": cfg.f,
        "bits": cfg.bits,
        "word_bits": cfg.word_bits,
        "seed": cfg.seed,
    }
    size, code_ranks = geometry.machine_size, list(geometry.code_ranks)
    # The plain algorithm carries no redundancy; its graphs record the
    # configured f.
    f_eff = geometry.f_eff or cfg.f
    plan = geometry.plan
    # Key order is part of the JSON report's bytes.
    if plan is None:
        meta.update(machine_size=size, code_ranks=code_ranks, f_eff=f_eff, n_words=0)
    else:
        meta.update(n_words=plan.n_words, l_bfs=plan.l_bfs, l_dfs=plan.l_dfs)
        meta.update(f_eff=f_eff, code_ranks=code_ranks, machine_size=size)
    if geometry.l is not None:
        meta["l"] = geometry.l
    return meta


def extract_variant(
    name: str,
    cfg: CampaignConfig | None = None,
    backend: str | None = None,
) -> CommGraph:
    """Run variant ``name`` fault-free under a recorder; return its graph.

    The run must succeed *and* produce the correct result — a wrong or
    failed extraction run means the recorded schedule is not the
    fault-free schedule, so it raises :class:`ExtractionError` instead of
    returning a misleading graph.

    ``backend`` scopes ``REPRO_BACKEND`` around the extraction run
    (``None`` = whatever the environment says).  The backend-conformance
    gate extracts the same variant on ``sim`` and ``proc`` and
    byte-compares the canonical JSON.
    """
    cfg = cfg or make_config()
    if name not in COMMCHECK_VARIANTS:
        raise ExtractionError(f"unknown variant {name!r}")
    spec = get_variant(name)
    workload = spec.make_workload(_workload_rng(cfg.seed, name), cfg)
    recorder = ScheduleRecorder()
    scope = backend_scope(backend) if backend is not None else nullcontext()
    with scope:
        execution = spec.execute(
            workload, FaultSchedule(), replace(cfg), trace=recorder
        )
    if execution.error is not None:
        raise ExtractionError(
            f"fault-free extraction run of {name!r} failed: "
            f"{execution.error!r}"
        )
    if execution.actual != execution.expected:
        raise ExtractionError(
            f"fault-free extraction run of {name!r} produced a wrong result"
        )
    geometry = spec.fault_geometry(cfg)
    ranks = recorder.ops()
    # Ranks that never communicated still belong in the graph.
    for rank in range(geometry.machine_size):
        ranks.setdefault(rank, [])
    return CommGraph(meta=graph_meta(name, cfg, geometry), ranks=ranks)
