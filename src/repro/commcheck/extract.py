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

from repro.campaign.registry import FT_LINEAR_COLUMN, get_variant
from repro.campaign.runner import CampaignConfig, _workload_rng
from repro.commcheck.graph import CommGraph
from repro.core.plan import make_plan
from repro.machine.fault import FaultSchedule
from repro.machine.record import ScheduleRecorder
from repro.util.env import backend_scope

__all__ = [
    "COMMCHECK_VARIANTS",
    "ExtractionError",
    "geometry",
    "make_config",
    "extract_variant",
]

#: The eight algorithm variants, in registry order.
COMMCHECK_VARIANTS = (
    "parallel",
    "ft_linear",
    "ft_polynomial",
    "ft_toomcook",
    "soft_faults",
    "checkpoint",
    "replication",
    "multistep",
)


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


def geometry(name: str, cfg: CampaignConfig) -> dict[str, Any]:
    """Machine geometry for ``name`` under ``cfg`` (mirrors the variant
    factories in :mod:`repro.campaign.registry`)."""
    if name == "ft_linear":
        return {
            "machine_size": FT_LINEAR_COLUMN + cfg.f,
            "code_ranks": list(
                range(FT_LINEAR_COLUMN, FT_LINEAR_COLUMN + cfg.f)
            ),
            "f_eff": cfg.f,
            "n_words": 0,
        }
    extra_dfs = 1 if name == "ft_toomcook" else 0
    plan = make_plan(
        cfg.bits, p=cfg.p, k=cfg.k, word_bits=cfg.word_bits, extra_dfs=extra_dfs
    )
    p, q, f = plan.p, plan.q, cfg.f
    geo: dict[str, Any] = {
        "n_words": plan.n_words,
        "l_bfs": plan.l_bfs,
        "l_dfs": plan.l_dfs,
        "f_eff": f,
        "code_ranks": [],
        "machine_size": p,
    }
    if name == "ft_polynomial":
        g2 = p // q
        geo["code_ranks"] = list(range(p, p + f * g2))
        geo["machine_size"] = p + f * g2
    elif name == "ft_toomcook":
        g2 = p // q
        poly_base = p + f * q
        geo["code_ranks"] = list(range(poly_base, poly_base + f * g2))
        geo["machine_size"] = poly_base + f * g2
    elif name == "soft_faults":
        f_eff = 2 * f
        g2 = p // q
        geo["f_eff"] = f_eff
        geo["code_ranks"] = list(range(p, p + f_eff * g2))
        geo["machine_size"] = p + f_eff * g2
    elif name == "multistep":
        l = min(2, plan.l_bfs)
        g2 = p // q**l
        geo["l"] = l
        geo["code_ranks"] = list(range(p, p + f * g2))
        geo["machine_size"] = p + f * g2
    elif name == "replication":
        geo["machine_size"] = (f + 1) * p
    return geo


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
    meta: dict[str, Any] = {
        "variant": name,
        "p": cfg.p,
        "k": cfg.k,
        "f": cfg.f,
        "bits": cfg.bits,
        "word_bits": cfg.word_bits,
        "seed": cfg.seed,
    }
    meta.update(geometry(name, cfg))
    ranks = recorder.ops()
    # Ranks that never communicated still belong in the graph.
    for rank in range(meta["machine_size"]):
        ranks.setdefault(rank, [])
    return CommGraph(meta=meta, ranks=ranks)
