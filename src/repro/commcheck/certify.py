"""Cost certification: extracted graph totals vs. closed-form predictions.

The graph gives *exact* per-rank word/hop totals for a fault-free run.
The :mod:`repro.analysis.formulas` predictions are Θ-expressions with
unit leading constants, and at commcheck's deliberately small default
sizes (``bits=600``, ``P=9``) additive protocol overhead is a visible
fraction of the total.  Each variant therefore carries a calibrated
tolerance factor: ``measured <= tolerance_scale * tol * predicted`` must
hold for both BW and L.  The tolerances were measured on the live tree
at the default configuration and given roughly 2x headroom — they absorb
the honest constants of the implementation, not asymptotic drift, so a
change that doubles the communication volume of a variant still fails
the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.analysis.formulas import (
    CostPrediction,
    ft_toomcook_costs,
    parallel_toomcook_costs,
    replication_costs,
    t_reduce_costs,
)
from repro.campaign.registry import FT_LINEAR_COLUMN, FT_LINEAR_STATE_WORDS
from repro.commcheck.graph import CommGraph

__all__ = [
    "Certification",
    "certify",
    "cost_envelope",
    "measured_costs",
    "TOLERANCES",
]

#: Per-variant (tol_bw, tol_l): calibrated on the live tree at the
#: default (P=9, k=2, f=1, bits=600) with ~2x headroom over the measured
#: measured/predicted ratio.  See module docstring.
TOLERANCES: dict[str, tuple[float, float]] = {
    "parallel": (35.0, 11.0),
    "ft_linear": (4.0, 4.0),
    "ft_polynomial": (27.0, 8.0),
    "ft_toomcook": (50.0, 30.0),
    "soft_faults": (25.0, 8.0),
    "checkpoint": (38.0, 12.0),
    "replication": (35.0, 11.0),
    "multistep": (21.0, 16.0),
}


@dataclass(frozen=True)
class Certification:
    """Outcome of folding one variant's graph against its prediction."""

    variant: str
    measured_bw: float
    measured_l: float
    predicted_bw: float
    predicted_l: float
    tol_bw: float
    tol_l: float
    tolerance_scale: float
    passed: bool
    detail: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "variant": self.variant,
            "measured_bw": self.measured_bw,
            "measured_l": self.measured_l,
            "predicted_bw": self.predicted_bw,
            "predicted_l": self.predicted_l,
            "tol_bw": self.tol_bw,
            "tol_l": self.tol_l,
            "tolerance_scale": self.tolerance_scale,
            "passed": self.passed,
            "detail": self.detail,
        }


def measured_costs(graph: CommGraph) -> tuple[float, float]:
    """Exact per-rank (BW, L) folded from the graph; return the max rank.

    The simulated machine charges *both* endpoints of a message
    (``bw = words``, ``l = hops`` on each side), so both sides are summed
    here.  Modeled collective transport ops (``modeled: true``) carry
    their cost in a single ``collective`` op instead and are skipped;
    ``raw`` receives are charged by the machine only at ``absorb`` time,
    but a fault-free schedule absorbs every raw receive exactly once, so
    they count as normal receives.
    """
    bw: dict[int, float] = {}
    l_cost: dict[int, float] = {}
    for rank, _index, op in graph.all_ops():
        kind = op.get("op")
        if kind in ("send", "recv"):
            if op.get("modeled"):
                continue
            bw[rank] = bw.get(rank, 0.0) + op["words"]
            l_cost[rank] = l_cost.get(rank, 0.0) + op["hops"]
        elif kind == "collective":
            bw[rank] = bw.get(rank, 0.0) + op["bw"]
            l_cost[rank] = l_cost.get(rank, 0.0) + op["l"]
    if not bw and not l_cost:
        return 0.0, 0.0
    return max(bw.values(), default=0.0), max(l_cost.values(), default=0.0)


def _prediction(graph: CommGraph) -> CostPrediction:
    """Route the variant to its Theorem 5.1-5.3 / Lemma 2.5 predictor."""
    meta = graph.meta
    name = meta["variant"]
    p, k, f = meta["p"], meta["k"], meta["f"]
    n_words = meta.get("n_words", 0)
    if name == "ft_linear":
        return t_reduce_costs(
            t=f, w_words=FT_LINEAR_STATE_WORDS, p=FT_LINEAR_COLUMN + f
        )
    if name == "parallel":
        return parallel_toomcook_costs(n_words, p, k)
    if name == "checkpoint":
        # Checkpointing adds no processors and (fault-free) only local
        # snapshot traffic on top of the base algorithm.
        return parallel_toomcook_costs(n_words, p, k)
    if name == "replication":
        return replication_costs(n_words, p, k, f)
    if name == "soft_faults":
        return ft_toomcook_costs(n_words, p, k, meta.get("f_eff", 2 * f))
    if name in ("ft_polynomial", "ft_toomcook", "multistep"):
        return ft_toomcook_costs(n_words, p, k, f)
    raise ValueError(f"no cost predictor for variant {name!r}")


def cost_envelope(
    variant: str,
    n_words: int,
    p: int,
    k: int,
    f: int,
    tolerance_scale: float = 1.0,
) -> tuple[float, float]:
    """The (BW, L) certification bounds for a variant at given parameters.

    Shared with the benchmark suite so measured ``phase_cost`` gauges are
    held to the same envelope the commcheck gate enforces.
    """
    meta: dict[str, Any] = {
        "variant": variant,
        "p": p,
        "k": k,
        "f": f,
        "n_words": n_words,
        "f_eff": 2 * f if variant == "soft_faults" else f,
    }
    pred = _prediction(CommGraph(meta=meta, ranks={}))
    tol_bw, tol_l = TOLERANCES[variant]
    return tolerance_scale * tol_bw * pred.bw, tolerance_scale * tol_l * pred.l


def certify(graph: CommGraph, tolerance_scale: float = 1.0) -> Certification:
    """Certify one variant's extracted graph against its prediction."""
    name = graph.meta["variant"]
    measured_bw, measured_l = measured_costs(graph)
    pred = _prediction(graph)
    tol_bw, tol_l = TOLERANCES[name]
    bound_bw = tolerance_scale * tol_bw * pred.bw
    bound_l = tolerance_scale * tol_l * pred.l
    bw_ok = measured_bw <= bound_bw or math.isclose(measured_bw, bound_bw)
    l_ok = measured_l <= bound_l or math.isclose(measured_l, bound_l)
    problems = []
    if not bw_ok:
        problems.append(
            f"BW {measured_bw:.0f} exceeds {bound_bw:.1f} "
            f"(= {tolerance_scale:g} * {tol_bw:g} * predicted {pred.bw:.2f})"
        )
    if not l_ok:
        problems.append(
            f"L {measured_l:.0f} exceeds {bound_l:.1f} "
            f"(= {tolerance_scale:g} * {tol_l:g} * predicted {pred.l:.2f})"
        )
    detail = (
        "; ".join(problems)
        if problems
        else (
            f"BW {measured_bw:.0f} <= {bound_bw:.1f}, "
            f"L {measured_l:.0f} <= {bound_l:.1f}"
        )
    )
    return Certification(
        variant=name,
        measured_bw=measured_bw,
        measured_l=measured_l,
        predicted_bw=pred.bw,
        predicted_l=pred.l,
        tol_bw=tol_bw,
        tol_l=tol_l,
        tolerance_scale=tolerance_scale,
        passed=bw_ok and l_ok,
        detail=detail,
    )
