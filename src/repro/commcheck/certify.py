"""Cost certification: extracted graph totals vs. closed-form predictions.

The graph gives *exact* per-rank word/hop totals for a fault-free run.
The :mod:`repro.analysis.formulas` predictions are Θ-expressions with
unit leading constants, and at commcheck's deliberately small default
sizes (``bits=600``, ``P=9``) additive protocol overhead is a visible
fraction of the total.  Each variant's cost contract therefore carries a
calibrated tolerance: ``measured <= tolerance_scale * tol * predicted``
must hold for both BW and L.  The tolerances were measured on the live
tree at the default configuration and given roughly 2x headroom — they
absorb the honest constants of the implementation, not asymptotic drift,
so a change that doubles the communication volume of a variant still
fails the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.campaign.registry import CostContract, get_variant
from repro.commcheck.graph import CommGraph

__all__ = [
    "Certification",
    "certify",
    "cost_envelope",
    "measured_costs",
]


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


def _contract(variant: str) -> CostContract:
    """The registered variant's cost contract."""
    try:
        contract = get_variant(variant).cost
    except KeyError:
        contract = None
    if contract is None:
        raise ValueError(f"no cost contract for variant {variant!r}")
    return contract


def cost_envelope(
    variant: str,
    n_words: int,
    p: int,
    k: int,
    f_eff: int,
    tolerance_scale: float = 1.0,
) -> tuple[float, float]:
    """The (BW, L) certification bounds for a variant at given parameters,
    ``f_eff`` being the redundancy its algorithm runs with.

    Shared with the benchmark suite so measured ``phase_cost`` gauges are
    held to the same envelope the commcheck gate enforces.
    """
    contract = _contract(variant)
    pred = contract.predict(n_words, p, k, f_eff)
    return (
        tolerance_scale * contract.tol_bw * pred.bw,
        tolerance_scale * contract.tol_l * pred.l,
    )


def certify(graph: CommGraph, tolerance_scale: float = 1.0) -> Certification:
    """Certify one variant's extracted graph against its prediction."""
    meta = graph.meta
    name = meta["variant"]
    measured_bw, measured_l = measured_costs(graph)
    contract = _contract(name)
    pred = contract.predict(meta.get("n_words", 0), meta["p"], meta["k"], meta["f_eff"])
    tol_bw, tol_l = contract.tol_bw, contract.tol_l
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
