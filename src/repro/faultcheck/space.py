"""Exhaustive fault-space enumeration and symmetry reduction.

A variant's *fault space* is every injectable ``(rank, phase, op_index)``
point for every fault kind the campaign can schedule — exactly the space
the dry probe run (:mod:`repro.campaign.probe`) measures.  Sampling draws
from this space at random; faultcheck instead enumerates it completely
and collapses it into *equivalence classes* so the downstream provers
sweep a tractable set.

The symmetry argument: the variant's tolerance contract, its
:class:`~repro.core.layout.FaultGeometry`, decides whether a fault is
tolerated from ``(kind, phase, rank-role)`` alone, by construction, and
the algorithms' recovery geometry is symmetric under relabeling ranks
within one role (standard ranks of one coded column are exchangeable,
code rows are exchangeable, replica groups are exchangeable).  Two fault
points with the same ``(kind, phase, role)`` therefore exercise the same
protocol branch and the same decoding condition, differing only in
*which* symmetric unit they erase — which the decodability prover covers
exhaustively at the unit level (:mod:`repro.faultcheck.decode`).  Roles,
units and the contract are all read from that one record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.probe import DOMAIN_OF_KIND, OpSpace, probe_variant
from repro.campaign.registry import VariantSpec, get_variant
from repro.campaign.runner import CampaignConfig, _workload_rng
from repro.commcheck.extract import COMMCHECK_VARIANTS
from repro.core.layout import FaultGeometry
from repro.machine.fault import FaultEvent

__all__ = [
    "FAULTCHECK_VARIANTS",
    "FaultPoint",
    "EquivClass",
    "FaultSpace",
    "enumerate_space",
]

#: The variants faultcheck certifies: commcheck's eight, in registry order.
FAULTCHECK_VARIANTS = COMMCHECK_VARIANTS


@dataclass(frozen=True)
class FaultPoint:
    """One concrete injectable fault point."""

    rank: int
    phase: str
    op_index: int
    kind: str

    def event(self, incarnation: int = 0) -> FaultEvent:
        return FaultEvent(
            rank=self.rank,
            phase=self.phase,
            op_index=self.op_index,
            incarnation=incarnation,
            kind=self.kind,
        )


@dataclass(frozen=True)
class EquivClass:
    """A symmetry-reduced set of fault points.

    ``representatives`` holds up to two concrete points — the first op on
    the lowest rank and the last op on the highest rank — which the
    replay-based provers inject on behalf of the whole class.
    """

    id: str
    kind: str
    phase: str
    role: str
    tolerated: bool
    n_points: int
    ranks: tuple[int, ...]
    representatives: tuple[FaultPoint, ...]

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "phase": self.phase,
            "role": self.role,
            "tolerated": self.tolerated,
            "points": self.n_points,
            "ranks": list(self.ranks),
            "representatives": [
                {"rank": r.rank, "phase": r.phase, "op": r.op_index}
                for r in self.representatives
            ],
        }


def _class_id(kind: str, phase: str, role: str, tolerated: bool) -> str:
    suffix = "tol" if tolerated else "untol"
    return f"{kind}.{phase}.{role}.{suffix}"


class FaultSpace:
    """The complete enumerated fault space of one variant, with the
    variant's processor layout (``geometry``) it was classified by."""

    def __init__(
        self,
        variant: str,
        cfg: CampaignConfig,
        geometry: FaultGeometry,
        opspace: OpSpace,
        classes: list[EquivClass],
        total_points: int,
    ) -> None:
        self.variant = variant
        self.cfg = cfg
        self.geometry = geometry
        self.opspace = opspace
        self.classes = classes
        self.total_points = total_points
        self._by_id = {c.id: c for c in classes}

    def class_by_id(self, class_id: str) -> EquivClass:
        return self._by_id[class_id]

    def classify_event(self, ev: FaultEvent) -> str | None:
        """Map a concrete (sampled) event back into the enumerated space.

        Returns the class id, or ``None`` when the event does not land on
        any enumerated point — a coverage violation.  ``incarnation`` is
        ignored: a replacement-kill re-injects the same fault point into
        the replacement's program.
        """
        domain = DOMAIN_OF_KIND.get(ev.kind)
        if domain is None:
            return None
        if ev.op_index not in self.opspace.ops(ev.rank, ev.phase, domain):
            return None
        role = self.geometry.unit_of(ev.rank).role
        tolerated = self.geometry.tolerates(ev.kind, ev.rank, ev.phase)
        cid = _class_id(ev.kind, ev.phase, role, tolerated)
        return cid if cid in self._by_id else None

    def summary(self) -> dict:
        return {
            "cells": len(self.opspace),
            "phases": self.opspace.phases(),
            "points": self.total_points,
            "classes": len(self.classes),
        }


def enumerate_space(
    name: str, cfg: CampaignConfig, spec: VariantSpec | None = None
) -> FaultSpace:
    """Probe ``name`` fault-free and enumerate its complete fault space.

    Every op index the probe observed, crossed with every fault kind the
    variant's geometry injects, is one point; points collapse into
    :class:`EquivClass`es keyed ``(kind, phase, role, tolerated)``.
    """
    spec = spec or get_variant(name)
    geometry = spec.fault_geometry(cfg)
    workload = spec.make_workload(_workload_rng(cfg.seed, name), cfg)
    opspace, _ = probe_variant(spec, workload, cfg)

    buckets: dict[tuple[str, str, str, bool], list[FaultPoint]] = {}
    total = 0
    for kind in sorted(geometry.kinds):
        domain = DOMAIN_OF_KIND[kind]
        for cell in opspace.cells(domain):
            role = geometry.unit_of(cell.rank).role
            tol = geometry.tolerates(kind, cell.rank, cell.phase)
            key = (kind, cell.phase, role, tol)
            points = buckets.setdefault(key, [])
            for op in cell.ops:
                points.append(
                    FaultPoint(
                        rank=cell.rank, phase=cell.phase, op_index=op, kind=kind
                    )
                )
                total += 1
    classes: list[EquivClass] = []
    for (kind, phase, role, tol) in sorted(buckets, key=lambda k: (k[0], k[1], k[2], k[3])):
        points = buckets[(kind, phase, role, tol)]
        first = min(points, key=lambda p: (p.rank, p.op_index))
        last = max(points, key=lambda p: (p.rank, p.op_index))
        reps = (first,) if last == first else (first, last)
        ranks = tuple(sorted({p.rank for p in points}))
        classes.append(
            EquivClass(
                id=_class_id(kind, phase, role, tol),
                kind=kind,
                phase=phase,
                role=role,
                tolerated=tol,
                n_points=len(points),
                ranks=ranks,
                representatives=reps,
            )
        )
    return FaultSpace(
        variant=name,
        cfg=cfg,
        geometry=geometry,
        opspace=opspace,
        classes=classes,
        total_points=total,
    )
