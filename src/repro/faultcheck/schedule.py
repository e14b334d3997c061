"""Recovery-schedule soundness: replay each class, check the faulted graph.

For every *tolerated* hard/soft equivalence class — and every delay
class, which the contract requires to be absorbed invisibly — this
prover injects the class's representative fault points one at a time,
records the recovery schedule with a
:class:`~repro.machine.record.ScheduleRecorder`, and proves three
properties of the fault-annotated communication graph:

* **exactness** — a single tolerated fault is a ``"must"`` schedule, so
  the run has to produce the exact product (oracle verdict ``exact``);
* **orphan/deadlock freedom** — :func:`repro.commcheck.checker.check_graph`
  in fault-replay mode (``dead_ranks``) must report no errors: orphans
  are only tolerated when a dead or purged endpoint explains them, and
  unmatched receives, wait cycles, unreachable gates and collective
  mismatches are never excused; and
* **fault-mode cost envelope** — the measured max per-rank (BW, L) must
  stay within :data:`FAULT_MODE_SCALE` times the variant's fault-free
  certification envelope: Theorems 5.1-5.3 price recovery at
  ``(1 + o(1))`` times the fault-free cost, so a bounded constant over
  the calibrated fault-free envelope is the honest finite-size reading.

The replay also harvests the *recovery edges* — ``abort`` /
``replacement`` markers and replacement incarnations — as evidence that
the fault actually exercised the recovery path rather than missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.campaign.oracle import VERDICT_EXACT, classify, schedule_budget
from repro.campaign.registry import VariantSpec, get_variant
from repro.campaign.runner import _workload_rng
from repro.commcheck.certify import cost_envelope, measured_costs
from repro.commcheck.checker import Finding, check_graph
from repro.commcheck.extract import graph_meta
from repro.commcheck.graph import CommGraph
from repro.core.layout import ROLE_REPLICA
from repro.faultcheck.space import EquivClass, FaultPoint, FaultSpace
from repro.machine.fault import FaultSchedule
from repro.machine.record import ScheduleRecorder

__all__ = [
    "FAULT_MODE_SCALE",
    "ReplayCheck",
    "ScheduleReport",
    "prove_schedules",
    "replay_class_representative",
]

#: Fault-mode cost headroom over the fault-free commcheck envelope.
#: Calibrated by replaying every tolerated class at the default
#: configuration: the worst measured/envelope ratio is ~0.9 (checkpoint
#: rollback, which re-runs work), so 1.5 gives the recovery paths real
#: headroom while still failing if recovery traffic ever doubles.
FAULT_MODE_SCALE = 1.5


@dataclass(frozen=True)
class RecoveryEvidence:
    """Markers proving the recovery path ran (not that the fault missed)."""

    aborts: int
    replacements: int
    reincarnated: tuple[int, ...]

    def as_dict(self) -> dict[str, Any]:
        return {
            "aborts": self.aborts,
            "replacements": self.replacements,
            "reincarnated": list(self.reincarnated),
        }


@dataclass
class ReplayCheck:
    """One representative fault point replayed through the machine."""

    class_id: str
    point: FaultPoint
    verdict: str
    fired: int
    dead: tuple[int, ...]
    evidence: RecoveryEvidence
    findings: list[Finding] = field(default_factory=list)
    measured_bw: float = 0.0
    measured_l: float = 0.0
    bound_bw: float = 0.0
    bound_l: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def as_dict(self) -> dict[str, Any]:
        return {
            "class": self.class_id,
            "point": {
                "rank": self.point.rank,
                "phase": self.point.phase,
                "op": self.point.op_index,
                "kind": self.point.kind,
            },
            "verdict": self.verdict,
            "fired": self.fired,
            "dead": list(self.dead),
            "evidence": self.evidence.as_dict(),
            "findings": [f.as_dict() for f in self.findings],
            "measured_bw": self.measured_bw,
            "measured_l": self.measured_l,
            "bound_bw": self.bound_bw,
            "bound_l": self.bound_l,
            "problems": list(self.problems),
            "ok": self.ok,
        }


@dataclass
class ScheduleReport:
    variant: str
    replays: list[ReplayCheck]
    skipped: list[dict[str, str]]
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems and all(r.ok for r in self.replays)

    def as_dict(self) -> dict[str, Any]:
        return {
            "variant": self.variant,
            "replays": [r.as_dict() for r in self.replays],
            "skipped": list(self.skipped),
            "problems": list(self.problems),
            "ok": self.ok,
        }


def _harvest_evidence(ranks: dict[int, list[dict]]) -> RecoveryEvidence:
    aborts = 0
    replacements = 0
    reincarnated: set[int] = set()
    for rank, ops in ranks.items():
        for op in ops:
            if op.get("op") == "abort":
                aborts += 1
            elif op.get("op") == "replacement":
                replacements += 1
            if op.get("inc", 0) != 0:
                reincarnated.add(rank)
    return RecoveryEvidence(
        aborts=aborts,
        replacements=replacements,
        reincarnated=tuple(sorted(reincarnated)),
    )


def build_fault_graph(
    space: FaultSpace,
    ranks: dict[int, list[dict]],
    fired: tuple,
) -> tuple[CommGraph, set[int]]:
    """Assemble the fault-annotated graph for one replay.

    Meta is :func:`repro.commcheck.extract.graph_meta` plus the fault
    annotation: the injected events that fired and the ranks they killed.
    """
    geometry = space.geometry
    dead = {ev.rank for ev in fired if ev.kind == "hard"}
    # A hard fault condemns its whole erasure unit: the coded column /
    # replica group the in-order decode drops along with the dead rank.
    condemned: set[int] = set()
    for rank in dead:
        condemned.update(geometry.unit_of(rank).members)
    for rank in range(geometry.machine_size):
        ranks.setdefault(rank, [])
    meta = graph_meta(space.variant, space.cfg, geometry)
    meta["faults"] = [
        {
            "rank": ev.rank,
            "phase": ev.phase,
            "op": ev.op_index,
            "kind": ev.kind,
        }
        for ev in fired
    ]
    meta["dead_ranks"] = sorted(dead)
    meta["condemned_ranks"] = sorted(condemned)
    return CommGraph(meta=meta, ranks=ranks), condemned


def replay_class_representative(
    space: FaultSpace,
    cls: EquivClass,
    point: FaultPoint,
    spec: VariantSpec | None = None,
    tolerance_scale: float = 1.0,
) -> ReplayCheck:
    """Inject one representative point and prove the recovery schedule."""
    spec = spec or get_variant(space.variant)
    cfg = space.cfg
    workload = spec.make_workload(_workload_rng(cfg.seed, space.variant), cfg)
    recorder = ScheduleRecorder()
    event = point.event()
    execution = spec.execute(
        workload, FaultSchedule([event]), replace(cfg), trace=recorder
    )
    budget = schedule_budget([event], space.geometry)
    verdict = classify(execution, budget)
    graph, condemned = build_fault_graph(space, recorder.ops(), execution.fired)
    dead = set(graph.meta["dead_ranks"])
    findings = check_graph(graph, dead_ranks=condemned)
    measured_bw, measured_l = measured_costs(graph)
    bound_bw, bound_l = cost_envelope(
        space.variant,
        int(graph.meta.get("n_words", 0)),
        cfg.p,
        cfg.k,
        graph.meta["f_eff"],
        tolerance_scale=tolerance_scale * FAULT_MODE_SCALE,
    )
    evidence = _harvest_evidence(graph.ranks)

    problems: list[str] = []
    if budget != "must":
        problems.append(
            f"single tolerated fault classified {budget!r}, expected 'must' "
            "— space/contract mismatch"
        )
    if verdict != VERDICT_EXACT:
        problems.append(
            f"replay verdict {verdict!r}, expected 'exact': the recovery "
            "path did not absorb the fault"
        )
    if not execution.fired:
        problems.append(
            "injected event never fired — the enumerated point is not "
            "actually injectable"
        )
    errors = [f for f in findings if f.severity == "error"]
    for f in errors:
        problems.append(
            f"recovery schedule violation [{f.check}] rank={f.rank}: "
            f"{f.message}"
        )
    if measured_bw > bound_bw:
        problems.append(
            f"fault-mode BW {measured_bw:.0f} exceeds envelope "
            f"{bound_bw:.1f} (= {FAULT_MODE_SCALE:g} x fault-free bound)"
        )
    if measured_l > bound_l:
        problems.append(
            f"fault-mode L {measured_l:.0f} exceeds envelope "
            f"{bound_l:.1f} (= {FAULT_MODE_SCALE:g} x fault-free bound)"
        )
    # A replica recovers by *selection* — the surviving group's result is
    # used, no replacement or abort ever runs — so markers are only
    # demanded of ranks whose recovery is an active protocol.
    if (
        point.kind == "hard"
        and space.geometry.unit_of(point.rank).role != ROLE_REPLICA
        and not (
            evidence.aborts or evidence.replacements or evidence.reincarnated
        )
    ):
        problems.append(
            "hard fault fired but no recovery marker (abort/replacement/"
            "reincarnation) was recorded — the recovery path did not run"
        )
    return ReplayCheck(
        class_id=cls.id,
        point=point,
        verdict=verdict,
        fired=len(execution.fired),
        dead=tuple(sorted(dead)),
        evidence=evidence,
        findings=findings,
        measured_bw=measured_bw,
        measured_l=measured_l,
        bound_bw=bound_bw,
        bound_l=bound_l,
        problems=problems,
    )


def _replayable(cls: EquivClass) -> bool:
    """Delay classes always replay (delay-only schedules are ``"must"``
    for every variant); hard/soft classes replay when tolerated — the
    untolerated ones are the exhaustion prover's job."""
    return cls.kind == "delay" or cls.tolerated


def prove_schedules(
    space: FaultSpace,
    spec: VariantSpec | None = None,
    tolerance_scale: float = 1.0,
) -> ScheduleReport:
    """Replay every representative of every replayable class."""
    spec = spec or get_variant(space.variant)
    replays: list[ReplayCheck] = []
    skipped: list[dict[str, str]] = []
    problems: list[str] = []
    for cls in space.classes:
        if not _replayable(cls):
            skipped.append(
                {
                    "class": cls.id,
                    "reason": (
                        "untolerated: loud failure certified by the "
                        "budget-exhaustion prover"
                    ),
                }
            )
            continue
        for point in cls.representatives:
            replays.append(
                replay_class_representative(
                    space, cls, point, spec, tolerance_scale
                )
            )
    for r in replays:
        if not r.ok:
            problems.append(
                f"class {r.class_id} rep (rank {r.point.rank}, "
                f"{r.point.phase}, op {r.point.op_index}): "
                + "; ".join(r.problems)
            )
    return ScheduleReport(
        variant=space.variant,
        replays=replays,
        skipped=skipped,
        problems=problems,
    )
