"""Budget exhaustion: the ``f+1``-th fault must never be silent.

The two-sided contract (ROADMAP: *exactness is non-negotiable*) demands
that a schedule *beyond* the tolerance budget either still produce the
exact product (codes often survive more than they promise) or fail with
a typed, loud :class:`~repro.machine.errors.MachineError` — never a
silent wrong product, never a hang, never an untyped crash.  This prover
certifies that edge for every equivalence class:

* **tolerated classes** — build a schedule of ``budget + 1`` faults of
  the class's kind, placed on *distinct erasure units* (killing two
  ranks of one coded column only erases one column, so unit spread is
  what actually exhausts the code); when the class alone has too few
  units, filler points are borrowed from sibling tolerated classes of
  the same kind.  The schedule must classify ``"may"`` and the replay
  verdict must be ``loud-beyond-budget`` or ``exact-beyond-budget``.
* **untolerated classes** — a single fault already exceeds the contract
  (``"may"``); same acceptable verdicts, same ban on silent defects.
* **delay classes** — skipped: delay events never consume budget (they
  stretch virtual time only), so there is no ``f+1``-th delay; their
  invariance is proven by the recovery-schedule replay instead.

The decodability prover (:mod:`repro.faultcheck.decode`) supplies the
static half: every ``budget + 1`` unit-erasure pattern leaves fewer
survivors than the decoder needs, so the loud path is reachable by
construction; this replay confirms the implementation actually takes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterator

from repro.campaign.oracle import (
    VERDICT_LOUD,
    VERDICT_TOLERATED,
    classify,
    schedule_budget,
)
from repro.campaign.registry import VariantSpec, get_variant
from repro.campaign.runner import _workload_rng
from repro.faultcheck.space import EquivClass, FaultPoint, FaultSpace
from repro.machine.fault import FaultSchedule

__all__ = ["ExhaustCheck", "ExhaustReport", "prove_exhaustion"]

_ACCEPTABLE = (VERDICT_LOUD, VERDICT_TOLERATED)


@dataclass
class ExhaustCheck:
    """One class pushed one fault past its budget."""

    class_id: str
    mode: str  # "beyond-budget" | "untolerated"
    budget: int
    points: list[FaultPoint] = field(default_factory=list)
    borrowed: int = 0
    verdict: str = ""
    loud: bool = False
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def as_dict(self) -> dict[str, Any]:
        return {
            "class": self.class_id,
            "mode": self.mode,
            "budget": self.budget,
            "points": [
                {"rank": p.rank, "phase": p.phase, "op": p.op_index, "kind": p.kind}
                for p in self.points
            ],
            "borrowed": self.borrowed,
            "verdict": self.verdict,
            "loud": self.loud,
            "error": self.error,
            "problems": list(self.problems),
            "ok": self.ok,
        }


@dataclass
class ExhaustReport:
    variant: str
    checks: list[ExhaustCheck]
    skipped: list[dict[str, str]]
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems and all(c.ok for c in self.checks)

    def as_dict(self) -> dict[str, Any]:
        return {
            "variant": self.variant,
            "checks": [c.as_dict() for c in self.checks],
            "skipped": list(self.skipped),
            "problems": list(self.problems),
            "ok": self.ok,
        }


def _distinct_unit_points(
    space: FaultSpace,
    classes: list[EquivClass],
    kind: str,
    count: int,
) -> tuple[list[FaultPoint], int]:
    """Pick ``count`` points of ``kind`` on pairwise-distinct erasure
    units, preferring the first class in ``classes`` (the one under
    test).  Returns the points and how many were borrowed from siblings.
    """
    chosen: list[FaultPoint] = []
    used_units: set[tuple[int, ...]] = set()
    borrowed = 0
    for class_index, cls in enumerate(classes):
        for rank in cls.ranks:
            unit = space.geometry.unit_of(rank).members
            if unit in used_units:
                continue
            chosen.append(next(_class_points_on_rank(space, cls, rank)))
            used_units.add(unit)
            if class_index > 0:
                borrowed += 1
            if len(chosen) == count:
                return chosen, borrowed
    return chosen, borrowed


def _class_points_on_rank(
    space: FaultSpace, cls: EquivClass, rank: int
) -> Iterator[FaultPoint]:
    """First enumerated point of ``cls`` on ``rank`` (min op index)."""
    from repro.campaign.probe import DOMAIN_OF_KIND

    domain = DOMAIN_OF_KIND[cls.kind]
    ops = space.opspace.ops(rank, cls.phase, domain)
    for op in sorted(ops):
        yield FaultPoint(rank=rank, phase=cls.phase, op_index=op, kind=cls.kind)


def _exhaust_one(
    space: FaultSpace,
    spec: VariantSpec,
    cls: EquivClass,
) -> ExhaustCheck | dict[str, str]:
    cfg = space.cfg
    if cls.tolerated:
        budget = space.geometry.budget(cls.kind)
        siblings = [cls] + [
            c
            for c in space.classes
            if c is not cls and c.tolerated and c.kind == cls.kind
        ]
        points, borrowed = _distinct_unit_points(
            space, siblings, cls.kind, budget + 1
        )
        if len(points) < budget + 1:
            return {
                "class": cls.id,
                "reason": (
                    f"only {len(points)} distinct erasure units carry "
                    f"tolerated {cls.kind} faults — the machine cannot "
                    f"schedule {budget + 1}; exhaustion proven statically "
                    "by the decode family's beyond-budget sweep"
                ),
            }
        check = ExhaustCheck(
            class_id=cls.id,
            mode="beyond-budget",
            budget=budget,
            points=points,
            borrowed=borrowed,
        )
    else:
        check = ExhaustCheck(
            class_id=cls.id,
            mode="untolerated",
            budget=0,
            points=[cls.representatives[0]],
        )
    events = [p.event() for p in check.points]
    budget_str = schedule_budget(events, space.geometry)
    if budget_str != "may":
        check.problems.append(
            f"exhaustion schedule classified {budget_str!r}, expected "
            "'may' — the schedule does not actually exceed the contract"
        )
        return check
    workload = spec.make_workload(_workload_rng(cfg.seed, space.variant), cfg)
    execution = spec.execute(workload, FaultSchedule(events), replace(cfg))
    check.verdict = classify(execution, budget_str)
    check.loud = check.verdict == VERDICT_LOUD
    if execution.error is not None:
        check.error = type(execution.error).__name__
    if check.verdict not in _ACCEPTABLE:
        check.problems.append(
            f"beyond-budget schedule produced verdict {check.verdict!r} "
            "— the implementation failed silently instead of loudly"
        )
    return check


def prove_exhaustion(
    space: FaultSpace, spec: VariantSpec | None = None
) -> ExhaustReport:
    """Certify loud failure one fault past every class's budget."""
    spec = spec or get_variant(space.variant)
    checks: list[ExhaustCheck] = []
    skipped: list[dict[str, str]] = []
    for cls in space.classes:
        if cls.kind == "delay":
            skipped.append(
                {
                    "class": cls.id,
                    "reason": (
                        "delay events never consume budget (virtual-time "
                        "stretch only); invariance proven by the "
                        "recovery-schedule replay"
                    ),
                }
            )
            continue
        outcome = _exhaust_one(space, spec, cls)
        if isinstance(outcome, dict):
            skipped.append(outcome)
        else:
            checks.append(outcome)
    problems = [
        f"class {c.class_id} ({c.mode}): " + "; ".join(c.problems)
        for c in checks
        if not c.ok
    ]
    return ExhaustReport(
        variant=space.variant,
        checks=checks,
        skipped=skipped,
        problems=problems,
    )
