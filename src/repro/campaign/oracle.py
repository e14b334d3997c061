"""Verdict oracle for campaign trials.

The contract under test is two-sided (ROADMAP: *exactness is
non-negotiable*, faults within budget must be absorbed, faults beyond it
must surface as typed errors):

* budget ``"must"`` — every scheduled event is inside the variant's
  tolerance contract: the run must return the **exact** result.
* budget ``"may"`` — the schedule exceeds the contract: the run may still
  succeed exactly (codes often survive more than they promise), or it may
  fail **loudly** with a typed :class:`~repro.machine.errors.MachineError`
  (which covers :class:`~repro.core.ft_polynomial.FaultToleranceExceeded`
  and :class:`~repro.core.soft_faults.SoftFaultDetected`).

Everything else is a defect: a wrong product under any budget, a loud
failure *within* budget, a hang (deadlock or a thread that never
terminated), or an untyped crash.

Budgets are classified from the *scheduled* events against the variant's
:class:`~repro.core.layout.FaultGeometry`, which is conservative in the
right direction: an event that never fires leaves the run clean, so a
"must" schedule whose events all miss still has to produce the exact
result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.machine.errors import DeadlockError, MachineError

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.registry import Execution
    from repro.core.layout import FaultGeometry
    from repro.machine.fault import FaultEvent

__all__ = [
    "VERDICT_EXACT",
    "VERDICT_TOLERATED",
    "VERDICT_LOUD",
    "VERDICT_WRONG_PRODUCT",
    "VERDICT_LOUD_WITHIN_BUDGET",
    "VERDICT_HANG",
    "VERDICT_CRASH",
    "DEFECT_VERDICTS",
    "classify",
    "schedule_budget",
]


def schedule_budget(events: Sequence["FaultEvent"], geometry: "FaultGeometry") -> str:
    """``"must"`` when every non-delay event is a first-incarnation fault
    the geometry tolerates and together they fit every family's
    correction radius (hard faults erase, soft ones err); ``"may"``
    otherwise.  Delays (the paper's third fault category) stretch virtual
    time only, so a delay-only schedule is ``"must"`` for every variant.
    """
    counts = {"hard": 0, "soft": 0}
    for ev in events:
        if ev.kind == "delay":
            continue
        if ev.incarnation != 0 or not geometry.tolerates(ev.kind, ev.rank, ev.phase):
            return "may"
        counts[ev.kind] += 1
    fits = (family.correctable(counts["hard"], counts["soft"]) for family in geometry.families)
    return "must" if all(fits) else "may"


#: Exact result on a fault-free-equivalent ("must") schedule.
VERDICT_EXACT = "exact"
#: Exact result even though the schedule exceeded the budget.
VERDICT_TOLERATED = "exact-beyond-budget"
#: Typed loud failure on a beyond-budget schedule (the required behavior).
VERDICT_LOUD = "loud-beyond-budget"

#: Defects.
VERDICT_WRONG_PRODUCT = "wrong-product"
VERDICT_LOUD_WITHIN_BUDGET = "loud-within-budget"
VERDICT_HANG = "hang"
VERDICT_CRASH = "crash"

DEFECT_VERDICTS = frozenset(
    {VERDICT_WRONG_PRODUCT, VERDICT_LOUD_WITHIN_BUDGET, VERDICT_HANG, VERDICT_CRASH}
)


def _is_hang(error: BaseException) -> bool:
    """A deadlock timeout, a thread that outlived the join deadline, or a
    multi-rank failure whose root cause was one of those."""
    if isinstance(error, DeadlockError):
        return True
    text = str(error)
    return "failed to terminate" in text or "DeadlockError" in text


def classify(execution: "Execution", budget: str) -> str:
    """Map one trial execution + budget classification to a verdict."""
    if budget not in ("must", "may"):
        raise ValueError(f"budget must be 'must' or 'may', got {budget!r}")
    error = execution.error
    if error is not None:
        if _is_hang(error):
            return VERDICT_HANG
        if not isinstance(error, MachineError):
            return VERDICT_CRASH
        return VERDICT_LOUD if budget == "may" else VERDICT_LOUD_WITHIN_BUDGET
    if execution.actual != execution.expected:
        return VERDICT_WRONG_PRODUCT
    return VERDICT_EXACT if budget == "must" else VERDICT_TOLERATED
