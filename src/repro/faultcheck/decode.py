"""Static decodability proofs over the coding-layer primitives.

For every variant the fault-recovery mechanism reduces to one or two
*unit families*: sets of symmetric erasure units (coded columns, linear
codeword coordinates, replica groups, checkpointed ranks) such that any
fault maps to the erasure of one unit.  This module proves, without
executing a multiplication, that

* every within-budget erasure pattern — every subset of units up to the
  family's budget — is decodable: the surviving evaluation points /
  generator-matrix rows satisfy the exact MDS or general-position
  condition the decoder relies on (Theorem 2.1, Definition 2.7,
  Claim 6.1), checked by constructing and inverting the same matrices
  the implementation inverts (:mod:`repro.coding`,
  :mod:`repro.bigint.matrices`); and
* every budget-exceeding pattern of ``budget + 1`` erasures is
  *detected*: the survivor count drops below the decoder's requirement,
  so the implementation raises (``FaultToleranceExceeded`` /
  ``ValueError``) instead of interpolating garbage — the static half of
  the budget-exhaustion certificate (:mod:`repro.faultcheck.exhaust`).

The class-to-unit ``coverage`` map ties the enumerated fault space
(:mod:`repro.faultcheck.space`) to these families: every *tolerated*
hard/soft class names the families covering it (tolerated means covered,
by construction), and every other class carries the reason its faults
are loud by design.  The families, and what each covers, are read from
the algorithm's own :class:`~repro.core.layout.FaultGeometry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable, Sequence

from repro.bigint.evalpoints import points_pairwise_distinct
from repro.bigint.matrices import interpolation_matrix_for_points
from repro.bigint.multivariate import evaluation_matrix_multivariate
from repro.coding.erasure import recovery_coefficients
from repro.coding.general_position import is_general_position
from repro.coding.linear import SystematicCode
from repro.core.layout import CodeFamily, FaultGeometry
from repro.faultcheck.space import EquivClass, FaultSpace
from repro.util.rational import mat_det

__all__ = [
    "SubsetCheck",
    "FamilyReport",
    "ClassCoverage",
    "DecodeReport",
    "prove_decodability",
]


@dataclass(frozen=True)
class SubsetCheck:
    """One erasure pattern and its proof (or detection argument)."""

    units: tuple[str, ...]
    ok: bool
    proof: str

    def as_dict(self) -> dict[str, Any]:
        return {"units": list(self.units), "ok": self.ok, "proof": self.proof}


@dataclass
class FamilyReport:
    """All erasure patterns of one unit family, proven."""

    name: str
    units: tuple[str, ...]
    needed: int
    budget: int
    precondition: str
    within: list[SubsetCheck] = field(default_factory=list)
    beyond: list[SubsetCheck] = field(default_factory=list)
    #: Documented limits of the mechanism (e.g. the MDS detection
    #: frontier) — informational, not gating.
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.within) and all(c.ok for c in self.beyond)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "units": list(self.units),
            "needed": self.needed,
            "budget": self.budget,
            "precondition": self.precondition,
            "within": [c.as_dict() for c in self.within],
            "beyond": [c.as_dict() for c in self.beyond],
            "notes": list(self.notes),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ClassCoverage:
    """Which families cover one equivalence class (empty = uncovered)."""

    class_id: str
    families: tuple[str, ...]
    reason: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "class": self.class_id,
            "families": list(self.families),
            "reason": self.reason,
        }


@dataclass
class DecodeReport:
    variant: str
    families: list[FamilyReport]
    coverage: list[ClassCoverage]
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems and all(f.ok for f in self.families)

    def as_dict(self) -> dict[str, Any]:
        return {
            "variant": self.variant,
            "families": [f.as_dict() for f in self.families],
            "coverage": [c.as_dict() for c in self.coverage],
            "problems": list(self.problems),
            "ok": self.ok,
        }


# -- family builders ---------------------------------------------------------


def _sweep(
    units: Sequence[str],
    needed: int,
    budget: int,
    decodable: Callable[[tuple[int, ...]], tuple[bool, str]],
    detected: Callable[[tuple[int, ...]], tuple[bool, str]],
) -> tuple[list[SubsetCheck], list[SubsetCheck]]:
    """Exhaustively check every erasure subset up to ``budget`` (must be
    decodable) and every ``budget + 1`` subset (must be detected)."""
    within: list[SubsetCheck] = []
    for size in range(budget + 1):
        for subset in combinations(range(len(units)), size):
            ok, proof = decodable(subset)
            within.append(
                SubsetCheck(
                    units=tuple(units[i] for i in subset), ok=ok, proof=proof
                )
            )
    beyond: list[SubsetCheck] = []
    if budget + 1 <= len(units):
        for subset in combinations(range(len(units)), budget + 1):
            ok, proof = detected(subset)
            beyond.append(
                SubsetCheck(
                    units=tuple(units[i] for i in subset), ok=ok, proof=proof
                )
            )
    return within, beyond


def _poly_column_family(family: CodeFamily) -> FamilyReport:
    """Coded-column family: any ``needed`` surviving columns interpolate
    via the in-order choice ``sorted(survivors)[:needed]`` (the exact
    subset :meth:`PolynomialCodedToomCook._interpolate_columns` inverts).
    A soft decoder adds its error/erasure trade-off."""
    points, needed, budget = list(family.points), family.needed, family.budget
    n = len(points)
    units = tuple(f"col-{j}" for j in range(n))
    distinct = points_pairwise_distinct(points)
    precondition = (
        f"{n} evaluation points pairwise distinct (Theorem 2.1: any "
        f"{needed} of them give an invertible evaluation matrix)"
        if distinct
        else f"evaluation points NOT pairwise distinct: {points}"
    )

    def decodable(subset: tuple[int, ...]) -> tuple[bool, str]:
        live = [j for j in range(n) if j not in subset]
        chosen = sorted(live)[:needed]
        try:
            interpolation_matrix_for_points([points[j] for j in chosen], needed)
        except (ValueError, ZeroDivisionError) as exc:
            return False, f"interpolation matrix of columns {chosen} singular: {exc}"
        return True, (
            f"survivors {len(live)} >= {needed}; in-order columns {chosen} "
            "have an invertible evaluation matrix"
        )

    def detected(subset: tuple[int, ...]) -> tuple[bool, str]:
        live = n - len(subset)
        if live < needed:
            return True, (
                f"only {live} columns survive < {needed} needed: decoder "
                "raises FaultToleranceExceeded (loud)"
            )
        return decodable(subset)

    within, beyond = _sweep(units, needed, budget, decodable, detected)
    report = FamilyReport(
        name=family.name,
        units=units,
        needed=needed,
        budget=budget,
        precondition=precondition,
        within=within,
        beyond=beyond,
    )
    if not distinct:
        report.within.append(
            SubsetCheck(units=(), ok=False, proof=precondition)
        )
    if family.soft:
        soft_within, soft_beyond, frontier = _soft_error_analysis(family)
        report.within.extend(soft_within)
        report.beyond.extend(soft_beyond)
        report.notes.extend(frontier)
    return report


def _linear_code_family(family: CodeFamily) -> FamilyReport:
    """Systematic ``(k+f, k, f+1)`` column-code family: any ``f`` erased
    codeword coordinates are recoverable from the survivor generator rows
    (Definition 2.7 / Section 4.1), which is exactly what
    :func:`repro.coding.erasure.recovery_coefficients` solves."""
    name, k, f = family.name, family.needed, family.budget
    code = SystematicCode(k, f)
    units = tuple(
        [f"data-{i}" for i in range(k)] + [f"code-{i}" for i in range(f)]
    )
    mds = code.is_mds()
    precondition = (
        f"SystematicCode(k={k}, f={f}) is MDS (every Vandermonde minor "
        "invertible)"
        if mds
        else f"SystematicCode(k={k}, f={f}) is NOT MDS"
    )

    def decodable(subset: tuple[int, ...]) -> tuple[bool, str]:
        survivors = sorted(set(range(code.n)) - set(subset))[:k]
        lost = [i for i in subset if i < k]
        try:
            recovery_coefficients(code, survivors, lost)
        except (ValueError, ZeroDivisionError) as exc:
            return False, (
                f"survivor generator rows {survivors} not invertible: {exc}"
            )
        return True, (
            f"generator rows of survivors {survivors} invertible; lost data "
            f"coordinates {lost} solvable"
        )

    def detected(subset: tuple[int, ...]) -> tuple[bool, str]:
        live = code.n - len(subset)
        if live < k:
            return True, (
                f"only {live} coordinates survive < k={k}: "
                "reconstruct_erasures raises ValueError (loud)"
            )
        return decodable(subset)

    within, beyond = _sweep(units, k, f, decodable, detected)
    report = FamilyReport(
        name=name,
        units=units,
        needed=k,
        budget=f,
        precondition=precondition,
        within=within,
        beyond=beyond,
    )
    if not mds:
        report.within.append(SubsetCheck(units=(), ok=False, proof=precondition))
    return report


def _multivariate_family(family: CodeFamily) -> FamilyReport:
    """Multi-step coded columns: any ``(2k-1)**l`` surviving columns must
    give an invertible multivariate evaluation matrix (Claim 6.1) — the
    matrix :meth:`MultiStepToomCook._interpolate_columns` inverts."""
    points, needed, f = family.points, family.needed, family.budget
    r, l = family.grid
    n = len(points)
    units = tuple(f"col-{j}" for j in range(n))
    gp = is_general_position(points, r, l)
    precondition = (
        f"{n} multivariate points in ({r},{l})-general position "
        "(every full-size evaluation submatrix invertible, Claim 6.1)"
        if gp
        else f"points NOT in ({r},{l})-general position"
    )

    def decodable(subset: tuple[int, ...]) -> tuple[bool, str]:
        live = [j for j in range(n) if j not in subset]
        chosen = sorted(live)[:needed]
        matrix = evaluation_matrix_multivariate(
            [points[j] for j in chosen], r, l
        )
        if mat_det(matrix.rows) == 0:
            return False, f"evaluation matrix of columns {chosen} singular"
        return True, (
            f"survivors {len(live)} >= {needed}; evaluation matrix of "
            f"in-order columns {chosen} invertible"
        )

    def detected(subset: tuple[int, ...]) -> tuple[bool, str]:
        live = n - len(subset)
        if live < needed:
            return True, (
                f"only {live} columns survive < {needed} needed: decoder "
                "raises FaultToleranceExceeded (loud)"
            )
        return decodable(subset)

    within, beyond = _sweep(units, needed, f, decodable, detected)
    report = FamilyReport(
        name=family.name,
        units=units,
        needed=needed,
        budget=f,
        precondition=precondition,
        within=within,
        beyond=beyond,
    )
    if not gp:
        report.within.append(SubsetCheck(units=(), ok=False, proof=precondition))
    return report


def _soft_error_analysis(
    family: CodeFamily,
) -> tuple[list[SubsetCheck], list[SubsetCheck], list[str]]:
    """The soft variant's MDS error/erasure trade-off (Section 7).

    With distance ``f_eff + 1``, ``s`` erasures plus ``e`` silent errors
    are *correctable* iff ``s + 2e <= f_eff`` and *detectable* iff
    ``s + e <= f_eff`` (:meth:`~repro.core.layout.CodeFamily.correctable`
    and ``detectable``).  Patterns past the detection radius are
    information-theoretically invisible to any MDS code — verified
    empirically (``s=2, e=1`` at the defaults yields a silent wrong
    product) — so they are documented as the contract's frontier rather
    than claimed loud.  The class-wise budget-exhaustion schedules all
    stay inside the detection radius.
    """
    f_eff = family.budget
    within: list[SubsetCheck] = []
    beyond: list[SubsetCheck] = []
    frontier: list[str] = []
    for s in range(f_eff + 2):
        for e in range(f_eff + 2 - s):
            if family.correctable(s, e):
                within.append(
                    SubsetCheck(
                        units=(f"s={s}", f"e={e}"),
                        ok=True,
                        proof=(
                            f"s + 2e = {s + 2 * e} <= {f_eff}: unique "
                            "decoding within the MDS correction radius"
                        ),
                    )
                )
            elif family.detectable(s, e):
                beyond.append(
                    SubsetCheck(
                        units=(f"s={s}", f"e={e}"),
                        ok=True,
                        proof=(
                            f"s + 2e = {s + 2 * e} > {f_eff} exceeds "
                            f"correction, but weight {s + e} <= distance-1 "
                            f"= {f_eff}: no other codeword within reach, "
                            "SoftFaultDetected raised (loud)"
                        ),
                    )
                )
            elif s <= f_eff and e > 0:
                frontier.append(
                    f"s={s}, e={e}: weight {s + e} > detection radius "
                    f"{f_eff} — invisible to any MDS code; outside the "
                    "loudness contract and never drawn by the campaign "
                    "sampler"
                )
    return within, beyond, frontier


def _trivial_family(family: CodeFamily) -> FamilyReport:
    """A family whose recovery is structural (no coding matrix): replica
    groups and checkpoint rollback.  Decodability is a counting argument;
    beyond-budget detection is delegated to the replay prover."""
    units, budget, mechanism = family.units, family.budget, family.mechanism

    def decodable(subset: tuple[int, ...]) -> tuple[bool, str]:
        live = len(units) - len(subset)
        if live >= 1:
            return True, f"{live} intact {mechanism} unit(s) remain"
        return False, f"no intact {mechanism} unit remains"

    def detected(subset: tuple[int, ...]) -> tuple[bool, str]:
        return True, (
            f"{len(subset)} erasures exceed budget {budget}: loud failure "
            "verified by the budget-exhaustion replay"
        )

    within, beyond = _sweep(units, 1, budget, decodable, detected)
    return FamilyReport(
        name=family.name,
        units=units,
        needed=1,
        budget=budget,
        precondition=f"{len(units)} independent {mechanism} units",
        within=within,
        beyond=beyond,
    )


#: The proof for each family kind (:class:`~repro.core.layout.CodeFamily`).
_FAMILY_PROOFS: dict[str, Callable[[CodeFamily], FamilyReport]] = {
    "points": _poly_column_family,
    "systematic": _linear_code_family,
    "multivariate": _multivariate_family,
    "trivial": _trivial_family,
}


# -- class coverage ------------------------------------------------------------


def _coverage_for(cls: EquivClass, geometry: FaultGeometry) -> ClassCoverage:
    """Which families recover a fault of class ``cls``.

    Delay faults stretch virtual time only — no data is lost, so no
    family is needed; untolerated hard/soft classes are loud by contract;
    a tolerated class maps to every family covering its role and phase
    (at least one, since covers define tolerance), for the first one's
    reason.
    """
    if cls.kind == "delay":
        return ClassCoverage(cls.id, (), "delay: virtual-time stretch only, no data erased")
    if not cls.tolerated:
        return ClassCoverage(
            cls.id,
            (),
            "outside the tolerance contract: fault must surface loudly "
            "(certified by the exhaustion prover)",
        )
    covering = geometry.covering(cls.role, cls.phase)
    return ClassCoverage(
        cls.id, tuple(family.name for family, _ in covering), covering[0][1].reason
    )


def prove_decodability(space: FaultSpace) -> DecodeReport:
    """Prove every within-budget erasure pattern decodable and map every
    equivalence class to the family that recovers it."""
    families = [
        _FAMILY_PROOFS[family.kind](family) for family in space.geometry.families
    ]
    coverage = [_coverage_for(cls, space.geometry) for cls in space.classes]
    problems: list[str] = []
    for fam in families:
        for check in fam.within:
            if not check.ok:
                problems.append(
                    f"family {fam.name}: within-budget pattern "
                    f"{list(check.units)} NOT decodable: {check.proof}"
                )
        for check in fam.beyond:
            if not check.ok:
                problems.append(
                    f"family {fam.name}: beyond-budget pattern "
                    f"{list(check.units)} not provably detected: {check.proof}"
                )
    return DecodeReport(
        variant=space.variant,
        families=families,
        coverage=coverage,
        problems=problems,
    )
