"""Each algorithm's own layout record against the checkers' old switches.

commcheck and faultcheck once restated every variant's processor layout
in per-variant name switches.  Those switches are kept here, verbatim in
substance, as the reference the algorithms' ``fault_geometry()`` records
must reproduce field by field over a grid of configurations.  The one
place the reference was wrong is multistep's erasure units when
``P > (2k-1)**l``: it made every rank its own unit, but a multistep column
holds ``P/(2k-1)**l`` ranks.
"""

from __future__ import annotations

import pytest

from repro.bigint.evalpoints import extended_toom_points
from repro.campaign.registry import get_variant
from repro.coding.point_search import multistep_evaluation_points
from repro.commcheck.extract import COMMCHECK_VARIANTS, graph_meta, make_config
from repro.core.plan import make_plan
from repro.faultcheck import EquivClass, enumerate_space, prove_exhaustion
from repro.faultcheck.decode import _coverage_for
from repro.machine.fault import FaultEvent, FaultSchedule

# The ft_linear variant's column of standard ranks (its registry constant).
_COLUMN = 3

GRID = [(9, 2, 1), (9, 2, 2), (27, 2, 1), (25, 3, 1)]


# -- the reference: the switches the record replaced --------------------------


def ref_geometry(name, cfg):
    if name == "ft_linear":
        return {
            "machine_size": _COLUMN + cfg.f,
            "code_ranks": list(range(_COLUMN, _COLUMN + cfg.f)),
            "f_eff": cfg.f,
            "n_words": 0,
        }
    extra_dfs = 1 if name == "ft_toomcook" else 0
    plan = make_plan(
        cfg.bits, p=cfg.p, k=cfg.k, word_bits=cfg.word_bits, extra_dfs=extra_dfs
    )
    p, q, f = plan.p, plan.q, cfg.f
    geo = {
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


def ref_rank_role(variant, rank, cfg):
    p, q, f = cfg.p, 2 * cfg.k - 1, cfg.f
    if variant == "ft_linear":
        return "standard" if rank < _COLUMN else "linear-code"
    if variant in ("parallel", "checkpoint"):
        return "standard"
    if variant == "replication":
        return "replica"
    if variant == "ft_toomcook":
        if rank < p:
            return "standard"
        if rank < p + f * q:
            return "linear-code"
        return "poly-code"
    return "standard" if rank < p else "poly-code"


def ref_unit_members(variant, rank, cfg):
    p, q, f = cfg.p, 2 * cfg.k - 1, cfg.f
    g2 = p // q
    if variant == "replication":
        group = rank // p
        return tuple(range(group * p, (group + 1) * p))
    if variant in ("ft_polynomial", "soft_faults"):
        if rank < p:
            j = rank // g2
            return tuple(range(j * g2, (j + 1) * g2))
        j2 = (rank - p) // g2
        return tuple(range(p + j2 * g2, p + (j2 + 1) * g2))
    if variant == "ft_toomcook":
        if rank < p:
            j = rank // g2
            return tuple(range(j * g2, (j + 1) * g2))
        base = p + f * q
        if rank < base:
            return (rank,)
        j2 = (rank - base) // g2
        return tuple(range(base + j2 * g2, base + (j2 + 1) * g2))
    return (rank,)


def ref_families(variant, cfg):
    """Each family's kind, name and builder inputs."""
    p, k, f = cfg.p, cfg.k, cfg.f
    q = 2 * k - 1
    if variant == "parallel":
        return []
    if variant == "ft_linear":
        return [dict(kind="systematic", name="column-code", needed=_COLUMN, budget=f)]
    if variant == "ft_polynomial":
        points = tuple(extended_toom_points(k, f))
        return [dict(kind="points", name="poly-columns", points=points, needed=q, budget=f)]
    if variant == "ft_toomcook":
        points = tuple(extended_toom_points(k, f))
        return [
            dict(kind="points", name="poly-columns", points=points, needed=q, budget=f),
            dict(kind="systematic", name="linear-column", needed=p // q, budget=f),
        ]
    if variant == "soft_faults":
        points = tuple(extended_toom_points(k, 2 * f))
        return [
            dict(
                kind="points",
                name="poly-columns",
                points=points,
                needed=q,
                budget=2 * f,
                soft=True,
            )
        ]
    if variant == "checkpoint":
        units = tuple(f"rank-{r}" for r in range(p))
        return [
            dict(
                kind="trivial",
                name="rollback",
                units=units,
                budget=f,
                mechanism="checkpointed-rank",
            )
        ]
    if variant == "replication":
        units = tuple(f"group-{g}" for g in range(f + 1))
        return [
            dict(
                kind="trivial",
                name="replica-groups",
                units=units,
                budget=f,
                mechanism="replica",
            )
        ]
    if variant == "multistep":
        plan = make_plan(cfg.bits, p=p, k=k, word_bits=cfg.word_bits)
        l = min(2, plan.l_bfs)
        points = multistep_evaluation_points(k, l, f)
        return [
            dict(
                kind="multivariate",
                name="multivariate-columns",
                points=points,
                grid=(q, l),
                needed=q**l,
                budget=f,
            )
        ]
    raise ValueError(variant)


def ref_coverage(variant, role, phase):
    """Families (and reason) recovering a tolerated fault of this role."""
    if variant == "ft_linear":
        return ("column-code",), "erases one codeword coordinate"
    if variant in ("ft_polynomial", "soft_faults"):
        return ("poly-columns",), "kills the rank's coded column"
    if variant == "multistep":
        return ("multivariate-columns",), "kills the rank's coded column"
    if variant == "checkpoint":
        return ("rollback",), "restored from the last checkpoint"
    if variant == "replication":
        return ("replica-groups",), "taints the rank's copy group"
    if variant == "ft_toomcook":
        if role == "linear-code":
            return (
                ("linear-column",),
                "re-encoded at the next task boundary (code row loss)",
            )
        if phase == "multiplication" or role == "poly-code":
            return (
                ("poly-columns", "linear-column"),
                "multiplication window: poly code covers the column, "
                "linear code rebuilds persistent state at the boundary",
            )
        return (
            ("linear-column",),
            "traversal fault: state rebuilt from the column code at the "
            "task boundary (Section 4.1)",
        )
    return (), "no recovery mechanism"


# -- the record against the reference ------------------------------------------


CASES = [(name, point) for point in GRID for name in COMMCHECK_VARIANTS]
PHASES = ("evaluation", "multiplication", "interpolation", "code-creation", "recovery", "work")


def _config(point):
    p, k, f = point
    return make_config(p=p, k=k, f=f, bits=2000)


@pytest.mark.parametrize("name,point", CASES, ids=[f"{n}-{p}" for n, p in CASES])
def test_record_matches_reference(name, point):
    cfg = _config(point)
    spec = get_variant(name)
    geometry = spec.fault_geometry(cfg)
    reference = ref_geometry(name, cfg)

    # Graph meta: the extraction parameters, then the geometry keys in
    # the reference's order (the JSON report's bytes depend on it).
    meta = graph_meta(name, cfg, geometry)
    assert list(meta.items())[7:] == list(reference.items())

    # The reference's multistep units are single ranks even where a
    # column is wider (see test_multistep_units_are_its_columns).
    wide_multistep = name == "multistep" and cfg.p > (2 * cfg.k - 1) ** reference["l"]
    for rank in range(geometry.machine_size):
        unit = geometry.unit_of(rank)
        assert unit.role == ref_rank_role(name, rank, cfg)
        if not wide_multistep:
            assert unit.members == ref_unit_members(name, rank, cfg)

    expected = ref_families(name, cfg)
    assert [family.name for family in geometry.families] == [e["name"] for e in expected]
    for family, fields in zip(geometry.families, expected):
        assert {key: getattr(family, key) for key in fields} == fields
        assert family.soft == fields.get("soft", False)

    # Coverage of every (role, phase) the contract tolerates a fault in.
    for unit in geometry.units:
        for phase in PHASES:
            event = FaultEvent(rank=unit.members[0], phase=phase, op_index=0, kind="hard")
            if not spec.tolerates(event, cfg):
                continue
            cls = EquivClass(
                id="probe",
                kind="hard",
                phase=phase,
                role=unit.role,
                tolerated=True,
                n_points=1,
                ranks=unit.members,
                representatives=(),
            )
            coverage = _coverage_for(cls, geometry)
            assert (coverage.families, coverage.reason) == ref_coverage(
                name, unit.role, phase
            ), (unit, phase)


@pytest.mark.parametrize("name,point", CASES, ids=[f"{n}-{p}" for n, p in CASES])
def test_units_partition_the_machine(name, point):
    geometry = get_variant(name).fault_geometry(_config(point))
    ranks = sorted(r for unit in geometry.units for r in unit.members)
    assert ranks == list(range(geometry.machine_size))
    assert all(unit.members for unit in geometry.units)
    # Each unit carries exactly one of the layout roles.
    assert {unit.role for unit in geometry.units} <= {
        "standard",
        "linear-code",
        "poly-code",
        "replica",
    }


@pytest.mark.parametrize("point", GRID, ids=str)
def test_multistep_units_are_its_columns(point):
    cfg = _config(point)
    algo = get_variant("multistep").factory(cfg, FaultSchedule())
    units = {unit.members for unit in algo.fault_geometry().units}
    columns = {tuple(algo.column_members(j)) for j in range(algo.n_columns())}
    assert units == columns


def test_multistep_exhaustion_spans_two_columns():
    # At P=27 a multistep column holds three ranks.  Two faults inside
    # one column erase one column, which the code survives; the
    # exhaustion schedule must put them in two columns and fail loudly.
    cfg = make_config(p=27, bits=2000)
    algo = get_variant("multistep").factory(cfg, FaultSchedule())
    column_of = {
        rank: j for j in range(algo.n_columns()) for rank in algo.column_members(j)
    }
    report = prove_exhaustion(enumerate_space("multistep", cfg))
    (check,) = [c for c in report.checks if c.class_id == "hard.multiplication.standard.tol"]
    columns = {column_of[point.rank] for point in check.points}
    assert len(columns) == len(check.points) == 2
    assert check.verdict == "loud-beyond-budget"
