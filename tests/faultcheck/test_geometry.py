"""Each algorithm's own layout record against the checkers' old switches.

commcheck and faultcheck once restated every variant's processor layout
in per-variant name switches, and the campaign registry restated every
variant's tolerance contract as ``tolerates`` predicates, budget dicts
and a custom soft-fault budget rule.  Those copies are kept here,
verbatim in substance, as the reference the algorithms'
``fault_geometry()`` records must reproduce over a grid of
configurations.  The places the reference was wrong: multistep's erasure
units when ``P > (2k-1)**l`` (it made every rank its own unit, but a
multistep column holds ``P/(2k-1)**l`` ranks), ranks outside the machine
(five contracts tolerated them), and budgets that did not scale with f.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import pytest

from repro.bigint.evalpoints import extended_toom_points
from repro.campaign.oracle import schedule_budget
from repro.campaign.registry import get_variant
from repro.campaign.runner import run_trial
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


# -- the reference: the registry's tolerance contracts -------------------------

PHASE_EVAL = "evaluation"
PHASE_MULT = "multiplication"
PHASE_INTERP = "interpolation"
PHASE_CODE = "code-creation"
PHASE_RECOV = "recovery"

_TRAVERSAL_PHASES = (PHASE_EVAL, PHASE_MULT, PHASE_INTERP)


def _ft_toomcook_tolerates(ev, cfg):
    if ev.kind != "hard":
        return False
    p = cfg.p
    q = 2 * cfg.k - 1
    linear_rows = range(p, p + cfg.f * q)
    if ev.rank < p or ev.rank >= linear_rows.stop:
        # Standard and poly-code ranks recover inside the task loop.
        return ev.phase in _TRAVERSAL_PHASES
    # Linear-code rows only execute the boundary protocol.
    return ev.phase in (PHASE_CODE, PHASE_RECOV)


def _soft_redundancy(cfg):
    return 2 * cfg.f  # the soft variant runs with doubled redundancy


def _soft_budget(events, cfg):
    f = _soft_redundancy(cfg)
    hard = sum(1 for ev in events if ev.kind == "hard")
    soft = sum(1 for ev in events if ev.kind == "soft")
    for ev in events:
        if ev.kind == "delay":
            continue
        if ev.incarnation != 0 or ev.phase != PHASE_MULT:
            return "may"
    # MDS decoding: s erasures + e errors decodable iff s + 2e <= f.
    return "must" if hard + 2 * soft <= f else "may"


REF_TOLERATES = {
    "parallel": lambda ev, cfg: False,
    "ft_linear": lambda ev, cfg: (
        ev.kind == "hard" and ev.rank < _COLUMN and ev.phase == "work"
    ),
    "ft_polynomial": lambda ev, cfg: ev.kind == "hard"
    and ev.phase in (PHASE_MULT, PHASE_INTERP),
    "ft_toomcook": _ft_toomcook_tolerates,
    "soft_faults": lambda ev, cfg: ev.phase == PHASE_MULT
    and ev.kind in ("hard", "soft"),
    "checkpoint": lambda ev, cfg: ev.kind == "hard"
    and ev.rank < cfg.p
    and ev.phase in _TRAVERSAL_PHASES,
    "replication": lambda ev, cfg: ev.kind == "hard",
    "multistep": lambda ev, cfg: ev.kind == "hard" and ev.phase == PHASE_MULT,
}

#: The f=1 budget dicts; the soft variant's custom rule ignored its own.
REF_BUDGETS = {"parallel": {}, "soft_faults": {"hard": 2, "soft": 1}}
REF_BUDGET_RULES = {"soft_faults": _soft_budget}


def ref_budget(name, events, cfg):
    """``VariantSpec.budget`` as it was, its budget dicts scaled by f."""
    if events and all(ev.kind == "delay" for ev in events):
        return "must"
    if name in REF_BUDGET_RULES:
        return REF_BUDGET_RULES[name](events, cfg)
    budgets = {kind: n * cfg.f for kind, n in REF_BUDGETS.get(name, {"hard": 1}).items()}
    counts = {}
    for ev in events:
        if ev.kind == "delay":
            continue
        if ev.incarnation != 0 or not REF_TOLERATES[name](ev, cfg):
            return "may"
        counts[ev.kind] = counts.get(ev.kind, 0) + 1
    for kind in sorted(counts):
        if counts[kind] > budgets.get(kind, 0):
            return "may"
    return "must"


# -- the record against the reference ------------------------------------------


CASES = [(name, point) for point in GRID for name in COMMCHECK_VARIANTS]
PHASES = (
    "evaluation",
    "multiplication",
    "interpolation",
    "checkpoint",
    "code-creation",
    "recovery",
    "work",
)
KINDS = ("hard", "soft", "delay")


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
            if not REF_TOLERATES[name](event, cfg):
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


def _events(ranks, incarnations=(0, 1)):
    return [
        FaultEvent(rank=rank, phase=phase, kind=kind, incarnation=inc)
        for rank in ranks
        for phase in PHASES
        for kind in KINDS
        for inc in incarnations
    ]


@pytest.mark.parametrize("name,point", CASES, ids=[f"{n}-{p}" for n, p in CASES])
def test_tolerance_matches_reference(name, point):
    cfg = _config(point)
    geometry = get_variant(name).fault_geometry(cfg)
    for ev in _events(range(geometry.machine_size), incarnations=(0,)):
        expected = REF_TOLERATES[name](ev, cfg)
        assert geometry.tolerates(ev.kind, ev.rank, ev.phase) == expected, ev


@pytest.mark.parametrize("name,point", CASES, ids=[f"{n}-{p}" for n, p in CASES])
def test_budget_matches_reference(name, point):
    # Every 1-event schedule on every rank; 2-event schedules (hard/soft
    # mixes and replacement kills included) on the lowest and highest
    # rank of each role, where a restated layout would slip.
    cfg = _config(point)
    geometry = get_variant(name).fault_geometry(cfg)
    for ev in _events(range(geometry.machine_size)):
        assert schedule_budget([ev], geometry) == ref_budget(name, [ev], cfg), ev
    by_role = {}
    for unit in geometry.units:
        by_role.setdefault(unit.role, []).extend(unit.members)
    edges = sorted({r for ranks in by_role.values() for r in (min(ranks), max(ranks))})
    for pair in combinations_with_replacement(_events(edges), 2):
        assert schedule_budget(pair, geometry) == ref_budget(name, pair, cfg), pair


@pytest.mark.parametrize("name", COMMCHECK_VARIANTS)
def test_ranks_outside_the_machine_are_not_tolerated(name):
    geometry = get_variant(name).fault_geometry(make_config())
    size = geometry.machine_size
    for rank in (size, size + 5):
        event = FaultEvent(rank=rank, phase="multiplication", op_index=0)
        assert not geometry.tolerates("hard", rank, "multiplication")
        assert schedule_budget([event], geometry) == "may"
    with pytest.raises(ValueError, match=f"rank {size} "):
        geometry.unit_of(size)


def test_fault_on_a_missing_rank_is_beyond_budget():
    # Nothing fires, so the product is exact, but the schedule promised
    # a fault the machine cannot take.
    out = run_trial(
        "replication", events=[FaultEvent(rank=500, phase="multiplication", op_index=0)]
    )
    assert not out.execution.fired
    assert (out.budget, out.verdict) == ("may", "exact-beyond-budget")


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


#: Budgets at f=2: f erasures, and for the soft variant 2f erasures or f
#: silent errors.
F2_BUDGETS = {
    "ft_polynomial": {"hard": 2},
    "replication": {"hard": 2},
    "soft_faults": {"hard": 4, "soft": 2},
}


@pytest.mark.parametrize("name", sorted(F2_BUDGETS))
def test_f2_exhaustion_reaches_the_frontier(name):
    report = prove_exhaustion(enumerate_space(name, make_config(f=2)))
    assert report.problems == []
    beyond = [c for c in report.checks if c.mode == "beyond-budget"]
    assert {c.points[0].kind for c in beyond} == set(F2_BUDGETS[name])
    for check in beyond:
        budget = F2_BUDGETS[name][check.points[0].kind]
        assert check.budget == budget
        assert len(check.points) == budget + 1
        assert check.verdict == "loud-beyond-budget"
