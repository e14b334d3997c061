"""Seeded randomized fault-schedule sampling.

The sampler draws trial schedules from a weighted menu of *shapes* —
single faults, correlated multi-fault combinations, deliberate
beyond-budget bursts and replacement kills — with every victim cell and
op index drawn from the :class:`~repro.campaign.probe.OpSpace` measured
by the dry probe run, so injected events are guaranteed to land on a real
fault point instead of silently missing.

Shapes whose prerequisites a variant lacks (no untolerated cell, no soft
check points) deterministically fall back to simpler shapes, so the same
menu drives every variant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.machine.fault import FaultEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.probe import Cell, OpSpace
    from repro.core.layout import FaultGeometry
    from repro.util.rng import DeterministicRNG

__all__ = ["ScheduleSampler", "SHAPES"]

#: Shape menu with draw weights.  Names are reported per trial.
SHAPES: tuple[tuple[str, int], ...] = (
    ("empty", 1),  # canary: no faults, result must be exact
    ("single-tolerated", 4),  # one hard fault inside the contract
    ("single-untolerated", 3),  # one hard fault outside it (must fail loudly)
    ("single-delay", 2),  # a slowdown never affects correctness
    ("single-soft", 3),  # one silent miscalculation (soft variants)
    ("hard-plus-delay", 2),  # correlated: same rank slowed, then killed
    ("two-rank-pair", 2),  # correlated: two distinct ranks
    ("beyond-budget-burst", 2),  # budget+1 tolerated faults
    ("replacement-kill", 2),  # kill the replacement too (incarnation 1)
    ("soft-pair", 2),  # hard + soft mix (soft variants)
    ("straggler", 2),  # heavy-tailed slowdown on a sampled rank subset
)

#: Straggler-shape tail parameters: slowdowns are Pareto-distributed
#: (``factor = scale * (1-u)**(-1/tail)``) so most stragglers are mildly
#: slow and a few are extreme — the empirical shape of real straggler
#: populations.  The cap keeps the virtual-time stretch finite.
_STRAGGLER_SCALE = 2.0
_STRAGGLER_TAIL = 1.5
_STRAGGLER_CAP = 256.0
_STRAGGLER_MAX_VICTIMS = 3


class ScheduleSampler:
    """Draws seeded fault schedules for one variant from its measured op
    space, against its :class:`~repro.core.layout.FaultGeometry`.  All
    randomness flows through the injected ``rng``; identical seeds and op
    spaces yield identical schedules."""

    def __init__(
        self,
        rng: "DeterministicRNG",
        geometry: "FaultGeometry",
        opspace: "OpSpace",
    ) -> None:
        self._rng = rng
        self._budget = geometry.budget("hard")
        self._machine_cells = opspace.cells("machine")
        soft_cells = opspace.cells("soft") if "soft" in geometry.kinds else []
        hard = {c: geometry.tolerates("hard", c.rank, c.phase) for c in self._machine_cells}
        self._tolerated = [c for c, ok in hard.items() if ok]
        self._untolerated = [c for c, ok in hard.items() if not ok]
        self._soft_tolerated = [
            c for c in soft_cells if geometry.tolerates("soft", c.rank, c.phase)
        ]
        self._menu: list[str] = []
        for name, weight in SHAPES:
            if self._available(name):
                self._menu.extend([name] * weight)

    def _available(self, shape: str) -> bool:
        if shape == "empty":
            return True
        if shape in ("single-untolerated",):
            return bool(self._untolerated)
        if shape in ("single-soft",):
            return bool(self._soft_tolerated)
        if shape == "soft-pair":
            return bool(self._soft_tolerated) and bool(self._tolerated)
        if shape in ("two-rank-pair",):
            return len({c.rank for c in self._machine_cells}) >= 2
        if shape in ("beyond-budget-burst", "replacement-kill"):
            return bool(self._tolerated)
        return bool(self._machine_cells)

    # -- event construction -------------------------------------------------

    def _event(
        self,
        cell: "Cell",
        kind: str,
        incarnation: int = 0,
        factor: float = 8.0,
    ) -> FaultEvent:
        op = self._rng.choice(list(cell.ops))
        return FaultEvent(
            rank=cell.rank,
            phase=cell.phase,
            op_index=op,
            incarnation=incarnation,
            kind=kind,
            factor=factor,
        )

    def _pick(self, cells: list["Cell"]) -> "Cell":
        return self._rng.choice(cells)

    def draw(self) -> tuple[str, list[FaultEvent]]:
        """One (shape name, event list) draw from the weighted menu."""
        if not self._machine_cells:
            return "empty", []
        shape = self._rng.choice(self._menu)
        return shape, self._events_for(shape)

    def _events_for(self, shape: str) -> list[FaultEvent]:
        rng = self._rng
        if shape == "empty":
            return []
        if shape == "single-tolerated":
            # Fall back to any machine cell when nothing is tolerated
            # (the plain parallel variant): still a valid loud-path probe.
            cells = self._tolerated or self._machine_cells
            return [self._event(self._pick(cells), "hard")]
        if shape == "single-untolerated":
            return [self._event(self._pick(self._untolerated), "hard")]
        if shape == "single-delay":
            return [self._event(self._pick(self._machine_cells), "delay")]
        if shape == "single-soft":
            return [self._event(self._pick(self._soft_tolerated), "soft")]
        if shape == "hard-plus-delay":
            cell = self._pick(self._tolerated or self._machine_cells)
            same_rank = [c for c in self._machine_cells if c.rank == cell.rank]
            return [
                self._event(self._pick(same_rank), "delay"),
                self._event(cell, "hard"),
            ]
        if shape == "two-rank-pair":
            first = self._pick(self._machine_cells)
            others = [c for c in self._machine_cells if c.rank != first.rank]
            return [
                self._event(first, "hard"),
                self._event(self._pick(others), "hard"),
            ]
        if shape == "beyond-budget-burst":
            count = self._budget + 1
            events = []
            ranks_used: set[int] = set()
            for _ in range(count):
                pool = [
                    c for c in self._tolerated if c.rank not in ranks_used
                ] or self._tolerated
                cell = self._pick(pool)
                ranks_used.add(cell.rank)
                events.append(self._event(cell, "hard"))
            return events
        if shape == "replacement-kill":
            cell = self._pick(self._tolerated)
            return [
                self._event(cell, "hard"),
                self._event(cell, "hard", incarnation=1),
            ]
        if shape == "straggler":
            # The paper's third fault category (a processor's average time
            # per operation increases), as a population: 1..3 distinct
            # ranks slowed by heavy-tailed factors.  Delay events never
            # affect correctness, so the oracle demands the exact result
            # regardless of which ranks are hit.
            distinct = len({c.rank for c in self._machine_cells})
            count = min(
                distinct, 1 + rng.integer_range(0, _STRAGGLER_MAX_VICTIMS - 1)
            )
            events: list[FaultEvent] = []
            ranks_used: set[int] = set()
            for _ in range(count):
                pool = [
                    c for c in self._machine_cells if c.rank not in ranks_used
                ]
                cell = self._pick(pool)
                ranks_used.add(cell.rank)
                u = min(rng.uniform(0.0, 1.0), 0.999)
                factor = min(
                    _STRAGGLER_SCALE * (1.0 - u) ** (-1.0 / _STRAGGLER_TAIL),
                    _STRAGGLER_CAP,
                )
                events.append(self._event(cell, "delay", factor=factor))
            return events
        if shape == "soft-pair":
            if rng.uniform(0.0, 1.0) < 0.5:
                return [
                    self._event(self._pick(self._soft_tolerated), "soft"),
                    self._event(self._pick(self._soft_tolerated), "soft"),
                ]
            return [
                self._event(self._pick(self._tolerated), "hard"),
                self._event(self._pick(self._soft_tolerated), "soft"),
            ]
        raise ValueError(f"unknown shape {shape!r}")  # pragma: no cover
