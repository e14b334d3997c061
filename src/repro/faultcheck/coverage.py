"""Campaign-coverage cross-check: sampling ⊂ enumerated space.

The randomized campaign draws fault schedules from the same measured
:class:`~repro.campaign.probe.OpSpace` the enumerator sweeps, so every
event the sampler can ever produce must land on an enumerated fault
point — an event that classifies into no equivalence class means the
sampler and the enumerator disagree about the fault space, and the
certificate cannot claim exhaustiveness.  This prover re-derives the
exact draws the campaign would make (same seeded RNG stream, same
sampler, no machine execution) and checks:

* **strict subset** — every sampled event maps to an enumerated class
  via :meth:`~repro.faultcheck.space.FaultSpace.classify_event`
  (replacement kills re-inject the same point at incarnation 1, so
  incarnation is ignored by design); an alien event is a gate failure;
* **never-sampled classes** — classes no draw ever touches are *flagged*
  (the motivating gap: randomized sampling can miss fault points
  forever, which is exactly what the static provers close), reported as
  warnings in the certificate rather than failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.campaign.runner import _sampler_rng
from repro.campaign.sampler import ScheduleSampler
from repro.faultcheck.space import FaultSpace

__all__ = ["CoverageReport", "check_coverage", "DEFAULT_COVERAGE_TRIALS"]

#: Draws to re-derive per variant; pure RNG work, no machine runs.  Set
#: well above the campaign's own default trial count so the table
#: reflects what sustained sampling would reach.
DEFAULT_COVERAGE_TRIALS = 200


@dataclass
class CoverageReport:
    """How the sampler's reachable draws map onto the enumerated space."""

    variant: str
    trials: int
    events: int
    hits: dict[str, int] = field(default_factory=dict)
    shape_counts: dict[str, int] = field(default_factory=dict)
    never_sampled: list[str] = field(default_factory=list)
    aliens: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.aliens

    def as_dict(self) -> dict[str, Any]:
        return {
            "variant": self.variant,
            "trials": self.trials,
            "events": self.events,
            "hits": {k: self.hits[k] for k in sorted(self.hits)},
            "shapes": {k: self.shape_counts[k] for k in sorted(self.shape_counts)},
            "never_sampled": list(self.never_sampled),
            "aliens": list(self.aliens),
            "ok": self.ok,
        }


def check_coverage(
    space: FaultSpace, trials: int = DEFAULT_COVERAGE_TRIALS
) -> CoverageReport:
    """Re-derive ``trials`` campaign draws and classify every event."""
    sampler = ScheduleSampler(
        _sampler_rng(space.cfg.seed, space.variant), space.geometry, space.opspace
    )
    hits: dict[str, int] = {cls.id: 0 for cls in space.classes}
    shape_counts: dict[str, int] = {}
    aliens: list[str] = []
    events = 0
    for _ in range(trials):
        shape, drawn = sampler.draw()
        shape_counts[shape] = shape_counts.get(shape, 0) + 1
        for ev in drawn:
            events += 1
            class_id = space.classify_event(ev)
            if class_id is None:
                aliens.append(
                    f"shape {shape}: event (rank {ev.rank}, {ev.phase}, "
                    f"op {ev.op_index}, {ev.kind}, inc {ev.incarnation}) "
                    "maps to no enumerated class"
                )
            else:
                hits[class_id] += 1
    never = [cid for cid in sorted(hits) if hits[cid] == 0]
    return CoverageReport(
        variant=space.variant,
        trials=trials,
        events=events,
        hits=hits,
        shape_counts=shape_counts,
        never_sampled=never,
        aliens=aliens,
    )
