"""faultcheck: exhaustive static certification of the fault space.

The campaign (:mod:`repro.campaign`) samples fault schedules at random;
commcheck (:mod:`repro.commcheck`) certifies only fault-free schedules.
faultcheck closes the gap between them: it enumerates **every**
injectable ``(rank, phase, op, kind)`` fault point per variant, collapses
the space into symmetry-reduced equivalence classes, and proves, class
by class —

* **decodability** (static, no multiplication executed): every
  within-budget erasure pattern satisfies the MDS / general-position
  conditions the decoders in :mod:`repro.coding` rely on;
* **recovery-schedule soundness** (replayed): the fault-annotated
  communication graph is orphan-free and deadlock-free and stays within
  the Theorem 5.1-5.3 fault-mode cost envelope;
* **budget exhaustion**: one fault past the budget is never a silent
  wrong product; and
* **campaign coverage**: the sampler draws a strict subset of the
  enumerated space, with never-sampled classes flagged.

``python -m repro faultcheck`` runs the gate and emits a
byte-deterministic JSON/text certificate.
"""

from repro.faultcheck.coverage import CoverageReport, check_coverage
from repro.faultcheck.decode import DecodeReport, prove_decodability
from repro.faultcheck.exhaust import ExhaustReport, prove_exhaustion
from repro.faultcheck.runner import (
    FaultCheckResult,
    VariantCertificate,
    certificate_json,
    render_text,
    run_faultcheck,
    to_json,
)
from repro.faultcheck.schedule import ScheduleReport, prove_schedules
from repro.faultcheck.space import (
    FAULTCHECK_VARIANTS,
    EquivClass,
    FaultPoint,
    FaultSpace,
    enumerate_space,
)

__all__ = [
    "FAULTCHECK_VARIANTS",
    "CoverageReport",
    "DecodeReport",
    "EquivClass",
    "ExhaustReport",
    "FaultCheckResult",
    "FaultPoint",
    "FaultSpace",
    "ScheduleReport",
    "VariantCertificate",
    "certificate_json",
    "check_coverage",
    "enumerate_space",
    "prove_decodability",
    "prove_exhaustion",
    "prove_schedules",
    "render_text",
    "run_faultcheck",
    "to_json",
]
