"""Rule registry for ``repro lint``."""

from __future__ import annotations

from repro.lint.engine import ENGINE_DIAGNOSTICS, Rule
from repro.lint.rules.comm import (
    RawTagRule,
    UnboundedRecoveryRecvRule,
    WordsOverrideRule,
)
from repro.lint.rules.determinism import (
    DictViewIterationRule,
    RandomnessRule,
    SetIterationRule,
    WallClockRule,
)
from repro.lint.rules.exactness import FloatLiteralRule, MathFloatRule, TrueDivisionRule
from repro.lint.rules.exceptions import SilentExceptionRule
from repro.lint.rules.locks import LockDisciplineRule
from repro.lint.rules.lockverify import MissingGuardRule, StaleGuardRule
from repro.lint.rules.obs import PerfFunnelRule
from repro.lint.rules.parallel import RawParallelismRule
from repro.lint.rules.phases import PhaseAccountingRule
from repro.lint.rules.threads import ThreadCreationRule
from repro.lint.rules.timeouts import TimeoutLiteralRule

__all__ = ["default_rules", "rule_catalog", "ENGINE_DIAGNOSTICS"]


def default_rules() -> list[Rule]:
    """Fresh instances of every project rule, in id order."""
    return [
        WallClockRule(),
        RandomnessRule(),
        SetIterationRule(),
        DictViewIterationRule(),
        SilentExceptionRule(),
        LockDisciplineRule(),
        FloatLiteralRule(),
        TrueDivisionRule(),
        MathFloatRule(),
        PhaseAccountingRule(),
        WordsOverrideRule(),
        RawTagRule(),
        UnboundedRecoveryRecvRule(),
        RawParallelismRule(),
        ThreadCreationRule(),
        PerfFunnelRule(),
        MissingGuardRule(),
        StaleGuardRule(),
        TimeoutLiteralRule(),
    ]


def rule_catalog() -> list[dict[str, str]]:
    """Rule metadata for ``--list-rules`` (project rules + engine
    diagnostics), sorted by id."""
    entries = [
        {
            "id": rule.id,
            "name": rule.name,
            "scopes": ", ".join(rule.scopes) or "(everywhere)",
            "description": rule.description,
        }
        for rule in default_rules()
    ]
    entries.extend(
        {
            "id": rule_id,
            "name": "engine-diagnostic",
            "scopes": "(everywhere)",
            "description": description,
        }
        for rule_id, description in ENGINE_DIAGNOSTICS.items()
    )
    return sorted(entries, key=lambda e: e["id"])
