"""Thread-creation rule (THR001).

Rank execution is centralised in :mod:`repro.machine.engines`: the
event engine owns the carrier threads (parked, one runnable at a time).
A stray ``threading.Thread`` anywhere else reintroduces exactly the
nondeterminism the event engine was built to remove — wall-clock
interleavings, GIL-dependent schedules, wake-ups the scheduler cannot
see — and silently breaks the determinism the committed goldens pin.
The process backends keep their pump/reaper threads: they shuttle bytes
between OS processes and never touch rank scheduling.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Rule, SourceFile, Violation, dotted_name

__all__ = ["ThreadCreationRule"]

#: The only modules allowed to construct threads: the scheduler (rank
#: carriers) and the process backends (I/O pump + reaper threads).
_ALLOWED = (
    "machine/engines/",
    "machine/backends/proc.py",
    "machine/backends/rankproc.py",
)

_BANNED_CALLS = frozenset({"threading.Thread", "threading.Timer"})


class ThreadCreationRule(Rule):
    id = "THR001"
    name = "thread-creation"
    description = (
        "creating threading.Thread/Timer outside repro.machine.engines "
        "and the process backends is banned; rank concurrency must go "
        "through the engine so the scheduler sees every wake-up"
    )

    def applies_to(self, sf: SourceFile) -> bool:
        rel = sf.relpath
        if rel is None:
            return False
        return not any(
            rel == allowed or rel.startswith(allowed) for allowed in _ALLOWED
        )

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, sf.imports)
            if name in _BANNED_CALLS:
                yield self.violation(
                    sf,
                    node,
                    f"direct {name}() creation; spawn rank work through "
                    "the machine engine (repro.machine.engines), not ad-hoc "
                    "threads",
                )
