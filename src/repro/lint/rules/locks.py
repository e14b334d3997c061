"""Lock-discipline rule (LOCK001).

Shared mutable fields are declared with a trailing ``# guarded-by:
<lock>`` comment on their assignment inside the owning class::

    class Consensus:
        def __init__(self, ...):
            self.lock = threading.Lock()
            self.alive = [True] * size  # guarded-by: lock

The rule then flags any read or write of ``<obj>.alive`` in a function
body that is not lexically inside a ``with <lock>:`` block.  Lock
expressions are matched structurally:

- ``with self.lock:`` / ``with state.lock:`` — terminal attribute name,
- ``with self._locks[rank]:`` — subscript of a lock attribute,
- ``cond = self._locks[dest]`` then ``with cond:`` — simple local
  aliases, collected flow-insensitively per function,

so aliasing through ``self.state.lock`` and per-rank condition arrays
both count as holding the declared lock.  ``__init__`` and
``__setstate__`` bodies are exempt (the object is not shared before
construction — unpickling included — completes), as are nested
``def``/``lambda`` scopes, which are checked as functions in their own
right.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from repro.lint.engine import Rule, SourceFile, Violation, iter_functions

__all__ = ["LockDisciplineRule"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


class LockDisciplineRule(Rule):
    id = "LOCK001"
    name = "lock-discipline"
    description = (
        "reads/writes of '# guarded-by: <lock>' fields must happen inside "
        "a 'with <lock>:' block in the enclosing function"
    )
    scopes = ("machine/", "core/", "obs/", "campaign/", "parallel/")

    def __init__(self) -> None:
        #: field name -> set of lock names that guard it
        self.guarded: dict[str, set[str]] = {}
        #: every lock name appearing in a guarded-by annotation
        self.lock_names: set[str] = set()

    # -- collect pass -----------------------------------------------------

    def prepare(self, files: Sequence[SourceFile]) -> None:
        self.guarded = {}
        self.lock_names = set()
        for sf in files:
            if not sf.guarded_lines:
                continue
            for node in ast.walk(sf.tree):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                lock = sf.guarded_lines.get(node.lineno)
                if lock is None:
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for t in targets:
                    field: str | None = None
                    if isinstance(t, ast.Attribute):
                        field = t.attr
                    elif isinstance(t, ast.Name):
                        field = t.id
                    if field is not None:
                        self.guarded.setdefault(field, set()).add(lock)
                        self.lock_names.add(lock)

    # -- check pass -------------------------------------------------------

    def check(self, sf: SourceFile) -> Iterable[Violation]:
        if not self.guarded:
            return []
        out: list[Violation] = []
        for func in iter_functions(sf.tree):
            if func.name in ("__init__", "__setstate__"):
                continue
            aliases = self._collect_aliases(func)
            for stmt in func.body:
                self._visit(stmt, (), aliases, sf, out)
        return out

    def _collect_aliases(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, str]:
        """Local names assigned from a lock expression, flow-insensitively."""
        aliases: dict[str, str] = {}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                lock = self._lock_of(node.value, {})
                if lock is not None:
                    aliases[node.targets[0].id] = lock
        return aliases

    def _lock_of(self, expr: ast.expr, aliases: dict[str, str]) -> str | None:
        """Lock name denoted by a with/assignment expression, if any."""
        while isinstance(expr, ast.Subscript):
            expr = expr.value
        if isinstance(expr, ast.Attribute) and expr.attr in self.lock_names:
            return expr.attr
        if isinstance(expr, ast.Name):
            if expr.id in aliases:
                return aliases[expr.id]
            if expr.id in self.lock_names:
                return expr.id
        return None

    def _visit(
        self,
        node: ast.AST,
        held: tuple[str, ...],
        aliases: dict[str, str],
        sf: SourceFile,
        out: list[Violation],
    ) -> None:
        if isinstance(node, _SCOPE_NODES):
            return  # separate scope, checked on its own
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in node.items:
                for sub in ast.walk(item.context_expr):
                    self._check_access(sub, held, sf, out)
                lock = self._lock_of(item.context_expr, aliases)
                if lock is not None:
                    acquired.append(lock)
            inner = held + tuple(acquired)
            for stmt in node.body:
                self._visit(stmt, inner, aliases, sf, out)
            return
        self._check_access(node, held, sf, out)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, aliases, sf, out)

    def _check_access(
        self,
        node: ast.AST,
        held: tuple[str, ...],
        sf: SourceFile,
        out: list[Violation],
    ) -> None:
        if not isinstance(node, ast.Attribute):
            return
        required = self.guarded.get(node.attr)
        if required is None:
            return
        if required & set(held):
            return
        mode = "write" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
        locks = " or ".join(sorted(required))
        out.append(
            self.violation(
                sf,
                node,
                f"{mode} of guarded field {node.attr!r} outside "
                f"'with {locks}:' scope",
            )
        )
