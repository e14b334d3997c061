"""Guarded-by *verification* rules (LOCK011-LOCK012).

``LOCK001`` trusts ``# guarded-by:`` annotations: it flags accesses of
annotated fields outside the named lock's scope.  These rules verify the
annotation system itself:

``LOCK011``
    Escape analysis for *missing* annotations: a class that owns a
    ``threading`` lock (or already has guarded fields) is reachable from
    multiple rank/worker threads — that is why it holds a lock.  Any
    mutable-container field such a class initializes in ``__init__``
    without an annotation, and then mutates outside ``__init__``, is
    shared mutable state with no declared discipline.

``LOCK012``
    Stale annotations: a ``# guarded-by: <lock>`` whose comment is not
    attached to a field assignment, or whose named lock is not an
    attribute of the enclosing class (searching base classes across
    files) or, at module level, not a module-level name.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from repro.lint.engine import Rule, SourceFile, Violation

__all__ = ["MissingGuardRule", "StaleGuardRule"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Method names that mutate a list/dict/set in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
    }
)

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore"})


class MissingGuardRule(Rule):
    id = "LOCK011"
    name = "lock-verify-missing"
    description = (
        "mutable fields of lock-owning (thread-shared) classes that are "
        "mutated outside __init__ must carry a '# guarded-by:' annotation"
    )
    scopes = ("machine/", "campaign/", "parallel/", "obs/")

    @staticmethod
    def _is_lock_factory(value: ast.expr) -> bool:
        """``threading.Lock()`` / ``Condition()`` etc., directly or inside
        a list literal/comprehension (per-rank condition arrays)."""
        for node in ast.walk(value):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Attribute, ast.Name))
                and (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else node.func.id
                )
                in _LOCK_FACTORIES
            ):
                return True
        return False

    @staticmethod
    def _is_mutable_literal(value: ast.expr) -> bool:
        if isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in ("list", "dict", "set")
        if isinstance(value, ast.BinOp):
            return MissingGuardRule._is_mutable_literal(
                value.left
            ) or MissingGuardRule._is_mutable_literal(value.right)
        return False

    @staticmethod
    def _self_field(node: ast.expr, self_name: str) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
        ):
            return node.attr
        return None

    def _mutated_fields(
        self, cls: ast.ClassDef, skip: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> set[str]:
        """Fields of ``cls`` written or mutated in place outside ``skip``."""
        mutated: set[str] = set()
        for method in cls.body:
            if not isinstance(method, _FUNC_NODES) or method is skip:
                continue
            if not method.args.args:
                continue
            self_name = method.args.args[0].arg
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for t in targets:
                        field = self._self_field(t, self_name)
                        if field is not None:
                            mutated.add(field)
                        if isinstance(t, ast.Subscript):
                            field = self._self_field(t.value, self_name)
                            if field is not None:
                                mutated.add(field)
                elif isinstance(node, ast.Delete):
                    for t in node.targets:
                        if isinstance(t, ast.Subscript):
                            field = self._self_field(t.value, self_name)
                            if field is not None:
                                mutated.add(field)
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr in _MUTATORS:
                        field = self._self_field(node.func.value, self_name)
                        if field is not None:
                            mutated.add(field)
        return mutated

    def check(self, sf: SourceFile) -> Iterable[Violation]:
        out: list[Violation] = []
        for cls in ast.walk(sf.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            init = next(
                (
                    m
                    for m in cls.body
                    if isinstance(m, _FUNC_NODES) and m.name == "__init__"
                ),
                None,
            )
            if init is None or not init.args.args:
                continue
            self_name = init.args.args[0].arg
            end = cls.end_lineno or cls.lineno
            annotated_in_class = any(
                cls.lineno <= line <= end for line in sf.guarded_lines
            )
            owns_lock = False
            candidates: list[tuple[str, ast.AST]] = []
            for node in ast.walk(init):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                if value is None:
                    continue
                for t in targets:
                    field = self._self_field(t, self_name)
                    if field is None:
                        continue
                    if self._is_lock_factory(value):
                        owns_lock = True
                    elif (
                        self._is_mutable_literal(value)
                        and node.lineno not in sf.guarded_lines
                    ):
                        candidates.append((field, node))
            if not (owns_lock or annotated_in_class) or not candidates:
                continue
            mutated = self._mutated_fields(cls, init)
            for field, node in candidates:
                if field not in mutated:
                    continue
                out.append(
                    self.violation(
                        sf,
                        node,
                        f"field {field!r} of lock-owning class {cls.name!r} "
                        "is mutated outside __init__ but has no "
                        "'# guarded-by:' annotation",
                    )
                )
        return out


class StaleGuardRule(Rule):
    id = "LOCK012"
    name = "lock-verify-stale"
    description = (
        "'# guarded-by: <lock>' must be attached to a field assignment and "
        "name a lock that exists on the enclosing class (or module)"
    )
    scopes = ()

    def __init__(self) -> None:
        #: class name -> (attribute names, base-class names); cross-file.
        self.classes: dict[str, tuple[set[str], set[str]]] = {}

    @staticmethod
    def _class_attrs(cls: ast.ClassDef) -> tuple[set[str], set[str]]:
        attrs: set[str] = set()
        bases: set[str] = set()
        for base in cls.bases:
            if isinstance(base, ast.Name):
                bases.add(base.id)
            elif isinstance(base, ast.Attribute):
                bases.add(base.attr)
        for node in cls.body:
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        attrs.add(t.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                attrs.add(node.target.id)
        for method in cls.body:
            if not isinstance(method, _FUNC_NODES) or not method.args.args:
                continue
            self_name = method.args.args[0].arg
            for node in ast.walk(method):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for t in targets:
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == self_name
                    ):
                        attrs.add(t.attr)
        return attrs, bases

    def prepare(self, files: Sequence[SourceFile]) -> None:
        self.classes = {}
        for sf in files:
            for node in ast.walk(sf.tree):
                if isinstance(node, ast.ClassDef):
                    attrs, bases = self._class_attrs(node)
                    if node.name in self.classes:
                        old_attrs, old_bases = self.classes[node.name]
                        attrs |= old_attrs
                        bases |= old_bases
                    self.classes[node.name] = (attrs, bases)

    def _class_has_attr(self, cls_name: str, attr: str) -> bool:
        seen: set[str] = set()
        frontier = [cls_name]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            entry = self.classes.get(name)
            if entry is None:
                continue
            attrs, bases = entry
            if attr in attrs:
                return True
            frontier.extend(bases)
        return False

    def check(self, sf: SourceFile) -> Iterable[Violation]:
        if not sf.guarded_lines:
            return []
        out: list[Violation] = []
        assigns: dict[int, ast.AST] = {}
        class_spans: list[tuple[int, int, str]] = []
        module_names: set[str] = set()
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                assigns.setdefault(node.lineno, node)
            elif isinstance(node, ast.ClassDef):
                class_spans.append(
                    (node.lineno, node.end_lineno or node.lineno, node.name)
                )
        for node in sf.tree.body:
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        module_names.add(t.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                module_names.add(node.target.id)
        for line in sorted(sf.guarded_lines):
            lock = sf.guarded_lines[line]
            target = assigns.get(line)
            if target is None:
                out.append(
                    Violation(
                        rule=self.id,
                        path=sf.display,
                        line=line,
                        col=1,
                        message=(
                            f"stale '# guarded-by: {lock}': not attached to a "
                            "field assignment"
                        ),
                    )
                )
                continue
            enclosing: str | None = None
            best_span = None
            for start, end, name in class_spans:
                if start <= line <= end and (
                    best_span is None or start > best_span
                ):
                    best_span = start
                    enclosing = name
            if enclosing is not None:
                if not self._class_has_attr(enclosing, lock):
                    out.append(
                        self.violation(
                            sf,
                            target,
                            f"stale '# guarded-by: {lock}': {lock!r} is not an "
                            f"attribute of {enclosing!r} or its bases",
                        )
                    )
            elif lock not in module_names:
                out.append(
                    self.violation(
                        sf,
                        target,
                        f"stale '# guarded-by: {lock}': {lock!r} is not a "
                        "module-level name",
                    )
                )
        return out
