"""LOCK010-LOCK012: the guarded-by *verification* rules.

LOCK001 trusts annotations inside machine/core/obs; these rules verify
the annotation system — extended scopes with interprocedural clearing
(LOCK010), escape analysis for missing annotations (LOCK011), and stale
annotations naming locks that do not exist (LOCK012).
"""

from __future__ import annotations

from repro.lint.rules.lockverify import (
    GuardedScopeRule,
    MissingGuardRule,
    StaleGuardRule,
)

from .conftest import rule_ids

STATE = """\
    import threading


    class State:
        def __init__(self, size):
            self.lock = threading.Lock()
            self.alive = [True] * size  # guarded-by: lock
"""


def _scope_rules():
    return [GuardedScopeRule()]


# -- LOCK010: extended scopes + interprocedural clearing -------------------


def test_unlocked_campaign_access_flagged(lint):
    result = lint(
        {
            "machine/state.py": STATE,
            "campaign/user.py": """\
    def poke(state):
        state.alive[0] = False
    """,
        },
        rules=_scope_rules(),
    )
    assert rule_ids(result) == ["LOCK010"]
    assert "guarded field 'alive'" in result.violations[0].message


def test_lexical_lock_scope_is_clean(lint):
    result = lint(
        {
            "machine/state.py": STATE,
            "campaign/user.py": """\
    def poke(state):
        with state.lock:
            state.alive[0] = False
    """,
        },
        rules=_scope_rules(),
    )
    assert rule_ids(result) == []


def test_machine_files_stay_lock001_territory(lint):
    # An unlocked access in machine/ is LOCK001's finding; LOCK010 only
    # checks the extended scopes, so the same access is never reported
    # twice by the two rules.
    result = lint(
        {
            "machine/state.py": STATE
            + """\

        def kill(self, rank):
            self.alive[rank] = False
    """,
        },
        rules=_scope_rules(),
    )
    assert rule_ids(result) == []


def test_call_site_clearing_accepts_helper(lint):
    result = lint(
        {
            "machine/state.py": STATE,
            "campaign/user.py": """\
    def helper(state):
        state.alive[0] = False

    def caller(state):
        with state.lock:
            helper(state)
    """,
        },
        rules=_scope_rules(),
    )
    assert rule_ids(result) == []


def test_one_unlocked_call_site_breaks_clearing(lint):
    result = lint(
        {
            "machine/state.py": STATE,
            "campaign/user.py": """\
    def helper(state):
        state.alive[0] = False

    def caller(state):
        with state.lock:
            helper(state)

    def sloppy(state):
        helper(state)
    """,
        },
        rules=_scope_rules(),
    )
    assert rule_ids(result) == ["LOCK010"]
    assert "'helper'" in result.violations[0].message


def test_clearing_is_transitive_through_helpers(lint):
    # inner is only called by outer; outer is only called under the lock:
    # the guarantee must propagate through the call chain.
    result = lint(
        {
            "machine/state.py": STATE,
            "campaign/user.py": """\
    def inner(state):
        state.alive[0] = False

    def outer(state):
        inner(state)

    def entry(state):
        with state.lock:
            outer(state)
    """,
        },
        rules=_scope_rules(),
    )
    assert rule_ids(result) == []


def test_def_header_suppression_covers_function_body(lint):
    result = lint(
        {
            "machine/state.py": STATE,
            "campaign/user.py": """\
    # repro-lint: disable=LOCK010 -- single-threaded setup code
    def build(state):
        state.alive[0] = False
        state.alive[1] = False
    """,
        },
        rules=_scope_rules(),
    )
    assert rule_ids(result) == []


# -- LOCK011: missing annotations on thread-shared classes -----------------


def test_unannotated_mutable_field_of_lock_owner_flagged(lint):
    result = lint(
        {
            "machine/state.py": STATE
            + """\
            self.extra = {}

        def note(self, key):
            self.extra[key] = 1
    """,
        },
        rules=[MissingGuardRule()],
    )
    assert rule_ids(result) == ["LOCK011"]
    assert "'extra'" in result.violations[0].message
    # Anchored at the __init__ assignment, where the annotation belongs.
    assert result.violations[0].line == 8


def test_annotated_field_is_exempt(lint):
    result = lint(
        {
            "machine/state.py": STATE
            + """\

        def kill(self, rank):
            with self.lock:
                self.alive[rank] = False
    """,
        },
        rules=[MissingGuardRule()],
    )
    assert rule_ids(result) == []


def test_class_without_lock_or_annotations_is_exempt(lint):
    result = lint(
        {
            "machine/bag.py": """\
    class Bag:
        def __init__(self):
            self.items = []

        def push(self, x):
            self.items.append(x)
    """,
        },
        rules=[MissingGuardRule()],
    )
    assert rule_ids(result) == []


def test_mutation_only_in_init_is_exempt(lint):
    result = lint(
        {
            "machine/state.py": STATE
            + """\
            self.extra = {}
            self.extra["seed"] = 1
    """,
        },
        rules=[MissingGuardRule()],
    )
    assert rule_ids(result) == []


def test_condition_array_counts_as_lock_owner(lint):
    result = lint(
        {
            "machine/router.py": """\
    import threading


    class Router:
        def __init__(self, size):
            self._locks = [threading.Condition() for _ in range(size)]
            self._queues = {}

        def post(self, msg):
            self._queues[msg.dest] = msg
    """,
        },
        rules=[MissingGuardRule()],
    )
    assert rule_ids(result) == ["LOCK011"]
    assert "'_queues'" in result.violations[0].message


# -- LOCK012: stale annotations --------------------------------------------


def test_annotation_naming_missing_lock_flagged(lint):
    result = lint(
        {
            "machine/state.py": """\
    import threading


    class State:
        def __init__(self):
            self._lock = threading.Lock()
            self.data = []  # guarded-by: _mutex
    """,
        },
        rules=[StaleGuardRule()],
    )
    assert rule_ids(result) == ["LOCK012"]
    assert "_mutex" in result.violations[0].message


def test_annotation_without_assignment_flagged(lint):
    result = lint(
        {
            "machine/state.py": """\
    class State:
        # guarded-by: lock
        def helper(self):
            return 1
    """,
        },
        rules=[StaleGuardRule()],
    )
    assert rule_ids(result) == ["LOCK012"]
    assert "not attached" in result.violations[0].message


def test_lock_on_base_class_in_other_file_resolves(lint):
    result = lint(
        {
            "machine/base.py": """\
    import threading


    class Base:
        def __init__(self):
            self._lock = threading.Lock()
    """,
            "machine/derived.py": """\
    from repro.machine.base import Base


    class Derived(Base):
        def __init__(self):
            super().__init__()
            self._seen = {}  # guarded-by: _lock
    """,
        },
        rules=[StaleGuardRule()],
    )
    assert rule_ids(result) == []


def test_module_level_annotation_checks_module_names(lint):
    clean = lint(
        {
            "parallel/sink.py": """\
    import threading

    _mu = threading.Lock()
    _sink = None  # guarded-by: _mu
    """,
        },
        rules=[StaleGuardRule()],
    )
    assert rule_ids(clean) == []
    stale = lint(
        {
            "parallel/sink.py": """\
    _sink = None  # guarded-by: _mu
    """,
        },
        rules=[StaleGuardRule()],
    )
    assert rule_ids(stale) == ["LOCK012"]
    assert "module-level" in stale.violations[0].message
