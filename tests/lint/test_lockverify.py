"""LOCK001 in the later subsystems, and LOCK011-LOCK012: the guarded-by
*verification* rules.

LOCK001 checks every annotated field access in ``machine/``, ``core/``,
``obs/``, ``campaign/`` and ``parallel/`` against the lexical lock scope;
LOCK011 and LOCK012 verify the annotation system itself — escape
analysis for missing annotations (LOCK011) and stale annotations naming
locks that do not exist (LOCK012).
"""

from __future__ import annotations

from repro.lint.rules import default_rules
from repro.lint.rules.locks import LockDisciplineRule
from repro.lint.rules.lockverify import MissingGuardRule, StaleGuardRule

from .conftest import rule_ids

STATE = """\
    import threading


    class State:
        def __init__(self, size):
            self.lock = threading.Lock()
            self.alive = [True] * size  # guarded-by: lock
"""


def _scope_rules():
    return [LockDisciplineRule()]


# -- LOCK001 in campaign/ and parallel/ ------------------------------------


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
    assert rule_ids(result) == ["LOCK001"]
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


def test_each_unlocked_access_reported_once(lint):
    # Across the whole default rule set, one unlocked access is one
    # finding, whichever subsystem it sits in.
    result = lint(
        {
            "machine/state.py": STATE
            + """\

        def kill(self, rank):
            self.alive[rank] = False
    """,
            "parallel/user.py": """\
    def poke(state):
        state.alive[0] = False
    """,
        },
        rules=default_rules(),
    )
    assert rule_ids(result) == ["LOCK001", "LOCK001"]
    paths = sorted(v.path for v in result.violations)
    assert paths[0].endswith("machine/state.py")
    assert paths[1].endswith("parallel/user.py")


def test_unlocked_helper_flagged_despite_locked_callers(lint):
    # The lock must be held where the field is touched: a helper that
    # every caller invokes under the lock is still a finding.
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
    assert rule_ids(result) == ["LOCK001"]
    assert result.violations[0].line == 2


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
    assert rule_ids(result) == ["LOCK001"]
    assert result.violations[0].line == 2


def test_def_header_suppression_covers_function_body(lint):
    result = lint(
        {
            "machine/state.py": STATE,
            "campaign/user.py": """\
    # repro-lint: disable=LOCK001 -- single-threaded setup code
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
