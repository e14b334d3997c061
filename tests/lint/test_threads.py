"""THR001: thread creation outside the machine engines."""

from __future__ import annotations

from repro.lint.rules.threads import ThreadCreationRule

from .conftest import rule_ids


class TestThreadCreation:
    def test_thread_in_core_flagged(self, lint):
        result = lint(
            {
                "core/sneaky.py": """\
    import threading


    def run(fn):
        t = threading.Thread(target=fn, daemon=True)
        t.start()
        return t
    """
            },
            rules=[ThreadCreationRule()],
        )
        assert rule_ids(result) == ["THR001"]
        assert "machine.engines" in result.violations[0].message

    def test_from_import_alias_flagged(self, lint):
        result = lint(
            {
                "campaign/bg.py": """\
    from threading import Thread


    def watch(fn):
        return Thread(target=fn)
    """
            },
            rules=[ThreadCreationRule()],
        )
        assert rule_ids(result) == ["THR001"]

    def test_timer_flagged(self, lint):
        result = lint(
            {
                "obs/delayed.py": """\
    import threading


    def later(fn):
        return threading.Timer(1.0, fn)
    """
            },
            rules=[ThreadCreationRule()],
        )
        assert rule_ids(result) == ["THR001"]

    def test_engines_exempt(self, lint):
        result = lint(
            {
                "machine/engines/event.py": """\
    import threading


    def carrier(fn):
        return threading.Thread(target=fn, daemon=True)
    """,
            },
            rules=[ThreadCreationRule()],
        )
        assert rule_ids(result) == []

    def test_proc_backends_exempt(self, lint):
        result = lint(
            {
                "machine/backends/proc.py": """\
    import threading


    def pump(fn):
        return threading.Thread(target=fn, daemon=True)
    """,
                "machine/backends/rankproc.py": """\
    import threading


    def reaper(fn):
        return threading.Thread(target=fn, daemon=True)
    """,
            },
            rules=[ThreadCreationRule()],
        )
        assert rule_ids(result) == []

    def test_other_backend_module_flagged(self, lint):
        # The exemption is the two process-backend files, not the whole
        # backends package: a new backend must not grow ad-hoc threads.
        result = lint(
            {
                "machine/backends/future.py": """\
    import threading


    def spawn(fn):
        return threading.Thread(target=fn)
    """
            },
            rules=[ThreadCreationRule()],
        )
        assert rule_ids(result) == ["THR001"]

    def test_benign_names_not_flagged(self, lint):
        result = lint(
            {
                "core/ok.py": """\
    import threading


    def ok():
        ev = threading.Event()
        lock = threading.Lock()
        return ev, lock, threading.current_thread()
    """
            },
            rules=[ThreadCreationRule()],
        )
        assert rule_ids(result) == []

    def test_suppression_honoured(self, lint):
        result = lint(
            {
                "util/escape.py": """\
    import threading

    t = threading.Thread(target=print)  # repro-lint: disable=THR001 -- fixture
    """
            },
            rules=[ThreadCreationRule()],
        )
        assert rule_ids(result) == []
