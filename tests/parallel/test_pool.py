"""WorkerPool: serial path, ordering, crash/timeout retries, metrics."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel import Task, TaskFailure, WorkerPool, WorkerPoolError, parallel_map

from . import _workers as w

SRC = Path(__file__).resolve().parents[2] / "src"


class TestConstruction:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            WorkerPool(jobs=0)

    def test_max_retries_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="max_retries"):
            WorkerPool(max_retries=-1)

    def test_jobs_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert WorkerPool(jobs=None).jobs == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert WorkerPool(jobs=None).jobs == 1

    def test_empty_task_list(self):
        assert WorkerPool(jobs=1).run([]) == []
        assert WorkerPool(jobs=2).run([]) == []


class TestSerialPath:
    def test_plain_loop_no_pickling(self):
        # A closure is unpicklable; jobs=1 must run it in-process anyway,
        # proving the serial path never touches a worker process.
        captured = []
        pool = WorkerPool(jobs=1)
        out = pool.run(
            [Task(fn=lambda x: captured.append(x) or x * 10, args=(i,)) for i in range(4)]
        )
        assert out == [0, 10, 20, 30]
        assert captured == [0, 1, 2, 3]

    def test_exceptions_propagate_raw(self):
        pool = WorkerPool(jobs=1)
        with pytest.raises(ValueError, match="boom"):
            pool.run([Task(fn=w.raise_value_error, args=("boom",))])

    def test_metrics_recorded(self):
        pool = WorkerPool(jobs=1)
        pool.run([Task(fn=w.double, args=(3,), key="d3")])
        assert pool.metrics.counter("pool_tasks_total", key="d3", outcome="ok") == 1
        hist = pool.metrics.histogram("pool_task_seconds", key="d3")
        assert hist is not None and hist.count == 1

    def test_does_not_import_multiprocessing(self):
        # A fresh interpreter: this one has long since imported it.
        code = (
            "import sys\n"
            "from repro.parallel import Task, WorkerPool\n"
            "assert WorkerPool(jobs=1).run([Task(fn=abs, args=(-2,))]) == [2]\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True,
        )
        assert proc.stdout.strip() == "False"


class TestParallelOrdering:
    def test_results_in_submission_order(self):
        # The first task sleeps past the others: completion order is
        # reversed, submission order must still win.
        delays = [0.4, 0.0, 0.0, 0.0]
        out = parallel_map(
            w.sleepy_identity, [(i, d) for i, d in enumerate(delays)], jobs=2
        )
        assert out == [0, 1, 2, 3]

    def test_parallel_matches_serial(self):
        args = [(i, i + 1) for i in range(8)]
        assert parallel_map(w.add, args, jobs=2) == parallel_map(w.add, args, jobs=1)

    def test_keys_label_metrics(self):
        pool = WorkerPool(jobs=2)
        pool.run([Task(fn=w.double, args=(i,), key=f"k{i}") for i in range(3)])
        for i in range(3):
            assert (
                pool.metrics.counter("pool_tasks_total", key=f"k{i}", outcome="ok")
                == 1
            )
        assert pool.metrics.gauge("pool_workers") >= 1


class TestTaskExceptions:
    def test_exception_fails_loudly_with_traceback(self):
        pool = WorkerPool(jobs=2)
        with pytest.raises(WorkerPoolError) as info:
            pool.run(
                [
                    Task(fn=w.double, args=(1,), key="good"),
                    Task(fn=w.raise_value_error, args=("kaboom",), key="bad"),
                ]
            )
        (failure,) = info.value.failures
        assert isinstance(failure, TaskFailure)
        assert failure.key == "bad"
        assert failure.kind == "exception"
        assert "ValueError" in failure.detail
        assert "kaboom" in failure.detail
        assert "raise_value_error" in failure.detail  # traceback travelled

    def test_exception_not_retried(self):
        # In-task exceptions are deterministic: exactly one attempt.
        pool = WorkerPool(jobs=2, max_retries=2)
        with pytest.raises(WorkerPoolError) as info:
            pool.run([Task(fn=w.raise_value_error, args=("x",), key="t")])
        assert info.value.failures[0].attempts == 1
        assert pool.metrics.counter("pool_retries_total", key="t") == 0

    def test_unpicklable_result_surfaces(self):
        pool = WorkerPool(jobs=2)
        with pytest.raises(WorkerPoolError) as info:
            pool.run([Task(fn=w.unpicklable_result, key="lam")])
        assert "pickle" in info.value.failures[0].detail.lower()


class TestCrashes:
    def test_crash_retried_on_fresh_worker(self, tmp_path):
        pool = WorkerPool(jobs=2)
        out = pool.run(
            [Task(fn=w.crash_until_marker, args=(str(tmp_path), 1), key="flaky")]
        )
        assert out == ["recovered"]
        assert pool.metrics.counter("pool_retries_total", key="flaky") == 1
        assert (
            pool.metrics.counter("pool_tasks_total", key="flaky", outcome="crash")
            == 1
        )

    def test_persistent_crash_fails_loudly(self):
        pool = WorkerPool(jobs=2, max_retries=1)
        with pytest.raises(WorkerPoolError) as info:
            pool.run(
                [
                    Task(fn=w.double, args=(5,), key="fine"),
                    Task(fn=w.crash_hard, key="doomed"),
                ]
            )
        (failure,) = info.value.failures
        assert failure.key == "doomed"
        assert failure.kind == "crash"
        assert failure.attempts == 2  # initial + 1 retry
        assert "exited" in failure.detail
        # The healthy task still completed and was recorded.
        assert pool.metrics.counter("pool_tasks_total", key="fine", outcome="ok") == 1

    def test_error_message_enumerates_all_failures(self):
        pool = WorkerPool(jobs=2, max_retries=0)
        with pytest.raises(WorkerPoolError) as info:
            pool.run(
                [
                    Task(fn=w.crash_hard, key="first"),
                    Task(fn=w.raise_value_error, args=("nope",), key="second"),
                ]
            )
        message = str(info.value)
        assert "2 task(s) failed" in message
        assert "first" in message and "second" in message
        # Failures are reported in submission order.
        assert [f.index for f in info.value.failures] == [0, 1]


class TestTimeouts:
    def test_timeout_kills_and_fails_loudly(self):
        pool = WorkerPool(jobs=2, max_retries=0)
        with pytest.raises(WorkerPoolError) as info:
            pool.run([Task(fn=w.sleep_forever, key="stuck", timeout=0.3)])
        (failure,) = info.value.failures
        assert failure.kind == "timeout"
        assert "deadline" in failure.detail

    def test_timeout_retried_then_abandoned(self):
        pool = WorkerPool(jobs=2, max_retries=1)
        with pytest.raises(WorkerPoolError) as info:
            pool.run([Task(fn=w.sleep_forever, key="stuck", timeout=0.2)])
        assert info.value.failures[0].attempts == 2
        assert pool.metrics.counter("pool_retries_total", key="stuck") == 1

    def test_timeout_scale_stretches_deadline(self, monkeypatch):
        # A 0.05 s budget scaled 20x comfortably covers a 0.2 s sleep.
        monkeypatch.setenv("REPRO_TIMEOUT_SCALE", "20")
        out = parallel_map(
            w.sleepy_identity, [(7, 0.2)], jobs=2, timeout=0.05
        )
        assert out == [7]


class TestSharedMetricsRegistry:
    def test_external_registry_used(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        pool = WorkerPool(jobs=1, metrics=reg)
        pool.run([Task(fn=w.double, args=(1,), key="t")])
        assert reg.counter("pool_tasks_total", key="t", outcome="ok") == 1
