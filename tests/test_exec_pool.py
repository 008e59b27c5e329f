"""WorkerPool semantics: ordered results, timeouts, crash isolation."""

import os
import threading
import time

import pytest

from repro.core.exec.pool import (MAX_THREAD_JOBS, PROCESS, SERIAL, THREAD,
                                  TASK_CRASHED, TASK_ERROR, TASK_HUNG,
                                  TASK_OK, RemoteTaskError, WorkerPool,
                                  resolve_jobs)


class TestResolveJobs:
    def test_auto_means_cpu_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs("auto") == (os.cpu_count() or 1)

    def test_thread_clamp(self):
        assert resolve_jobs(10_000, THREAD) == MAX_THREAD_JOBS

    def test_process_clamp_to_cpus(self):
        assert resolve_jobs(10_000, PROCESS) == (os.cpu_count() or 1)

    def test_minimum_one(self):
        assert resolve_jobs(-3) == 1


class TestBackendSelection:
    def test_serial_by_default(self):
        assert WorkerPool(jobs=1).backend == SERIAL

    def test_thread_when_parallel(self):
        assert WorkerPool(jobs=4).backend == THREAD

    def test_thread_when_timeout_requested(self):
        # serial cannot enforce timeouts, so jobs=1 + timeout -> thread
        assert WorkerPool(jobs=1, timeout=1.0).backend == THREAD

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=2, backend="fibers")


class TestSerialBackend:
    def test_map_ordered(self):
        results = WorkerPool(jobs=1).map(lambda x: x * 10, [3, 1, 2])
        assert [r.value for r in results] == [30, 10, 20]
        assert [r.index for r in results] == [0, 1, 2]
        assert all(r.ok for r in results)

    def test_error_captured_not_raised(self):
        def boom(x):
            if x == 1:
                raise ValueError("nope")
            return x

        results = WorkerPool(jobs=1).map(boom, [0, 1, 2])
        assert [r.status for r in results] == [TASK_OK, TASK_ERROR, TASK_OK]
        with pytest.raises(ValueError):
            results[1].unwrap()
        assert results[2].unwrap() == 2

    def test_empty_input(self):
        assert WorkerPool(jobs=4).map(lambda x: x, []) == []


class TestThreadBackend:
    def test_results_in_input_order_despite_finish_order(self):
        def slow_then_fast(x):
            # earlier items sleep longer, so completion order reverses
            time.sleep(0.05 * (4 - x))
            return x * 2

        results = WorkerPool(jobs=4, backend=THREAD).map(
            slow_then_fast, [0, 1, 2, 3])
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert [r.index for r in results] == [0, 1, 2, 3]

    def test_hung_task_reaped_without_stalling(self):
        release = threading.Event()
        try:
            def work(x):
                if x == "hang":
                    release.wait(30)
                    return "late"
                return x

            started = time.monotonic()
            results = WorkerPool(jobs=2, backend=THREAD, timeout=0.2).map(
                work, ["a", "hang", "b"])
            elapsed = time.monotonic() - started
            assert [r.status for r in results] \
                == [TASK_OK, TASK_HUNG, TASK_OK]
            assert results[1].value is None
            assert elapsed < 5          # nowhere near the worker's 30s
        finally:
            release.set()               # unblock the leaked daemon thread

    def test_reaped_task_releases_its_worker_slot(self):
        release = threading.Event()
        try:
            def work(x):
                if x == "hang":
                    release.wait(30)
                return x

            # jobs=1: the follow-up item can only run if the hung
            # task's slot was released by the reaper
            results = WorkerPool(jobs=1, backend=THREAD, timeout=0.2).map(
                work, ["hang", "after"])
            assert results[0].status == TASK_HUNG
            assert results[1].status == TASK_OK
            assert results[1].value == "after"
        finally:
            release.set()

    def test_unwrap_hung_raises_remote_error(self):
        release = threading.Event()
        try:
            results = WorkerPool(jobs=1, backend=THREAD, timeout=0.1).map(
                lambda _x: release.wait(30), [None])
            with pytest.raises(RemoteTaskError):
                results[0].unwrap()
        finally:
            release.set()


class TestProcessBackend:
    def test_roundtrip(self):
        results = WorkerPool(jobs=2, backend=PROCESS).map(
            lambda x: x + 1, [1, 2, 3])
        assert [r.value for r in results] == [2, 3, 4]

    def test_worker_exception_travels_back(self):
        def boom(_x):
            raise RuntimeError("inside the child")

        (result,) = WorkerPool(jobs=1, backend=PROCESS).map(boom, [0])
        assert result.status == TASK_ERROR
        assert "inside the child" in str(result.error)

    def test_dead_worker_is_crashed_not_fatal(self):
        def die(_x):
            os._exit(3)

        results = WorkerPool(jobs=1, backend=PROCESS).map(die, [0, 1])
        assert [r.status for r in results] == [TASK_CRASHED, TASK_CRASHED]
        assert "exit code 3" in str(results[0].error)

    def test_hung_worker_killed_on_timeout(self):
        def hang(x):
            if x == "hang":
                time.sleep(30)
            return x

        started = time.monotonic()
        results = WorkerPool(jobs=1, backend=PROCESS, timeout=0.5).map(
            hang, ["ok", "hang"])
        assert results[0].status == TASK_OK
        assert results[1].status == TASK_HUNG
        assert time.monotonic() - started < 10

    def test_no_false_hangs_with_concurrent_dispatchers(self):
        # with jobs >= 2, one dispatcher thread's Process.start() reaps
        # other threads' finished children; those children must still
        # be read as finished, not reaped as hung.  A result larger than
        # the pipe buffer must not look hung either.
        def task(x):
            if x == "hang":
                time.sleep(30)
            if x == "crash":
                os._exit(3)
            if x == "large":
                return bytes(1 << 20)   # well past the pipe buffer
            deadline = time.perf_counter() + 0.003
            while time.perf_counter() < deadline:
                pass
            return bytes(20_000)

        pool = WorkerPool(jobs=2, backend=PROCESS, timeout=1.0)
        results = pool.map(task, range(1200))
        assert {r.status for r in results} == {TASK_OK}

        started = time.monotonic()
        hung, crashed, large = WorkerPool(
            jobs=2, backend=PROCESS, timeout=0.5).map(
                task, ["hang", "crash", "large"])
        assert hung.status == TASK_HUNG
        assert hung.seconds >= 0.5
        assert crashed.status == TASK_CRASHED
        assert large.status == TASK_OK and len(large.value) == 1 << 20
        assert time.monotonic() - started < 10
