"""Fault tolerance of the registry sweep: crashes, timeouts, broken pools.

The injected workers are module-level so the pool (fork start method) can
pickle them by reference; each dispatches on marker names and defers to the
real ``analyze_one`` for genuine registry programs, so the surviving slots
carry real, digest-checkable outcomes.
"""

import gc
import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime.parallel import (
    AnalysisTimeout,
    BenchmarkOutcome,
    FailedOutcome,
    analyze_one,
    analyze_registry,
    outcome_from_dict,
)

GOOD = "gesummv"
OTHER = "reg_detect"


def _crash_on_marker(name, cache_dir=None):
    if name == "boom":
        raise ValueError("injected worker failure")
    return analyze_one(name, cache_dir)


def _sleep_on_marker(name, cache_dir=None):
    if name == "slow":
        time.sleep(30)
    return analyze_one(name, cache_dir)


class _SlowFinalizer:
    def __del__(self):
        time.sleep(2)  # the first alarm lands here


def _alarm_in_a_finalizer(name, cache_dir=None):
    if name == "finalizer":
        garbage = _SlowFinalizer()
        garbage.cycle = garbage  # only the collector frees it
        del garbage
        gc.collect()
        time.sleep(2)
    return analyze_one(name, cache_dir)


def _fail_first_attempt(name, cache_dir=None):
    # cache_dir doubles as the cross-process scratch dir for the flag file.
    flag = Path(cache_dir) / f"{name}.attempted"
    if not flag.exists():
        flag.write_text("")
        raise RuntimeError("injected transient failure")
    return analyze_one(name, None)


def _always_fail(name, cache_dir=None):
    raise RuntimeError(f"injected persistent failure for {name}")


def _lock_on_marker(name, cache_dir=None):
    if name == "lock":
        return threading.Lock()  # cannot be pickled back to the parent
    return analyze_one(name, cache_dir)


def _exit_in_pool_child(name, cache_dir=None):
    if name == "kaboom":
        if multiprocessing.parent_process() is not None:
            os._exit(17)  # kill the worker -> BrokenProcessPool in the parent
        raise RuntimeError("injected: pool child died; running serially")
    return analyze_one(name, cache_dir)


class TestWorkerCrash:
    def test_crash_yields_partial_results_plus_failure_record(self):
        outcomes = analyze_registry(
            [GOOD, "boom", OTHER], parallel=True, analyze_fn=_crash_on_marker
        )
        assert [o.name for o in outcomes] == [GOOD, "boom", OTHER]
        good, boom, other = outcomes
        assert isinstance(good, BenchmarkOutcome)
        assert isinstance(other, BenchmarkOutcome)
        assert isinstance(boom, FailedOutcome) and not boom.ok
        assert boom.error_type == "ValueError"
        assert "injected worker failure" in boom.message
        assert boom.attempts == 1
        assert boom.traceback_summary  # points into the worker code

        # the surviving programs are byte-identical to a clean serial run
        reference = analyze_registry([GOOD, OTHER], parallel=False)
        assert [good, other] == reference

    def test_unknown_name_is_failure_not_abort(self):
        """End-to-end injection with the *default* worker: a bogus registry
        name raises KeyError in the child and must not kill the sweep."""
        outcomes = analyze_registry([GOOD, "no_such_benchmark"], parallel=True)
        assert isinstance(outcomes[0], BenchmarkOutcome)
        failure = outcomes[1]
        assert isinstance(failure, FailedOutcome)
        assert failure.error_type == "KeyError"
        assert "no_such_benchmark" in failure.message

    def test_unpicklable_outcome_fills_its_slot(self):
        """An outcome that cannot cross the process boundary is a failure
        in its own slot, not an exception out of the sweep."""
        outcomes = analyze_registry(
            [GOOD, "lock", OTHER], parallel=True, retries=0, analyze_fn=_lock_on_marker
        )
        good, lock, other = outcomes
        assert isinstance(lock, FailedOutcome)
        assert lock.error_type == "TypeError"
        assert lock.attempts == 1
        assert isinstance(good, BenchmarkOutcome)
        assert isinstance(other, BenchmarkOutcome)

    def test_serial_and_parallel_agree_on_failures(self):
        serial = analyze_registry(
            [GOOD, "boom"], parallel=False, analyze_fn=_crash_on_marker
        )
        parallel = analyze_registry(
            [GOOD, "boom"], parallel=True, analyze_fn=_crash_on_marker
        )
        assert serial[0] == parallel[0]  # full outcome incl. profile digest
        assert (serial[1].name, serial[1].error_type, serial[1].attempts) == (
            parallel[1].name,
            parallel[1].error_type,
            parallel[1].attempts,
        )


class TestTimeout:
    def test_timed_out_program_fails_others_complete(self):
        outcomes = analyze_registry(
            ["slow", GOOD],
            parallel=True,
            timeout=0.5,
            analyze_fn=_sleep_on_marker,
        )
        slow, good = outcomes
        assert isinstance(slow, FailedOutcome)
        assert slow.error_type == "AnalysisTimeout"
        assert "exceeded 0.5s" in slow.message
        assert isinstance(good, BenchmarkOutcome)

    def test_serial_timeout_path(self):
        (slow,) = analyze_registry(
            ["slow"], parallel=False, timeout=0.5, analyze_fn=_sleep_on_marker
        )
        assert isinstance(slow, FailedOutcome)
        assert slow.error_type == "AnalysisTimeout"

    def test_alarm_dropped_in_a_finalizer_fires_again(self):
        """Python drops an exception raised inside a finalizer, so one
        alarm that lands there must not leave the analysis unbounded."""
        dropped = []
        hook = sys.unraisablehook
        sys.unraisablehook = lambda unraisable: dropped.append(unraisable.exc_type)
        try:
            (slow,) = analyze_registry(
                ["finalizer"], parallel=False, timeout=0.5,
                analyze_fn=_alarm_in_a_finalizer,
            )
        finally:
            sys.unraisablehook = hook
        assert dropped == [AnalysisTimeout]
        assert isinstance(slow, FailedOutcome)
        assert slow.error_type == "AnalysisTimeout"

    def test_alarm_is_cancelled_after_success(self):
        """A fast analysis under a timeout must not leave a pending alarm."""
        import signal

        (good,) = analyze_registry(["gesummv"], parallel=False, timeout=60.0)
        assert isinstance(good, BenchmarkOutcome)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestRetry:
    def test_transient_failure_recovers_on_retry(self, tmp_path):
        outcomes = analyze_registry(
            [GOOD],
            parallel=True,
            retries=1,
            backoff=0.01,
            cache_dir=str(tmp_path),
            analyze_fn=_fail_first_attempt,
        )
        assert isinstance(outcomes[0], BenchmarkOutcome)
        assert (tmp_path / f"{GOOD}.attempted").exists()

    def test_exhausted_retries_count_attempts(self):
        (failure,) = analyze_registry(
            [GOOD], parallel=True, retries=2, backoff=0.0, analyze_fn=_always_fail
        )
        assert isinstance(failure, FailedOutcome)
        assert failure.attempts == 3  # 1 original + 2 retries
        assert failure.error_type == "RuntimeError"


class TestBrokenPool:
    def test_degrades_to_serial_and_keeps_completed_work(self):
        outcomes = analyze_registry(
            [GOOD, "kaboom", OTHER],
            parallel=True,
            max_workers=2,
            analyze_fn=_exit_in_pool_child,
        )
        assert [o.name for o in outcomes] == [GOOD, "kaboom", OTHER]
        assert isinstance(outcomes[0], BenchmarkOutcome)
        assert isinstance(outcomes[2], BenchmarkOutcome)
        failure = outcomes[1]
        assert isinstance(failure, FailedOutcome)
        # the serial fallback re-ran the program in-process, where the
        # injected fault raises instead of killing the child
        assert failure.error_type == "RuntimeError"
        assert "serially" in failure.message

        reference = analyze_registry([GOOD, OTHER], parallel=False)
        assert [outcomes[0], outcomes[2]] == reference


class TestFailFast:
    def test_serial_stops_at_first_failure(self):
        outcomes = analyze_registry(
            ["boom", GOOD], parallel=False, fail_fast=True,
            analyze_fn=_crash_on_marker,
        )
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], FailedOutcome)

    def test_keep_going_default_reports_every_slot(self):
        outcomes = analyze_registry(
            ["boom", GOOD], parallel=False, analyze_fn=_crash_on_marker
        )
        assert len(outcomes) == 2
        assert isinstance(outcomes[1], BenchmarkOutcome)

    def test_parallel_fail_fast_preserves_order_of_resolved(self):
        outcomes = analyze_registry(
            [GOOD, "boom", OTHER],
            parallel=True,
            fail_fast=True,
            analyze_fn=_crash_on_marker,
        )
        assert any(isinstance(o, FailedOutcome) for o in outcomes)
        resolved = [o.name for o in outcomes]
        expected_order = [n for n in [GOOD, "boom", OTHER] if n in resolved]
        assert resolved == expected_order


class TestEmptyInput:
    def test_empty_names_spawn_no_pool(self, monkeypatch):
        def _forbidden(*_a, **_k):  # pragma: no cover - would mean a bug
            raise AssertionError("ProcessPoolExecutor constructed for []")

        monkeypatch.setattr(
            "repro.runtime.parallel.ProcessPoolExecutor", _forbidden
        )
        assert analyze_registry([], parallel=True) == []
        assert analyze_registry([], parallel=False) == []


class TestFailureRecordSchema:
    FAILURE = FailedOutcome(
        name="bad_prog",
        error_type="ValueError",
        message="injected",
        traceback_summary="worker.py:3 in _crash",
        attempts=2,
    )

    def test_round_trip(self):
        doc = self.FAILURE.to_dict()
        assert doc["failed"] is True and "schema_version" in doc
        assert FailedOutcome.from_dict(doc) == self.FAILURE

    def test_outcome_from_dict_dispatches_both_kinds(self):
        assert outcome_from_dict(self.FAILURE.to_dict()) == self.FAILURE
        success = analyze_one(GOOD)
        assert outcome_from_dict(success.to_dict()) == success

    def test_version_gate(self):
        doc = self.FAILURE.to_dict()
        doc["schema_version"] = 999
        with pytest.raises(ValueError, match="version"):
            FailedOutcome.from_dict(doc)

    def test_kind_mismatch_rejected(self):
        doc = self.FAILURE.to_dict()
        doc.pop("failed")
        with pytest.raises(ValueError):
            FailedOutcome.from_dict(doc)
        with pytest.raises(ValueError):
            BenchmarkOutcome.from_dict(self.FAILURE.to_dict())

    def test_timeout_is_runtime_error(self):
        assert issubclass(AnalysisTimeout, RuntimeError)
