"""Fault tolerance of the parallel sweep runner.

The properties under test: a worker that raises names the exact point that
died; a worker killed mid-sweep is retried and the sweep completes with
results bit-identical to a clean serial run; a hung batch is killed at
its deadline.

The bomb points are ``RunPoint`` subclasses at module level so the pool
(fork start method) can pickle them by reference; flakiness is a sentinel
file — first attempt dies, the retry finds the file and succeeds.
"""

import dataclasses
import os
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.sim.config import SystemConfig
from repro.sim.parallel import (
    ISOLATED_FALLBACK_TIMEOUT,
    MAX_BACKOFF,
    PointExecutionError,
    PointTimeoutError,
    RunPoint,
    WorkerCrashError,
    batch_budget,
    execute_batch_with_retry,
    fault_env,
    retry_delay,
    run_points,
)

CONFIG = SystemConfig().scaled(512)
N = CONFIG.epoch_instructions


@dataclasses.dataclass(frozen=True)
class RaisingPoint(RunPoint):
    """Deterministic failure: raises the same way on every attempt."""

    def execute(self):
        raise ValueError("injected simulation bug")


@dataclasses.dataclass(frozen=True)
class ExitingPoint(RunPoint):
    """Kills its process outright, like a segfault or the OOM killer."""

    def execute(self):
        os._exit(43)


@dataclasses.dataclass(frozen=True)
class HangingPoint(RunPoint):
    """Never finishes; only a deadline can stop it."""

    def execute(self):
        time.sleep(300)


@dataclasses.dataclass(frozen=True)
class FlakyPoint(RunPoint):
    """Dies on the first attempt, succeeds once its sentinel file exists."""

    sentinel: str = ""

    def execute(self):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os._exit(9)
        return super().execute()


def point(cls, seed, benchmark="gcc", **extra):
    return cls(CONFIG, "picl", (benchmark,), N, seed, **extra)


def fingerprint(result):
    return (result.cycles, result.instructions, result.stats_dict())


class TestAttribution:
    def test_serial_failure_names_the_point(self):
        with pytest.raises(PointExecutionError) as excinfo:
            run_points([point(RaisingPoint, 11)], jobs=1)
        message = str(excinfo.value)
        assert "scheme=picl" in message
        assert "seed=11" in message
        assert "injected simulation bug" in message
        assert "RaisingPoint" in message  # the full point repr rides along

    def test_pool_failure_names_the_point(self):
        # Two distinct traces so the pool actually engages (a single
        # pending point short-circuits to the serial path).
        points = [point(RaisingPoint, 12), point(RunPoint, 13, "gamess")]
        with pytest.raises(PointExecutionError, match="seed=12"):
            run_points(points, jobs=2)

    def test_attribution_survives_pickling(self):
        import pickle

        error = PointExecutionError("boom", point_description="seed=5")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.point_description == "seed=5"
        assert str(clone) == "boom"


class TestWorkerDeath:
    def test_killed_worker_is_retried_and_sweep_completes(self, tmp_path):
        sentinel = str(tmp_path / "flaky")
        points = [
            point(FlakyPoint, 21, sentinel=sentinel),
            point(RunPoint, 22, "gamess"),
        ]
        results = run_points(points, jobs=2, retries=2, backoff=0.01)
        clean = run_points([point(RunPoint, 21), points[1]], jobs=1)
        # Bit-identical to a clean serial run of the same seeds.
        assert fingerprint(results[0]) == fingerprint(clean[0])
        assert fingerprint(results[1]) == fingerprint(clean[1])

    def test_persistent_crash_exhausts_retries(self):
        points = [point(ExitingPoint, 31), point(RunPoint, 32, "gamess")]
        with pytest.raises(WorkerCrashError) as excinfo:
            run_points(points, jobs=2, retries=1, backoff=0.01)
        message = str(excinfo.value)
        assert "exit code 43" in message
        assert "seed=31" in message

    def test_hung_batch_is_killed_at_deadline(self):
        points = [point(HangingPoint, 41), point(RunPoint, 42, "gamess")]
        start = time.time()
        with pytest.raises(PointTimeoutError, match="seed=41"):
            run_points(points, jobs=2, timeout=0.5, retries=0, backoff=0.01)
        # Two kills (pool + isolated attempt) must still be far below the
        # 300 s the point would have slept.
        assert time.time() - start < 60


class TestSerialDegradation:
    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch, capsys):
        def no_pool(*_args, **_kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(
            "repro.sim.parallel.ProcessPoolExecutor", no_pool
        )
        points = [point(RunPoint, 81), point(RunPoint, 82, "gamess")]
        results = run_points(points, jobs=2)
        clean = run_points(points, jobs=1)
        for got, want in zip(results, clean):
            assert fingerprint(got) == fingerprint(want)
        assert "running serially" in capsys.readouterr().err


class TestTimeoutSemantics:
    """None, zero, and positive timeouts are three different requests."""

    def test_unset_timeout_gets_safety_net(self):
        assert batch_budget(None, 3) == ISOLATED_FALLBACK_TIMEOUT * 3
        assert batch_budget(None, 0) == ISOLATED_FALLBACK_TIMEOUT

    def test_zero_timeout_disables_deadline_entirely(self):
        # Regression: `timeout or 3600.0` silently turned an explicit
        # REPRO_POINT_TIMEOUT=0 into the one-hour safety net.
        assert batch_budget(0, 5) is None
        assert batch_budget(0.0, 1) is None
        assert batch_budget(-1, 2) is None

    def test_positive_timeout_scales_with_batch(self):
        assert batch_budget(2.0, 3) == 6.0
        assert batch_budget(0.5, 1) == 0.5

    def test_env_zero_reaches_fault_env_as_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "0")
        timeout, _retries = fault_env()
        assert timeout == 0.0
        assert batch_budget(timeout, 4) is None

    def test_env_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_POINT_TIMEOUT", raising=False)
        timeout, _retries = fault_env()
        assert timeout is None

    @pytest.mark.parametrize("raw", ("two", "1.5", "-3"))
    def test_bad_retries_is_a_configuration_error(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_RETRIES", raw)
        with pytest.raises(ConfigurationError, match="REPRO_RETRIES"):
            fault_env()
        with pytest.raises(ConfigurationError, match="REPRO_RETRIES"):
            execute_batch_with_retry([point(RunPoint, 93)])

    def test_run_points_completes_with_zero_timeout(self):
        points = [point(RunPoint, 91), point(RunPoint, 92, "gamess")]
        results = run_points(points, jobs=2, timeout=0)
        clean = run_points(points, jobs=1)
        for got, want in zip(results, clean):
            assert fingerprint(got) == fingerprint(want)


class TestBackoff:
    def test_exponential_growth_is_capped(self):
        assert retry_delay(1, backoff=1.0) == 1.0
        assert retry_delay(3, backoff=1.0) == 4.0
        assert retry_delay(30, backoff=1.0) == MAX_BACKOFF
        # Before the cap this would be ~5e8 seconds.
        assert retry_delay(30, backoff=1.0) <= MAX_BACKOFF

    def test_jitter_is_bounded_and_deterministic(self):
        for attempt in (1, 2, 7):
            base = retry_delay(attempt, backoff=1.0)
            jittered = retry_delay(attempt, backoff=1.0, key="batch-x")
            assert 0.5 * base <= jittered <= 1.5 * base
            # Same (key, attempt) -> the exact same delay, every time.
            assert jittered == retry_delay(attempt, backoff=1.0, key="batch-x")

    def test_jitter_spreads_distinct_keys(self):
        delays = {
            retry_delay(1, backoff=1.0, key="batch-%d" % index)
            for index in range(8)
        }
        assert len(delays) > 1

    def test_execute_batch_with_retry_reports_its_delay(self, tmp_path):
        sentinel = str(tmp_path / "flaky")
        batch = [point(FlakyPoint, 95, sentinel=sentinel)]
        observed = []

        def on_retry(attempt, delay, exc):
            observed.append((attempt, delay, exc))

        results = execute_batch_with_retry(
            batch, retries=1, backoff=0.01, on_retry=on_retry
        )
        assert len(results) == 1
        assert len(observed) == 1
        attempt, delay, exc = observed[0]
        assert attempt == 1
        assert isinstance(exc, WorkerCrashError)
        key = "; ".join(p.describe() for p in batch)
        assert delay == retry_delay(1, 0.01, key=key)

    def test_should_retry_false_aborts_immediately(self):
        batch = [point(ExitingPoint, 96)]
        start = time.time()
        with pytest.raises(WorkerCrashError):
            execute_batch_with_retry(
                batch, retries=5, backoff=5.0, should_retry=lambda: False
            )
        assert time.time() - start < 10
