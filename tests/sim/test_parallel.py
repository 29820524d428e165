"""Parallel executor and on-disk result cache.

The load-bearing property: a parallel sweep is *bit-identical* to a serial
one — same cycles, same instruction counts, same value for every single
stat counter — because each grid point carries its own explicit seed.
"""

import os
import stat

import pytest

from repro.sim.config import SystemConfig
from repro.sim.parallel import (
    ResultCache,
    RunPoint,
    resolve_jobs,
    run_keyed,
    run_points,
)
from repro.sim.sweep import run_matrix

CONFIG = SystemConfig().scaled(512)
N = CONFIG.epoch_instructions * 2
SCHEMES = ["ideal", "picl"]
BENCHMARKS = ["gcc", "gamess"]


def fingerprint(result):
    """Everything observable about a result, stat counters included."""
    return {
        "scheme": result.scheme_name,
        "benchmarks": result.benchmarks,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "per_core_cycles": result.per_core_cycles,
        "stats": result.stats_dict(),
    }


def _big_payload(index):
    """~1 MB of index-tagged content: a torn read would be detectable."""
    return [index] * 4 + list(range(125_000))


def _store_repeatedly(root, point, index, n):
    """Writer-process body for the concurrent-store test (fork target)."""
    cache = ResultCache(root)
    payload = _big_payload(index)
    for _ in range(n):
        cache.store(point, payload)


class TestDeterminism:
    def test_run_matrix_parallel_bit_identical_to_serial(self):
        serial = run_matrix(CONFIG, SCHEMES, BENCHMARKS, N, jobs=1)
        parallel = run_matrix(CONFIG, SCHEMES, BENCHMARKS, N, jobs=4)
        for benchmark in BENCHMARKS:
            for scheme in SCHEMES:
                a = fingerprint(serial[benchmark][scheme])
                b = fingerprint(parallel[benchmark][scheme])
                # Compare counters one by one so a mismatch names itself.
                assert a["stats"].keys() == b["stats"].keys()
                for counter, value in a["stats"].items():
                    assert b["stats"][counter] == value, counter
                assert a == b

    def test_run_points_preserves_input_order(self):
        points = [
            RunPoint.single(CONFIG, scheme, "gcc", N, seed=1234)
            for scheme in ("ideal", "picl", "frm")
        ]
        results = run_points(points, jobs=2)
        assert [r.scheme_name for r in results] == ["ideal", "picl", "frm"]

    def test_run_keyed(self):
        pairs = [
            (scheme, RunPoint.single(CONFIG, scheme, "gcc", N, seed=1))
            for scheme in ("ideal", "picl")
        ]
        results = run_keyed(pairs, jobs=2)
        assert set(results) == {"ideal", "picl"}
        assert results["picl"].scheme_name == "picl"


class TestResolveJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_auto_uses_available_cpus(self):
        # "auto" means the CPUs this process may actually run on: the
        # scheduling affinity mask where the platform exposes one
        # (cgroup/taskset limits), the raw count otherwise.
        try:
            expected = len(os.sched_getaffinity(0)) or 1
        except (AttributeError, OSError):
            expected = os.cpu_count() or 1
        assert resolve_jobs("auto") == expected
        assert resolve_jobs(0) == expected

    def test_string_count(self):
        assert resolve_jobs("4") == 4

    def test_garbage_rejected_with_clear_error(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="bogus"):
            resolve_jobs("bogus")


class TestResultCache:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(str(tmp_path / "cache"))

    @pytest.fixture
    def point(self):
        return RunPoint.single(CONFIG, "picl", "gcc", N, seed=7)

    def test_miss_then_hit(self, cache, point):
        first = run_points([point], cache=cache)[0]
        assert cache.misses == 1 and cache.hits == 0
        second = run_points([point], cache=cache)[0]
        assert cache.hits == 1
        assert fingerprint(first) == fingerprint(second)

    def test_warm_cache_does_no_simulation(self, cache, point, monkeypatch):
        run_points([point], cache=cache)

        def boom(*_args, **_kwargs):
            raise AssertionError("simulated despite a warm cache")

        monkeypatch.setattr("repro.sim.parallel.Simulation", boom)
        result = run_points([point], cache=cache)[0]
        assert result.scheme_name == "picl"

    def test_key_changes_with_config(self, cache, point):
        other_config = SystemConfig().scaled(512, l1_assoc=8)
        other = RunPoint.single(other_config, "picl", "gcc", N, seed=7)
        assert cache.key(point) != cache.key(other)

    def test_key_changes_with_nested_config(self, cache, point):
        import dataclasses

        config = SystemConfig().scaled(512)
        config.picl = dataclasses.replace(config.picl, acs_gap=1)
        other = RunPoint.single(config, "picl", "gcc", N, seed=7)
        assert cache.key(point) != cache.key(other)

    def test_key_changes_with_seed_and_scheme(self, cache, point):
        keys = {
            cache.key(point),
            cache.key(RunPoint.single(CONFIG, "picl", "gcc", N, seed=8)),
            cache.key(RunPoint.single(CONFIG, "ideal", "gcc", N, seed=7)),
            cache.key(RunPoint.single(CONFIG, "picl", "lbm", N, seed=7)),
        }
        assert len(keys) == 4

    def test_corrupted_entry_falls_back_to_simulation(self, cache, point):
        first = run_points([point], cache=cache)[0]
        path = cache._path(cache.key(point))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        again = run_points([point], cache=cache)[0]
        assert fingerprint(again) == fingerprint(first)
        # The corrupted bytes were quarantined, not destroyed.
        assert cache.quarantined == 1
        corrupt_dir = os.path.join(cache.root, "corrupt")
        assert os.listdir(corrupt_dir) == [os.path.basename(path)]
        # The fresh result was stored; the next load is a clean hit.
        hits_before = cache.hits
        run_points([point], cache=cache)
        assert cache.hits == hits_before + 1

    def test_store_fsyncs_the_file_before_the_rename_and_the_dir_after(
        self, cache, point, monkeypatch
    ):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            calls.append(("fsync", "dir" if is_dir else "file"))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.dirname(src), dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        cache.store(point, "stored-result")
        path = cache._path(cache.key(point))
        assert calls == [
            ("fsync", "file"),
            ("replace", os.path.dirname(path), path),
            ("fsync", "dir"),
        ]
        assert cache.load(point) == "stored-result"

    def test_failed_store_leaves_no_temp_file(self, cache, point):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("injected pickling failure")

        with pytest.raises(TypeError, match="injected"):
            cache.store(point, Unpicklable())
        directory = os.path.dirname(cache._path(cache.key(point)))
        assert os.listdir(directory) == []
        assert cache.load(point) is None

    def test_from_env_honors_no_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert ResultCache.from_env() is None

    def test_concurrent_stores_never_tear_a_reader(self, tmp_path, point):
        # Three writer processes hammer the same key with ~1 MB payloads
        # while a reader loads in a loop. Because store() goes through a
        # private temp file + atomic rename, every load must observe
        # either nothing or one complete payload — never a mix, never a
        # quarantine.
        import multiprocessing

        root = str(tmp_path / "cache")
        ResultCache(root).store(point, _big_payload(0))
        writers = [
            multiprocessing.Process(
                target=_store_repeatedly, args=(root, point, index, 25)
            )
            for index in range(3)
        ]
        for proc in writers:
            proc.start()
        reader = ResultCache(root)
        valid = {tuple(_big_payload(index)[:4]) for index in range(4)}
        observed = 0
        try:
            while any(proc.is_alive() for proc in writers):
                loaded = reader.load(point)
                if loaded is not None:
                    assert tuple(loaded[:4]) in valid
                    assert len(loaded) == len(_big_payload(0))
                    observed += 1
        finally:
            for proc in writers:
                proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in writers)
        assert observed > 0, "reader never saw a stored payload"
        # No load ever hit a torn entry: nothing was quarantined.
        assert reader.quarantined == 0
        assert not os.path.exists(os.path.join(root, "corrupt"))
        # And the final state is one clean, loadable entry.
        final = ResultCache(root)
        last = final.load(point)
        assert last is not None and tuple(last[:4]) in valid
        assert final.hits == 1 and final.quarantined == 0

    def test_from_env_honors_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = ResultCache.from_env()
        assert cache.root == str(tmp_path / "c")


class TestFigureCaching:
    def test_warm_figure_rerun_does_no_simulation(self, tmp_path, monkeypatch):
        from repro.experiments import fig09

        cache = ResultCache(str(tmp_path / "cache"))
        first = fig09.run("ci", benchmarks=["gcc"], epochs=1, cache=cache)

        def boom(*_args, **_kwargs):
            raise AssertionError("simulated despite a warm cache")

        monkeypatch.setattr("repro.sim.parallel.Simulation", boom)
        again = fig09.run("ci", benchmarks=["gcc"], epochs=1, cache=cache)
        assert again == first
