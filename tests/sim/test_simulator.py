"""Simulation driver: trace execution, epochs, determinism, crash API."""

import pytest

from helpers import small_config
from repro.common.errors import ConfigurationError
from repro.sim.simulator import SCHEME_NAMES, Simulation, build_scheme


N = 60_000  # a few scheduled epochs at scale 256


class TestBasicRun:
    def test_run_executes_all_instructions(self):
        sim = Simulation(small_config(), "ideal", ["gcc"], N)
        result = sim.run()
        assert result.instructions >= N

    def test_run_is_single_use(self):
        sim = Simulation(small_config(), "ideal", ["gcc"], N)
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_epoch_boundaries_fire(self):
        config = small_config()
        sim = Simulation(config, "picl", ["gcc"], N)
        result = sim.run()
        expected = N // config.epoch_instructions
        assert result.commits == expected

    def test_cycles_accumulate(self):
        result = Simulation(small_config(), "ideal", ["gcc"], N).run()
        assert result.cycles > N // 2

    def test_benchmark_count_must_match_cores(self):
        with pytest.raises(ConfigurationError):
            Simulation(small_config(), "ideal", ["gcc", "lbm"], N)

    def test_string_benchmark_accepted(self):
        sim = Simulation(small_config(), "ideal", "gcc", N)
        assert sim.benchmarks == ["gcc"]


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = Simulation(small_config(), "picl", ["gcc"], N, seed=5).run()
        b = Simulation(small_config(), "picl", ["gcc"], N, seed=5).run()
        assert a.cycles == b.cycles
        assert a.stats.snapshot() == b.stats.snapshot()

    def test_different_seed_different_result(self):
        a = Simulation(small_config(), "picl", ["gcc"], N, seed=5).run()
        b = Simulation(small_config(), "picl", ["gcc"], N, seed=6).run()
        assert a.cycles != b.cycles


class TestSchemes:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_every_scheme_runs(self, scheme):
        result = Simulation(small_config(), scheme, ["gcc"], N).run()
        assert result.instructions >= N

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation(small_config(), "magic", ["gcc"], N)

    def test_build_scheme_names(self):
        from helpers import SchemeHarness

        harness = SchemeHarness("ideal")
        for name in SCHEME_NAMES:
            scheme = build_scheme(name, harness.system, harness.config)
            assert scheme.name == name


class TestMulticore:
    def test_eight_core_run(self):
        config = small_config(n_cores=8)
        benchmarks = ["gcc", "lbm", "gamess", "mcf", "astar", "bzip2", "wrf", "milc"]
        result = Simulation(config, "picl", benchmarks, 20_000).run()
        assert result.instructions >= 8 * 20_000
        assert len(result.per_core_cycles) == 8

    def test_cores_have_disjoint_address_spaces(self):
        config = small_config(n_cores=2)
        sim = Simulation(config, "ideal", ["gcc", "gcc"], 10_000)
        sim.run()
        assert sim.stats.get("llc.snoops") == 0


class TestCrashApi:
    def test_crash_stops_early(self):
        sim = Simulation(small_config(), "picl", ["gcc"], N)
        result = sim.run(crash_at_instructions=N // 2)
        assert sim.crashed
        assert result.instructions < N

    def test_crash_and_recover_returns_reference(self):
        config = small_config()
        sim = Simulation(config, "picl", ["gcc"], N)
        sim.run(crash_at_instructions=int(N * 0.8))
        image, commit_id, reference = sim.crash_and_recover()
        assert image is not None
        if commit_id is not None and commit_id >= 0:
            assert reference is not None

    def test_ideal_crash_has_no_reference(self):
        sim = Simulation(small_config(), "ideal", ["gcc"], N)
        sim.run(crash_at_instructions=N // 2)
        _image, commit_id, reference = sim.crash_and_recover()
        assert commit_id is None
        assert reference is None
