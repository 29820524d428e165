"""End-to-end crash/recovery: full simulator, every scheme, many crash points.

This is the integration version of the harness-level property tests:
realistic synthetic traces through the full hierarchy + scheme + NVM, a
crash injected mid-run, and recovery checked token-exactly against the
architectural snapshot of the scheme's last commit.
"""

import pytest

from helpers import images_equal, small_config
from repro.sim.simulator import Simulation

RECOVERABLE_SCHEMES = ("picl", "frm", "journaling", "shadow", "thynvm")


N = 80_000


@pytest.mark.parametrize("scheme", RECOVERABLE_SCHEMES)
@pytest.mark.parametrize("crash_fraction", [0.15, 0.5, 0.9])
def test_crash_recovery_end_to_end(scheme, crash_fraction):
    sim = Simulation(small_config(reference_depth=64), scheme, ["gcc"], N, seed=42)
    sim.run(crash_at_instructions=int(N * crash_fraction))
    image, commit_id, reference = sim.crash_and_recover()
    assert reference is not None, "no snapshot for commit %r" % (commit_id,)
    assert images_equal(image, reference)


@pytest.mark.parametrize("scheme", RECOVERABLE_SCHEMES)
def test_crash_recovery_multicore(scheme):
    config = small_config(4, reference_depth=64)
    benchmarks = ["gcc", "lbm", "gamess", "astar"]
    sim = Simulation(config, scheme, benchmarks, 30_000, seed=9)
    sim.run(crash_at_instructions=4 * 30_000 // 2)
    image, commit_id, reference = sim.crash_and_recover()
    assert reference is not None
    assert images_equal(image, reference)


@pytest.mark.parametrize("bench_name", ["lbm", "astar", "gamess", "mcf"])
def test_picl_recovery_across_workload_characters(bench_name):
    sim = Simulation(small_config(reference_depth=64), "picl", [bench_name], N, seed=7)
    sim.run(crash_at_instructions=int(N * 0.7))
    image, _commit_id, reference = sim.crash_and_recover()
    assert reference is not None
    assert images_equal(image, reference)


def test_picl_recovery_with_tiny_acs_gap():
    config = small_config(reference_depth=64)
    import dataclasses

    config.picl = dataclasses.replace(config.picl, acs_gap=0)
    sim = Simulation(config, "picl", ["gcc"], N, seed=3)
    sim.run(crash_at_instructions=N // 2)
    image, _commit_id, reference = sim.crash_and_recover()
    assert reference is not None
    assert images_equal(image, reference)


def test_picl_recovery_with_max_acs_gap():
    config = small_config(reference_depth=64)
    import dataclasses

    config.picl = dataclasses.replace(config.picl, acs_gap=8)
    sim = Simulation(config, "picl", ["gcc"], N, seed=3)
    sim.run(crash_at_instructions=int(N * 0.9))
    image, _commit_id, reference = sim.crash_and_recover()
    assert reference is not None
    assert images_equal(image, reference)


def test_crash_before_first_commit_recovers_initial_state():
    sim = Simulation(small_config(reference_depth=64), "picl", ["gcc"], N, seed=1)
    sim.run(crash_at_instructions=1000)
    image, commit_id, reference = sim.crash_and_recover()
    assert commit_id == -1
    assert reference == {}
    assert images_equal(image, {})
