"""Bit-identity of the miss-chain drain running without the L1 mirror.

An L1 wider than a mirror row (more than eight ways) carries no tag
mirror, so :meth:`Simulation._run_single_core` has nothing to classify
against and hands every segment whole to the fused drain of
:mod:`repro.cache.miss_engine` — hits included. That engine is
``"drain"``; ``tests/sim/test_vectorized.py`` covers the default
``"columnar+drain"`` engine, where the drain only sees the residual
references the classifier could not bulk-apply.

This file drives the drain-only engine and the reference loop
(``REPRO_VECTOR=0``: one ``hierarchy.access`` per reference) over the
same points and asserts exact equality of every observable: cycles,
stalls, tokens, the architectural image, the full stat snapshot, and
crash-recovery output. It crosses miss-heavy and hit-dominated traces,
mid-epoch crashes under every scheme, the configs the drain declines
(which must run the reference loop and say so), and a hypothesis fuzz
over the workload-profile space.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_identical,
    assert_identical_recovery,
    fuzz_profiles,
    run_mode,
    two_channels,
)
from repro.cache.miss_engine import decline_reason
from repro.common.units import KB
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulation
from repro.trace import profiles


def small_config(**overrides):
    """A scale-256 system whose 16-way L1 is too wide for a mirror row."""
    defaults = dict(
        track_reference=True, reference_depth=32, l1_assoc=16, l1_size=16 * KB
    )
    defaults.update(overrides)
    return SystemConfig().scaled(256, **defaults)


N = 60_000  # a few scheduled epochs at scale 256

SCHEMES = ("ideal", "journaling", "shadow", "frm", "thynvm", "picl")


# Miss-heavy traces (mcf, gcc), where the drain's L2/LLC/NVM chain does
# the work, and hit-dominated hmmer, where nearly every reference the
# drain runs is an L1 hit the columnar engine would have bulk-applied.
PAIRS = [
    ("journaling", "mcf"),
    ("shadow", "gcc"),
    ("picl", "hmmer"),
    ("picl", "gcc"),
]


class TestBitIdentity:
    @pytest.mark.parametrize("scheme,bench", PAIRS)
    def test_full_run_identical(self, scheme, bench):
        config = small_config()
        scalar = run_mode(False, config, scheme, bench, N, seed=77)
        drained = run_mode(True, config, scheme, bench, N, seed=77, engine="drain")
        assert_identical(scalar, drained)


class TestCrashSites:
    """A crash landing inside a drained segment must observe the exact
    scalar state: deferred counters, cycles, tokens and the pending undo
    run all land before the signal propagates."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_instruction_crash_identical(self, scheme):
        config = small_config()
        crash_at = N // 2 + 137  # mid-epoch, not on a boundary
        scalar = run_mode(False, config, scheme, "gcc", N, seed=9, crash_at=crash_at)
        drained = run_mode(
            True, config, scheme, "gcc", N, seed=9, crash_at=crash_at, engine="drain"
        )
        assert scalar.crashed and drained.crashed
        assert_identical(scalar, drained)
        assert_identical_recovery(scalar, drained)


def four_channels(config):
    return dataclasses.replace(
        config, nvm=dataclasses.replace(config.nvm, n_channels=4)
    )


class TestGate:
    def test_multi_channel_declines(self):
        sim = Simulation(two_channels(small_config()), "picl", ["gcc"], 1_000, seed=1)
        assert decline_reason(sim) == "nvm has 2 channels"

    # Wrapped in lambdas so the cases keep the ids they have always been
    # collected under ([<lambda>0], [<lambda>1]).
    @pytest.mark.parametrize("config_fn", [
        lambda c: four_channels(c),
        lambda c: two_channels(c),
    ])
    def test_declined_configs_still_identical(self, config_fn):
        # A config the drain declines runs the reference loop: it must
        # record why, and match a REPRO_VECTOR=0 run exactly.
        config = config_fn(small_config())
        reason = decline_reason(Simulation(config, "picl", ["gcc"], 1_000, seed=3))
        assert reason is not None
        scalar = run_mode(False, config, "picl", "gcc", 20_000, seed=3)
        declined = run_mode(
            True, config, "picl", "gcc", 20_000, seed=3,
            engine="reference: " + reason,
        )
        assert_identical(scalar, declined)


class TestFuzz:
    @settings(max_examples=10, deadline=None)
    @given(
        profile=fuzz_profiles,
        scheme=st.sampled_from(SCHEMES),
        seed=st.integers(0, 2**20),
    )
    def test_random_workloads_identical(self, profile, scheme, seed):
        profiles._BY_NAME["_fuzz"] = profile
        try:
            scalar = run_mode(False, small_config(), scheme, "_fuzz", 20_000, seed=seed)
            drained = run_mode(
                True, small_config(), scheme, "_fuzz", 20_000, seed=seed, engine="drain"
            )
        finally:
            del profiles._BY_NAME["_fuzz"]
        assert_identical(scalar, drained)
