"""Shared test utilities.

``SchemeHarness`` is the public :class:`repro.sim.interactive.InteractiveSystem`
preconfigured with a deliberately tiny system — fast to drive, easy to
overflow — which lets unit tests express scenarios like the paper's Fig 6
multi-undo example directly: store these lines, commit, store again,
crash, recover, compare.

``run_mode`` and the ``assert_identical*`` checks are shared by the
single-core engine identity suites: each runs one point on the fast
engine and on the reference loop (``REPRO_VECTOR=0``) and compares every
observable. ``two_channels`` is an NVM config the miss-chain drain
declines, so it runs the reference loop on both sides, and
``fuzz_profiles`` spans the workload-profile space for the hypothesis
fuzzes.
"""

import dataclasses
import os

from hypothesis import strategies as st

from repro.common.units import MB
from repro.sim.config import SystemConfig
from repro.sim.interactive import InteractiveSystem
from repro.sim.simulator import Simulation
from repro.trace.profiles import WorkloadProfile


def tiny_config(**overrides):
    """A deliberately small system: fast to drive, easy to overflow."""
    defaults = dict(
        n_cores=1,
        l1_size=512,
        l1_assoc=2,
        l2_size=2048,
        l2_assoc=4,
        llc_size_per_core=8192,
        llc_assoc=4,
        epoch_instructions=10_000,
        journal_table_entries=64,
        shadow_table_entries=64,
        thynvm_block_entries=32,
        thynvm_page_entries=32,
        table_assoc=16,
        track_reference=True,
        reference_depth=64,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


class SchemeHarness(InteractiveSystem):
    """InteractiveSystem defaulting to the tiny test configuration."""

    def __init__(self, scheme_name="picl", config=None, **config_overrides):
        if config is None:
            config = tiny_config(**config_overrides)
        super().__init__(scheme_name, config)


def images_equal(image_a, image_b):
    """Token-exact comparison treating absent lines as token 0."""
    for addr in set(image_a) | set(image_b):
        if image_a.get(addr, 0) != image_b.get(addr, 0):
            return False
    return True


def line(n):
    """The address of the n-th cache line (64 B lines)."""
    return n * 64


def run_mode(
    vector,
    config,
    scheme,
    bench,
    n,
    seed,
    crash_at=None,
    crash_plan=None,
    trace=None,
    prepare=None,
    engine="columnar+drain",
):
    """Run one single-core simulation on the fast engine or the reference loop.

    ``REPRO_VECTOR`` is read when the hierarchy is built, so the
    environment must be set before ``Simulation`` is constructed — and
    restored afterwards so the two modes cannot leak into each other.
    ``trace`` (a zero-argument factory) replaces the generated trace;
    ``prepare`` edits the built simulation before it runs. With
    ``vector`` set, the loop that ran must be ``engine``.
    """
    previous = os.environ.get("REPRO_VECTOR")
    os.environ["REPRO_VECTOR"] = "1" if vector else "0"
    try:
        sim = Simulation(config, scheme, [bench], n, seed=seed)
    finally:
        if previous is None:
            del os.environ["REPRO_VECTOR"]
        else:
            os.environ["REPRO_VECTOR"] = previous
    if trace is not None:
        sim.traces[0] = trace()
    if prepare is not None:
        prepare(sim)
    sim.run(crash_at_instructions=crash_at, crash_plan=crash_plan)
    # The gate must actually have taken effect, or the test compares the
    # reference loop (or the wrong fast engine) against itself.
    assert sim.engine == (engine if vector else "reference: REPRO_VECTOR=0")
    return sim


def assert_identical(reference, fast):
    """Every observable of the two simulations must match exactly."""
    a, b = reference.result(), fast.result()
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.per_core_cycles == b.per_core_cycles
    core_a, core_b = reference.cores[0], fast.cores[0]
    assert core_a.instructions == core_b.instructions
    assert core_a.mem_stall_cycles == core_b.mem_stall_cycles
    assert reference.system._next_token == fast.system._next_token
    assert reference.system.arch_image == fast.system.arch_image
    assert reference.stats.snapshot() == fast.stats.snapshot()


def assert_identical_recovery(reference, fast):
    """Both simulations power-fail now and recover the same image."""
    image_a, commit_a, ref_a = reference.crash_and_recover()
    image_b, commit_b, ref_b = fast.crash_and_recover()
    assert commit_a == commit_b
    assert image_a == image_b
    assert ref_a == ref_b


def two_channels(config):
    """``config`` with a two-channel NVM."""
    return dataclasses.replace(
        config, nvm=dataclasses.replace(config.nvm, n_channels=2)
    )


# Workload space for the fuzzes: every axis the trace generator exposes,
# constrained exactly as WorkloadProfile.__post_init__ demands.
fuzz_profiles = st.builds(
    lambda mem, wf, seq, chase_scale, ws, alpha, run, sb, zb_scale: WorkloadProfile(
        "_fuzz",
        mem_ratio=mem,
        write_frac=wf,
        working_set_bytes=ws * MB,
        seq_frac=seq,
        chase_frac=min((1.0 - seq) * chase_scale, 1.0 - seq),
        zipf_alpha=alpha,
        category="fuzz",
        seq_run=run,
        write_seq_bias=sb,
        write_zipf_bias=min((1.0 - sb) * zb_scale, 1.0 - sb),
    ),
    mem=st.floats(0.05, 1.0),
    wf=st.floats(0.0, 1.0),
    seq=st.floats(0.0, 1.0),
    chase_scale=st.floats(0.0, 1.0),
    ws=st.integers(1, 64),
    alpha=st.floats(0.05, 1.5),
    run=st.integers(1, 16),
    sb=st.floats(0.0, 1.0),
    zb_scale=st.floats(0.0, 1.0),
)
