"""Shared test utilities.

``SchemeHarness`` is the public :class:`repro.sim.interactive.InteractiveSystem`
preconfigured with a deliberately tiny system — fast to drive, easy to
overflow — which lets unit tests express scenarios like the paper's Fig 6
multi-undo example directly: store these lines, commit, store again,
crash, recover, compare.

``run_mode`` runs one simulation of 1..N cores on a named engine, and
``fingerprint`` is every observable of a run as one comparable value:
tests/sim/test_engine_identity.py compares the fast engine with the
reference side (``REPRO_VECTOR=0`` on the ``force_brute`` scan oracle)
through them.
"""

import dataclasses
import os
import time

from repro.sim.config import SystemConfig
from repro.sim.interactive import InteractiveSystem
from repro.sim.parallel import RunPoint
from repro.sim.simulator import Simulation

#: The engine ``REPRO_VECTOR=0`` selects, for any config and core count.
REFERENCE = "reference: REPRO_VECTOR=0"


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


def small_config(n_cores=1, scale=256, l1_ways=4, granularity=64,
                 log_cap=None, channels=1, **overrides):
    """A scaled system for whole-trace runs, with reference tracking on.

    The L1 has 16 sets of ``l1_ways`` ways (four, the scale-256 default);
    ``granularity`` and ``log_cap`` set PiCL's tracking granularity and
    log cap, ``channels`` the NVM channel count.
    """
    settings = dict(n_cores=n_cores, track_reference=True, reference_depth=32,
                    l1_assoc=l1_ways, l1_size=l1_ways * 16 * 64)
    settings.update(overrides)
    config = SystemConfig().scaled(scale, **settings)
    return dataclasses.replace(
        config,
        picl=dataclasses.replace(
            config.picl, tracking_granularity=granularity, log_max_bytes=log_cap
        ),
        nvm=dataclasses.replace(config.nvm, n_channels=channels),
    )


@dataclasses.dataclass(frozen=True)
class GatedPoint(RunPoint):
    """A point that waits for its ``gate`` file to exist before it runs.

    Its digest is the plain point's (``point_digest`` hashes the run
    description only), so a test can hold a worker mid-batch for as long
    as it likes and release it by creating the file.
    """

    gate: str = ""

    def execute(self):
        while not os.path.exists(self.gate):
            time.sleep(0.01)
        return super().execute()


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


def force_brute(system):
    """Put a built system (a Simulation or a SchemeHarness) on the
    brute-force oracle: every cache and the ACS engine sweep all lines
    instead of reading the dirty dicts and the EID index."""
    hierarchy = system.hierarchy
    hierarchy._brute_scan = True
    hierarchy.llc._brute_scan = True
    for core in range(hierarchy.n_cores):
        hierarchy.l1(core)._brute_scan = True
        hierarchy.l2(core)._brute_scan = True
    if hasattr(system.scheme, "acs"):
        system.scheme.acs._brute_scan = True


def run_mode(engine, config, scheme, benches, n, seed, brute=False,
             shared_memory=False, crash_at=None, crash_plan=None, trace=None,
             prepare=None):
    """Run one simulation, which must run on ``engine``.

    ``engine`` is the string ``Simulation.engine`` must report: the
    reference one sets ``REPRO_VECTOR=0``, any other leaves the fast
    engine on. The switch is read when the hierarchy is built, so it is
    pinned around construction only. ``brute`` puts the run on the scan
    oracle; ``trace`` (a zero-argument factory) replaces core 0's trace,
    and ``prepare`` edits the built simulation before it runs.
    """
    previous = os.environ.get("REPRO_VECTOR")
    os.environ["REPRO_VECTOR"] = "0" if engine == REFERENCE else "1"
    try:
        sim = Simulation(config, scheme, benches, n, seed=seed,
                         shared_memory=shared_memory)
    finally:
        if previous is None:
            del os.environ["REPRO_VECTOR"]
        else:
            os.environ["REPRO_VECTOR"] = previous
    if brute:
        force_brute(sim)
    if trace is not None:
        sim.traces[0] = trace()
    if prepare is not None:
        prepare(sim)
    sim.run(crash_at_instructions=crash_at, crash_plan=crash_plan)
    # Otherwise a test could compare the reference loop with itself.
    assert sim.engine == engine
    return sim


def fingerprint(sim):
    """Every observable of a finished or crashed simulation."""
    log = getattr(sim.scheme, "log", None)
    return dict(
        cores=[(c.cycle, c.mem_stall_cycles, c.instructions) for c in sim.cores],
        total_instructions=sim.system.total_instructions,
        next_token=sim.system._next_token,
        arch_image=sim.system.arch_image,
        stats=sim.stats.snapshot(),
        nvm_image=sim.controller.image.snapshot(),
        undo_log=None if log is None else [
            (e.addr, e.token, e.valid_from, e.valid_till)
            for e in log.iter_entries_backward()
        ],
        crash=(sim.crashed, sim.crash_site),
        store_seq=getattr(sim.scheme, "_store_seq", None),
    )
