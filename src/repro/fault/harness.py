"""The differential crash matrix: scheme × crash point × validation.

For every cell the harness runs a real simulation to an injected crash
point, powers the machine off, runs the scheme's §IV-B recovery, and
checks the rebuilt image *token-exactly* against the recovery oracle —
the architectural snapshot the system records at every commit (the
shadow functional memory image a crash-free machine would hold at that
checkpoint). Three cell kinds:

* ``plan`` — a :class:`repro.fault.plan.CrashPlan` crash (semantic event
  or instruction count); the recovered image must equal the oracle
  snapshot of the recovery's commit.
* ``nested`` — crash, then crash *again* mid-recovery (after a few of
  recovery's in-place writes have landed), then recover from the
  partially-recovered NVM: both passes must produce the same image and
  match the oracle (recovery is restartable/idempotent).
* ``fault`` — crash, then corrupt the durable log region (torn
  superblock, bit flips — :mod:`repro.fault.nvm_faults`); recovery must
  *detect* the corruption via ``RecoveryError``, never silently
  mis-recover.

A cell never raises on validation failure — it returns a
:class:`CrashOutcome` with ``status="failed"`` and the mismatch detail,
so one broken cell cannot hide the rest of the matrix.

Cells that differ only in how they validate share one crashed run: the
nested-recovery column and every ``nvm-*`` column crash the same
simulation at the same point. :func:`run_crash_matrix` simulates each
distinct run (scheme, config, benchmark, length, seed, crash point) once
per call and validates every cell that shares it on its own restored
copy of the run's durable state (:class:`CrashedRun`); the quick matrix
is 29 cells from 25 runs, the full one 85 from 77.

Runs that differ in scheme or crash point but not in trace and cache
geometry also share one scheme-free cache trajectory
(:mod:`repro.cache.trajectory`), the one the trace memo keeps for that
trace and geometry (:func:`repro.trace.synthetic.make_trace`): each run
tags only the chunks no earlier run reached and replays the rest, so a
trace is tagged once for as long as its memo entry lives.
"""

import dataclasses

from repro.common.errors import ReproError, RecoveryError
from repro.common.units import KB
from repro.core.recovery import check_recovered
from repro.fault.nvm_faults import INJECTORS
from repro.fault.plan import (
    SITE_ACS_SCAN,
    SITE_LLC_EVICTION,
    SITE_PRE_INPLACE,
    SITE_UNDO_FLUSH,
    CrashPlan,
)
from repro.sim.simulator import Simulation

#: Schemes with a real recovery procedure (ideal NVM has nothing to check).
RECOVERABLE_SCHEMES = ("picl", "frm", "journaling", "shadow", "thynvm")

#: Schemes keeping a durable log region (the NVM-corruption targets).
LOGGED_SCHEMES = ("picl", "frm")

#: References around an epoch boundary for the ±k crash points.
BOUNDARY_OFFSET = 7

#: Config overrides for the mid-ACS cells (see the event's comment).
ACS_OVERRIDES = {"llc_size_per_core": 512 * KB, "epoch_instructions": 15_000}


@dataclasses.dataclass
class CrashEvent:
    """One column of the matrix: a crash point and who it applies to.

    Some semantic windows only open under a particular memory behaviour
    (an ACS pass writes in place only when dirty lines outlive the ACS
    gap inside the LLC), so an event may pin its own benchmark, config
    overrides, or epoch count instead of the matrix defaults.
    """

    name: str
    kind: str  # "plan" | "nested" | "fault"
    schemes: tuple = RECOVERABLE_SCHEMES
    make_plan: object = None  # (config, n_instructions) -> CrashPlan
    injector: str = None  # key into nvm_faults.INJECTORS for kind="fault"
    benchmark: str = None
    overrides: dict = None
    epochs: int = None


@dataclasses.dataclass
class CrashOutcome:
    """One validated cell of the matrix."""

    scheme: str
    event: str
    status: str  # "ok" | "detected" | "failed"
    triggered: bool  # did the injected crash point actually fire?
    commit_id: object = None
    detail: str = ""
    simulation: int = 0  # index of the matrix run that served the cell

    @property
    def passed(self):
        return self.status in ("ok", "detected")


#: Benchmark for cells needing dirty LLC evictions / a populated log at
#: every preset scale: mcf's working set exceeds any scaled LLC and its
#: write traffic streams, so write-backs (and FRM log appends) never dry
#: up. gcc's write set fits the ci-scale LLC entirely — eviction windows
#: never open and FRM's per-epoch log is empty at a boundary crash.
EVICTION_BENCHMARK = "mcf"


def _late_crash(config, n_instructions):
    """A crash point in the middle of the last epoch.

    Late, so the live log is large — but mid-epoch, not at a boundary,
    so single-epoch schemes (FRM truncates its log at every commit) still
    hold entries for the corruption injectors to target.
    """
    span = config.epoch_instructions * config.n_cores
    return CrashPlan.at(max(1, n_instructions - span // 2))


def matrix_events(full=False):
    """The crash-point columns of the matrix.

    The quick matrix covers each semantic window once per applicable
    scheme; ``full`` widens it with more occurrences, boundary offsets
    and crash fractions (the nightly sweep).
    """
    events = [
        CrashEvent(
            "epoch1-%d" % BOUNDARY_OFFSET,
            "plan",
            make_plan=lambda c, n: CrashPlan.at_epoch_boundary(
                c, 1, -BOUNDARY_OFFSET
            ),
        ),
        CrashEvent(
            "epoch2+%d" % BOUNDARY_OFFSET,
            "plan",
            make_plan=lambda c, n: CrashPlan.at_epoch_boundary(
                c, 2, BOUNDARY_OFFSET
            ),
        ),
        CrashEvent(
            "mid-epoch",
            "plan",
            make_plan=lambda c, n: CrashPlan.at(int(n * 0.55)),
        ),
        CrashEvent(
            "llc-eviction",
            "plan",
            make_plan=lambda c, n: CrashPlan.on_event(SITE_LLC_EVICTION, 5),
            benchmark=EVICTION_BENCHMARK,
        ),
        CrashEvent(
            "undo-flush-torn",
            "plan",
            schemes=("picl",),
            make_plan=lambda c, n: CrashPlan.on_event(SITE_UNDO_FLUSH, 2),
        ),
        CrashEvent(
            "pre-inplace",
            "plan",
            schemes=("picl",),
            make_plan=lambda c, n: CrashPlan.on_event(SITE_PRE_INPLACE, 3),
            benchmark=EVICTION_BENCHMARK,
        ),
        CrashEvent(
            "mid-acs",
            "plan",
            schemes=("picl",),
            make_plan=lambda c, n: CrashPlan.on_event(SITE_ACS_SCAN, 2),
            # ACS writes in place only for dirty lines whose last store is
            # >= acs_gap epochs old and that are still LLC-resident: a
            # streaming write set that fits the LLC and wraps slower than
            # the gap. Stationary write sets (gcc) are always re-tagged or
            # evicted first and the window never opens.
            benchmark="libquantum",
            overrides=ACS_OVERRIDES,
            epochs=10,
        ),
        CrashEvent(
            "nested-recovery",
            "nested",
            schemes=LOGGED_SCHEMES,
            make_plan=_late_crash,
            benchmark=EVICTION_BENCHMARK,
        ),
    ]
    for injector in ("torn_superblock", "bitflip_token"):
        events.append(
            CrashEvent(
                "nvm-" + injector,
                "fault",
                schemes=LOGGED_SCHEMES,
                make_plan=_late_crash,
                injector=injector,
                benchmark=EVICTION_BENCHMARK,
            )
        )
    if full:
        for fraction in (15, 35, 75):
            events.append(
                CrashEvent(
                    "run-%d%%" % fraction,
                    "plan",
                    make_plan=lambda c, n, f=fraction: CrashPlan.at(
                        int(n * f / 100)
                    ),
                )
            )
        for epoch in (1, 2, 3):
            for offset in (-1, 1):
                events.append(
                    CrashEvent(
                        "epoch%d%+d" % (epoch, offset),
                        "plan",
                        make_plan=lambda c, n, e=epoch, o=offset: (
                            CrashPlan.at_epoch_boundary(c, e, o)
                        ),
                    )
                )
        for occurrence in (1, 3, 6):
            events.append(
                CrashEvent(
                    "undo-flush#%d" % occurrence,
                    "plan",
                    schemes=("picl",),
                    make_plan=lambda c, n, o=occurrence: CrashPlan.on_event(
                        SITE_UNDO_FLUSH, o
                    ),
                )
            )
            events.append(
                CrashEvent(
                    "mid-acs#%d" % occurrence,
                    "plan",
                    schemes=("picl",),
                    make_plan=lambda c, n, o=occurrence: CrashPlan.on_event(
                        SITE_ACS_SCAN, o
                    ),
                    benchmark="libquantum",
                    overrides=ACS_OVERRIDES,
                    epochs=10,
                )
            )
        events.append(
            CrashEvent(
                "undo-flush-tear0",
                "plan",
                schemes=("picl",),
                make_plan=lambda c, n: CrashPlan.on_event(
                    SITE_UNDO_FLUSH, 1, tear_entries=0
                ),
            )
        )
        for injector in ("bitflip_valid_till", "corrupt_header"):
            events.append(
                CrashEvent(
                    "nvm-" + injector,
                    "fault",
                    schemes=LOGGED_SCHEMES,
                    make_plan=_late_crash,
                    injector=injector,
                    benchmark=EVICTION_BENCHMARK,
                )
            )
    return events


# ----------------------------------------------------------------------
# per-cell validation
# ----------------------------------------------------------------------


def validate_recovery(sim):
    """Crash now, recover, and assert token-exact equality to the oracle.

    Returns the recovery's commit id; raises
    :class:`~repro.common.errors.RecoveryError` on any divergence or when
    the oracle snapshot is unavailable (reference window too shallow).
    """
    image, commit_id, reference = sim.crash_and_recover()
    if reference is None:
        raise RecoveryError(
            "no oracle snapshot for commit %r (reference window too "
            "shallow or tracking disabled)" % (commit_id,)
        )
    check_recovered(image, reference)
    return commit_id


def validate_nested_recovery(sim, interrupt_after=5):
    """Crash, recover, crash again mid-recovery, recover again.

    The first recovery's in-place writes are applied to NVM only up to
    ``interrupt_after`` lines (recovery itself is torn by a second power
    failure); the rerun from that partially-recovered image must converge
    to the identical image. Returns the commit id.
    """
    image1, commit_id, reference = sim.crash_and_recover()
    if reference is None:
        raise RecoveryError("no oracle snapshot for commit %r" % (commit_id,))
    check_recovered(image1, reference)
    controller = sim.scheme.controller
    snapshot = controller.snapshot_image()
    progress = sorted(
        (addr, token)
        for addr, token in image1.items()
        if snapshot.get(addr, 0) != token
    )
    for addr, token in progress[:interrupt_after]:
        controller.write_token(addr, token)
    image2, commit_id2 = sim.scheme.recover()
    if commit_id2 != commit_id:
        raise RecoveryError(
            "re-recovery targeted commit %r, first pass %r"
            % (commit_id2, commit_id)
        )
    check_recovered(image2, image1)
    check_recovered(image2, reference)
    return commit_id


def validate_fault_detection(sim, injector_name):
    """Corrupt the durable log post-crash; recovery must raise.

    Returns the injector's description of the corruption; raises
    :class:`~repro.common.errors.RecoveryError` if recovery *succeeds*
    over the corrupted log (a silent mis-recovery).
    """
    sim.system.crash()
    detail = INJECTORS[injector_name](sim.scheme.log)
    try:
        sim.scheme.recover()
    except RecoveryError:
        return detail
    raise RecoveryError(
        "silent mis-recovery: %s went undetected (%s)" % (injector_name, detail)
    )


def _cell_run(config, event, benchmark, epochs):
    """The run a cell crashes: ``(config, benchmark, n_instructions,
    plan)`` after the event's overrides."""
    if event.overrides:
        config = dataclasses.replace(config, **event.overrides)
    if event.benchmark:
        benchmark = event.benchmark
    if event.epochs:
        epochs = event.epochs
    n_instructions = config.epoch_instructions * config.n_cores * epochs
    plan = event.make_plan(config, n_instructions) if event.make_plan else None
    return config, benchmark, n_instructions, plan


class CrashedRun:
    """One crashed simulation, served to every cell whose run it is.

    The first :meth:`crashed_sim` call builds and runs the simulation;
    later calls return it with its durable state — the NVM image and,
    for logged schemes, the log region — restored to what the crash
    left, because validators mutate that state in place (nested recovery
    writes tokens back to NVM, the corruption injectors rewrite the log).
    Only a ``shared`` run keeps that snapshot; any other serves one cell.
    """

    def __init__(self, index=0, shared=False):
        self.index = index
        self.shared = shared
        self.sim = None
        self._durable = None

    def crashed_sim(self, config, scheme, benchmark, n_instructions, seed, plan):
        """The run's simulation, in its post-crash durable state."""
        if self.sim is None:
            self.sim = Simulation(config, scheme, [benchmark], n_instructions, seed=seed)
            self.sim.run(crash_plan=plan)
            if self.shared:
                self._durable = self._snapshot()
        else:
            self._restore()
        return self.sim

    def _snapshot(self):
        scheme = self.sim.scheme
        log = getattr(scheme, "log", None)
        return (
            scheme.controller.image.snapshot(),
            None if log is None else log.snapshot(),
        )

    def _restore(self):
        image, log = self._durable
        scheme = self.sim.scheme
        scheme.controller.image.restore(image)
        if log is not None:
            scheme.log.restore(log)


def run_cell(config, scheme, event, benchmark, epochs, seed, run=None):
    """Run one (scheme, crash point) cell and validate it.

    ``run`` is the :class:`CrashedRun` serving the cell (a fresh one when
    omitted); the matrix passes one per distinct run.
    """
    config, benchmark, n_instructions, plan = _cell_run(
        config, event, benchmark, epochs
    )
    if run is None:
        run = CrashedRun()
    sim = run.crashed_sim(config, scheme, benchmark, n_instructions, seed, plan)
    triggered = sim.crashed
    outcome = CrashOutcome(scheme, event.name, "ok", triggered, simulation=run.index)
    try:
        if event.kind == "plan":
            # A plan whose site never fired completed the run; validating
            # recovery of the final state is still meaningful, but the
            # outcome records that the window was not exercised.
            outcome.commit_id = validate_recovery(sim)
        elif event.kind == "nested":
            outcome.commit_id = validate_nested_recovery(sim)
        elif event.kind == "fault":
            outcome.detail = validate_fault_detection(sim, event.injector)
            outcome.status = "detected"
        else:
            raise ReproError("unknown event kind %r" % event.kind)
    except ReproError as exc:
        outcome.status = "failed"
        outcome.detail = str(exc)
    return outcome


def run_crash_matrix(
    config,
    benchmark="gcc",
    epochs=8,
    seed=20180101,
    schemes=RECOVERABLE_SCHEMES,
    events=None,
    full=False,
):
    """Run the whole matrix; returns the list of :class:`CrashOutcome`.

    ``config`` must have ``track_reference=True`` with a reference depth
    covering the run's commits (the oracle lives in those snapshots).
    """
    if events is None:
        events = matrix_events(full=full)
    cells = [
        (event, scheme)
        for event in events
        for scheme in schemes
        if not event.schemes or scheme in event.schemes
    ]
    # Group the cells by the run they crash. Configs are compared by
    # value (``==``): they are unhashable dataclasses.
    keys, groups = [], []
    for position, (event, scheme) in enumerate(cells):
        run_config, run_benchmark, n_instructions, plan = _cell_run(
            config, event, benchmark, epochs
        )
        key = (
            scheme,
            run_benchmark,
            n_instructions,
            seed,
            None if plan is None else plan.key(),
            run_config,
        )
        if key in keys:
            groups[keys.index(key)].append(position)
        else:
            keys.append(key)
            groups.append([position])
    outcomes = [None] * len(cells)
    for index, positions in enumerate(groups):
        # A run's cells go back to back; rebinding ``run`` drops the
        # previous simulation before this one is built.
        run = CrashedRun(index, shared=len(positions) > 1)
        for position in positions:
            event, scheme = cells[position]
            outcomes[position] = run_cell(
                config, scheme, event, benchmark, epochs, seed, run=run
            )
    return outcomes
