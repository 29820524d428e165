"""The differential crash matrix end to end (small scale).

These are the gating safety cells: crash at a semantic window, recover,
compare token-exactly against the oracle snapshot; corrupt the log,
expect detection. The CLI's ``fault-sweep`` runs the same harness at
preset scales.
"""

import dataclasses

import pytest

from repro.common.errors import RecoveryError
from repro.fault import harness
from repro.fault.harness import (
    LOGGED_SCHEMES,
    RECOVERABLE_SCHEMES,
    CrashEvent,
    matrix_events,
    run_cell,
    run_crash_matrix,
    validate_fault_detection,
    validate_recovery,
)
from repro.fault.nvm_faults import INJECTORS
from repro.fault.plan import CrashPlan, CrashSignal
from repro.cache.trajectory import Trajectory
from repro.sim.config import SystemConfig
from repro.sim.parallel import RunPoint, trajectory_key
from repro.sim.simulator import Simulation
from repro.trace.synthetic import clear_trace_memo

CONFIG = SystemConfig().scaled(512, track_reference=True, reference_depth=256)


def cell(event_name, scheme):
    event = {e.name: e for e in matrix_events(full=True)}[event_name]
    return run_cell(CONFIG, scheme, event, "gcc", 6, seed=20180101)


class TestSemanticCells:
    @pytest.mark.parametrize("scheme", RECOVERABLE_SCHEMES)
    def test_epoch_boundary_minus(self, scheme):
        outcome = cell("epoch1-7", scheme)
        assert outcome.triggered
        assert outcome.status == "ok", outcome.detail

    @pytest.mark.parametrize("scheme", RECOVERABLE_SCHEMES)
    def test_llc_eviction_window(self, scheme):
        outcome = cell("llc-eviction", scheme)
        assert outcome.triggered
        assert outcome.status == "ok", outcome.detail

    def test_torn_undo_flush(self):
        outcome = cell("undo-flush-torn", "picl")
        assert outcome.triggered
        assert outcome.status == "ok", outcome.detail

    def test_pre_inplace_window(self):
        outcome = cell("pre-inplace", "picl")
        assert outcome.triggered
        assert outcome.status == "ok", outcome.detail

    def test_mid_acs_scan(self):
        outcome = cell("mid-acs", "picl")
        assert outcome.triggered
        assert outcome.status == "ok", outcome.detail

    @pytest.mark.parametrize("scheme", LOGGED_SCHEMES)
    def test_nested_recovery_idempotent(self, scheme):
        outcome = cell("nested-recovery", scheme)
        assert outcome.triggered
        assert outcome.status == "ok", outcome.detail


class TestCorruptionCells:
    @pytest.mark.parametrize("scheme", LOGGED_SCHEMES)
    def test_torn_superblock_detected(self, scheme):
        outcome = cell("nvm-torn_superblock", scheme)
        assert outcome.status == "detected", outcome.detail

    @pytest.mark.parametrize("scheme", LOGGED_SCHEMES)
    def test_bitflip_detected(self, scheme):
        outcome = cell("nvm-bitflip_token", scheme)
        assert outcome.status == "detected", outcome.detail

    def test_silent_misrecovery_is_a_failure(self, monkeypatch):
        # If recovery were to succeed over a corrupted log, the cell must
        # FAIL (detection is the asserted property, not recoverability).
        sim = Simulation(CONFIG, "frm", ["mcf"], 40_000, seed=1)
        sim.run(crash_plan=CrashPlan.at(35_000))
        monkeypatch.setattr(
            type(sim.scheme.log), "verify", lambda self: None
        )
        with pytest.raises(RecoveryError, match="silent mis-recovery"):
            validate_fault_detection(sim, "bitflip_token")


class TestHarnessPlumbing:
    def test_validate_recovery_requires_oracle(self):
        # No reference tracking: the crash lands past the first commit,
        # whose snapshot was never recorded — the harness must refuse to
        # validate rather than vacuously pass.
        config = SystemConfig().scaled(512)
        span = config.epoch_instructions
        sim = Simulation(config, "frm", ["gcc"], span * 2, seed=1)
        sim.run(crash_at_instructions=span + span // 2)
        with pytest.raises(RecoveryError, match="oracle"):
            validate_recovery(sim)

    def test_unfired_plan_reported_not_hidden(self):
        event = CrashEvent(
            "never",
            "plan",
            make_plan=lambda c, n: CrashPlan.on_event("acs_scan", 10_000),
        )
        outcome = run_cell(CONFIG, "frm", event, "gcc", 2, seed=1)
        assert not outcome.triggered
        assert outcome.status == "ok"  # final-state recovery still checked

    def test_matrix_filters_schemes_per_event(self):
        events = [e for e in matrix_events() if e.name == "undo-flush-torn"]
        outcomes = run_crash_matrix(CONFIG, epochs=4, events=events)
        assert [o.scheme for o in outcomes] == ["picl"]

    def test_validation_failure_is_captured_not_raised(self, monkeypatch):
        event = {e.name: e for e in matrix_events()}["mid-epoch"]

        def always_diverges(sim):
            raise RecoveryError("injected divergence")

        monkeypatch.setattr(
            "repro.fault.harness.validate_recovery", always_diverges
        )
        outcome = run_cell(CONFIG, "frm", event, "gcc", 4, seed=1)
        assert outcome.status == "failed"
        assert "injected divergence" in outcome.detail

    def test_full_matrix_is_a_superset(self):
        quick = {e.name for e in matrix_events()}
        full = {e.name for e in matrix_events(full=True)}
        assert quick < full


#: Epochs per run of the shared-run tests: every quick column triggers.
SHARED_EPOCHS = 3

#: The quick columns that crash the same run (``_late_crash`` on mcf).
LATE_CRASH_EVENTS = ("nested-recovery", "nvm-torn_superblock", "nvm-bitflip_token")


def outcome_fields(outcome):
    """Everything a cell reports except which matrix run served it."""
    fields = dataclasses.asdict(outcome)
    del fields["simulation"]
    return fields


@pytest.fixture(scope="module")
def quick_matrix():
    """The quick matrix once, from an empty trace memo (so it tags every
    trajectory it replays, rather than finding one an earlier test
    kept), counting simulations run, cells served and trajectory chunks
    tagged, and recording per trajectory key the most chunks any one run
    of it reached."""
    clear_trace_memo()
    calls = {"run": 0, "cell": 0, "tag": 0, "reached": {}}
    sim_run, cell_fn = Simulation.run, harness.run_cell
    chunk_codes, tag = Trajectory.chunk_codes, Trajectory._tag
    current = []

    def counted_run(self, *args, **kwargs):
        calls["run"] += 1
        point = RunPoint.single(
            self.config, self.scheme_name, self.benchmarks[0],
            self.n_instructions, self.seed,
        )
        current[:] = [trajectory_key(point)]
        return sim_run(self, *args, **kwargs)

    def counted_cell(*args, **kwargs):
        calls["cell"] += 1
        return cell_fn(*args, **kwargs)

    def counted_chunk_codes(self, index, chunk):
        reached = calls["reached"]
        reached[current[0]] = max(reached.get(current[0], 0), index + 1)
        return chunk_codes(self, index, chunk)

    def counted_tag(self, addrs):
        calls["tag"] += 1
        return tag(self, addrs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulation, "run", counted_run)
        patch.setattr(harness, "run_cell", counted_cell)
        patch.setattr(Trajectory, "chunk_codes", counted_chunk_codes)
        patch.setattr(Trajectory, "_tag", counted_tag)
        outcomes = run_crash_matrix(CONFIG, epochs=SHARED_EPOCHS)
    return outcomes, calls


class TestSharedRuns:
    def test_one_simulation_per_distinct_run(self, quick_matrix):
        outcomes, calls = quick_matrix
        assert len(outcomes) == 29
        assert calls["run"] == 25
        assert len({o.simulation for o in outcomes}) == 25

    def test_run_cell_once_per_cell(self, quick_matrix):
        outcomes, calls = quick_matrix
        assert calls["cell"] == len(outcomes)

    def test_each_trace_tagged_once(self, quick_matrix):
        # The runs of one trace and cache geometry share the trajectory
        # the trace memo keeps: each chunk is tagged by the first run to
        # reach it, so the tag count is, summed over keys, the furthest
        # any run of a key got.
        # gcc (3 columns x 5 schemes + the torn flush), mcf (4 columns)
        # and libquantum with the mid-ACS overrides.
        _outcomes, calls = quick_matrix
        assert len(calls["reached"]) == 3
        assert calls["tag"] == sum(calls["reached"].values())

    def test_event_major_order_and_all_pass(self, quick_matrix):
        outcomes, _calls = quick_matrix
        expected = [
            (event.name, scheme)
            for event in matrix_events()
            for scheme in RECOVERABLE_SCHEMES
            if scheme in event.schemes
        ]
        assert [(o.event, o.scheme) for o in outcomes] == expected
        assert all(o.passed and o.triggered for o in outcomes), [
            (o.event, o.scheme, o.detail) for o in outcomes if not o.passed
        ]

    def test_late_crash_columns_share_one_run_per_scheme(self, quick_matrix):
        outcomes, _calls = quick_matrix
        for scheme in LOGGED_SCHEMES:
            served = {
                o.simulation
                for o in outcomes
                if o.scheme == scheme and o.event in LATE_CRASH_EVENTS
            }
            assert len(served) == 1

    # Every quick column: the runs that replay chunks another scheme's
    # run tagged must validate exactly as a solo cell does from an empty
    # trace memo, tagging its own trajectory.
    @pytest.mark.parametrize(
        "event_name", [event.name for event in matrix_events()]
    )
    def test_outcomes_equal_solo_cells(self, quick_matrix, event_name):
        outcomes, _calls = quick_matrix
        event = {e.name: e for e in matrix_events()}[event_name]
        shared = [o for o in outcomes if o.event == event_name]
        assert shared
        for outcome in shared:
            clear_trace_memo()
            solo = run_cell(
                CONFIG, outcome.scheme, event, "gcc", SHARED_EPOCHS, seed=20180101
            )
            assert outcome_fields(outcome) == outcome_fields(solo)

    def test_reference_loop_matches_default_engine(self, monkeypatch):
        # Under REPRO_VECTOR=0 every run of the shared trace runs the
        # reference loop, which makes no trajectory.
        events = [e for e in matrix_events() if e.name == "epoch1-7"]
        schemes = ("picl", "frm")
        default = run_crash_matrix(
            CONFIG, epochs=SHARED_EPOCHS, schemes=schemes, events=events
        )
        clear_trace_memo()
        monkeypatch.setenv("REPRO_VECTOR", "0")
        made = []
        init = Trajectory.__init__

        def recorded(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Trajectory, "__init__", recorded)
        reference = run_crash_matrix(
            CONFIG, epochs=SHARED_EPOCHS, schemes=schemes, events=events
        )
        assert made == []
        assert len(reference) == 2
        assert [outcome_fields(o) for o in reference] == [
            outcome_fields(o) for o in default
        ]

    def test_second_fault_column_sees_pristine_log(self, monkeypatch):
        seen = []

        def recording(name):
            inject = INJECTORS[name]

            def record(log):
                log.verify()
                seen.append(
                    (
                        name,
                        log.entry_count,
                        [block.checksum for block in log.iter_superblocks_backward()],
                    )
                )
                return inject(log)

            return record

        for name in ("torn_superblock", "bitflip_token"):
            monkeypatch.setitem(INJECTORS, name, recording(name))
        events = [e for e in matrix_events() if e.name.startswith("nvm-")]
        outcomes = run_crash_matrix(
            CONFIG, epochs=SHARED_EPOCHS, schemes=("picl",), events=events
        )
        assert [o.status for o in outcomes] == ["detected", "detected"]
        assert len({o.simulation for o in outcomes}) == 1
        shared_second = seen[1]
        run_cell(CONFIG, "picl", events[1], "gcc", SHARED_EPOCHS, seed=20180101)
        assert seen[2] == shared_second
        assert seen[0][1] == shared_second[1]  # the tear was undone

    def test_plan_keys_match_only_for_shared_crashes(self):
        keys = {}
        for event in matrix_events():
            config, _benchmark, n_instructions, plan = harness._cell_run(
                CONFIG, event, "gcc", SHARED_EPOCHS
            )
            keys[event.name] = plan.key()
        late = {keys[name] for name in LATE_CRASH_EVENTS}
        assert len(late) == 1
        others = [key for name, key in keys.items() if name not in LATE_CRASH_EVENTS]
        assert len(set(others)) == len(others)
        assert late.isdisjoint(others)

    def test_plan_key_ignores_trigger_state(self):
        fresh = CrashPlan.on_event("undo_flush", 1)
        spent = CrashPlan.on_event("undo_flush", 1)
        with pytest.raises(CrashSignal):
            spent.notify("undo_flush")
        assert spent.fired
        assert spent.key() == fresh.key()
        assert CrashPlan.on_event("undo_flush", 1, tear_entries=0).key() != fresh.key()

