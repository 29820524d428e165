"""The benchmark's workloads, the units of work they run, and the checks
on their outputs.

Every workload is closed-loop: one unit at a time, back to back. A unit
is a single simulation point, the ci crash matrix, or one figure of the
sweep; each checks its own output and returns ``(refs, seconds, results)``
where ``seconds`` is the time the refs count against (``Simulation.run``
for a point, the figure's wall time for a figure) and ``results`` the
:class:`~repro.sim.results.SimulationResult` objects it produced.

The workload seed reaches the program only as the ``seed=`` of the
generated traces (``Preset.seed`` for the preset-driven units).
"""

import dataclasses
import hashlib
import json
import shutil
import tempfile
import time

from repro.common.units import MB
from repro.experiments import fig09, fig12, fig15
from repro.experiments.presets import get_preset
from repro.experiments.recovery_validation import REFERENCE_DEPTH
from repro.fault.harness import matrix_events, run_crash_matrix
from repro.sim.config import SystemConfig
from repro.sim.parallel import ResultCache, RunPoint, trace_key
from repro.sim.simulator import SCHEME_NAMES, Simulation
from repro.sim.sweep import matrix_points, mix_point
from repro.trace.synthetic import clear_trace_memo

perf = time.perf_counter

#: ``--smoke`` divides every workload's length by this.
SMOKE_DIVISOR = 8

#: Worker processes of the fig-sweep pool: one per core of the two-core
#: machine the benchmark was calibrated on.
JOBS = 2


def digest(obj):
    """SHA-256 of a JSON-serialisable value, keys sorted."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result):
    """Digest of everything a simulation point computes."""
    return digest(
        {
            "stats": sorted(result.stats_dict().items()),
            "cycles": result.cycles,
            "per_core_cycles": result.per_core_cycles,
        }
    )


def result_refs(result):
    return result.stat("loads") + result.stat("stores")


class Checker:
    """Counts attempted and failed points and checks every digest.

    A point fails when its invariant does not hold, when its digest
    changes from one pass to the next, or when it differs from the
    expected digest (known only for the default seed).
    """

    def __init__(self, expected):
        self.expected = expected
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def point(self, label, value, ok=True, note=""):
        self.attempted += 1
        first = self.digests.setdefault(label, value)
        want = self.expected.get(label)
        if not ok:
            reason = note
        elif value != first:
            reason = "digest changed between passes"
        elif want is not None and value != want:
            reason = "digest %s differs from expected %s" % (value[:12], want[:12])
        else:
            return
        self._fail(label, reason)

    def error(self, label, exc):
        self.attempted += 1
        self._fail(label, "%s: %s" % (type(exc).__name__, exc))

    def finish(self):
        """Fail every expected point that never ran."""
        for label in sorted(set(self.expected) - set(self.digests)):
            self.attempted += 1
            self._fail(label, "expected point never ran")

    def _fail(self, label, reason):
        self.failed += 1
        self.failures.append("%s: %s" % (label, reason))


class SimPoint:
    """One simulation point: built in set-up, rebuilt and run each pass."""

    def __init__(self, label, point):
        self.label = label
        self.point = point
        self.refs = None

    def build(self):
        p = self.point
        return Simulation(
            p.config,
            p.scheme_name,
            list(p.benchmarks),
            p.n_instructions,
            seed=p.seed,
            shared_memory=p.shared_memory,
        )

    def setup(self, trace_refs):
        """Build once; returns the seconds it took. Also learns, untimed,
        how many refs the point's traces hold."""
        start = perf()
        sim = self.build()
        elapsed = perf() - start
        key = trace_key(self.point)
        if key not in trace_refs:
            trace_refs[key] = sum(
                len(chunk) for trace in sim.traces for chunk in trace.chunks()
            )
        self.refs = trace_refs[key]
        return elapsed

    def run(self, check):
        sim = self.build()
        start = perf()
        result = sim.run()
        elapsed = perf() - start
        refs = result_refs(result)
        check.point(
            self.label,
            result_digest(result),
            refs == self.refs,
            "simulated %d refs, its traces hold %d" % (refs, self.refs),
        )
        return refs, elapsed, [result]


class CrashMatrix:
    """Columns of the ci-preset crash matrix: crash, recover and validate
    each cell."""

    #: Runs of ``CRASH_EPOCHS`` epochs instead of the harness's eight:
    #: every column still triggers, in a third of the time.
    CRASH_EPOCHS = 3

    def __init__(self, label, events, seed):
        preset = dataclasses.replace(get_preset("ci"), seed=seed)
        self.config = preset.config(
            track_reference=True, reference_depth=REFERENCE_DEPTH
        )
        self.label = label
        self.seed = seed
        self.events = events

    def setup(self, trace_refs):
        return 0.0

    def run(self, check):
        cells = run_crash_matrix(
            self.config, epochs=self.CRASH_EPOCHS, seed=self.seed, events=self.events
        )
        for cell in cells:
            check.point(
                "crash:%s/%s" % (cell.event, cell.scheme),
                digest([cell.status, cell.triggered, cell.commit_id]),
                cell.passed and cell.triggered,
                "status %s, triggered %s %s"
                % (cell.status, cell.triggered, cell.detail),
            )
        return 0, 0.0, []


class Figure:
    """One figure of the sweep, run the way ``repro figNN`` runs it: a
    two-worker pool into a cold result cache, then rendered as a table."""

    def __init__(self, label, module, preset, render, **kwargs):
        self.label = label
        self.module = module
        self.preset = preset
        self.render = render
        self.kwargs = kwargs

    def setup(self, trace_refs):
        return 0.0

    def run(self, check):
        # The figure's own run() tabulates its results; keep the raw
        # results too, for the refs count and the invariant below.
        captured = {}
        run_keyed = self.module.run_keyed

        def capture(pairs, *args, **kwargs):
            results = run_keyed(pairs, *args, **kwargs)
            captured.update(results)
            return results

        root = tempfile.mkdtemp(prefix="cache-")
        self.module.run_keyed = capture
        try:
            start = perf()
            table = self.render(
                self.module.run(
                    self.preset, jobs=JOBS, cache=ResultCache(root), **self.kwargs
                )
            )
            elapsed = perf() - start
        finally:
            self.module.run_keyed = run_keyed
            shutil.rmtree(root, ignore_errors=True)
        # Keys end with the scheme; every scheme of one key prefix replays
        # the same trace, so all of them must retire the same refs.
        refs_by_trace = {}
        for key, result in captured.items():
            refs_by_trace.setdefault(key[:-1], set()).add(result_refs(result))
        check.point(
            self.label,
            digest(table),
            bool(captured)
            and all(len(refs) == 1 and min(refs) > 0 for refs in refs_by_trace.values()),
            "schemes replaying one trace retired different refs",
        )
        results = list(captured.values())
        return sum(result_refs(r) for r in results), elapsed, results


def setup_round(units, trace_refs):
    """Build every unit from an empty trace memo; returns the seconds."""
    clear_trace_memo()
    return sum(unit.setup(trace_refs) for unit in units)


def _single_core(schemes, benchmarks, epochs):
    def units(seed, smoke):
        config = SystemConfig().scaled(128)
        n = config.epoch_instructions * epochs // (SMOKE_DIVISOR if smoke else 1)
        return [
            SimPoint("%s/%s" % (scheme, benchmark), point)
            for (benchmark, scheme), point in matrix_points(
                config, schemes, benchmarks, n, seed
            )
        ]

    return units


#: Miss-heavy: most references leave L1, so the miss-chain drain does
#: the work and columnar bulk-apply barely engages.
sc_miss = _single_core(SCHEME_NAMES, ("gcc", "lbm"), epochs=1)

#: Hit-dominated: columnar classify/bulk-apply serves most references;
#: the bypass case for any miss-chain change. Only the schemes whose
#: store hits are silent to the columnar classifier: journaling, shadow
#: and thynvm observe every store, which sends every window holding a
#: store to the drain, and h264ref misses often enough (11% of refs) to
#: keep the interpreter in drain bursts.
sc_hit = _single_core(("ideal", "frm", "picl"), ("hmmer", "povray", "namd"), epochs=16)


def mc_mix(seed, smoke):
    """Eight-core Table V mixes: W0 has the most hits, W2 the longest
    turns, W5 the most misses; journaling and thynvm on W2 are the rows
    the batched multi-core loop runs slowest."""
    config = SystemConfig().scaled(512, n_cores=8)
    # One and a half system epochs: one scheduled commit mid-run.
    n = config.epoch_instructions * 3 // 2 // (SMOKE_DIVISOR if smoke else 1)
    rows = (
        ("picl", "W0"),
        ("picl", "W2"),
        ("picl", "W5"),
        ("journaling", "W2"),
        ("thynvm", "W2"),
    )
    return [
        SimPoint("%s/%s" % (scheme, mix), mix_point(config, scheme, mix, n, seed))
        for scheme, mix in rows
    ]


def persist_recover(seed, smoke):
    """ACS-heavy configs (small scale, oversized LLC, short epochs), then
    the ci crash matrix: EID scans, undo flushes, log writes and recovery
    instead of demand reads."""
    divisor = SMOKE_DIVISOR if smoke else 1
    single = SystemConfig().scaled(
        16, llc_size_per_core=4 * MB, epoch_instructions=2048
    )
    multi = SystemConfig().scaled(
        16, n_cores=8, llc_size_per_core=4 * MB, epoch_instructions=512
    )
    # Two NVM channels: the miss-chain drain declines this config, so
    # the scalar hierarchy chain serves its misses.
    two_channel = dataclasses.replace(
        single, nvm=dataclasses.replace(single.nvm, n_channels=2)
    )
    n1 = 2048 * 64 // divisor
    points = [
        SimPoint("acs:picl/lbm", RunPoint.single(single, "picl", "lbm", n1, seed)),
        SimPoint("acs:picl/gcc", RunPoint.single(single, "picl", "gcc", n1, seed)),
        SimPoint(
            "acs:picl/lbm/2ch", RunPoint.single(two_channel, "picl", "lbm", n1, seed)
        ),
        SimPoint(
            "acs:picl/W2", mix_point(multi, "picl", "W2", 2048 * 16 // divisor, seed)
        ),
    ]
    # One unit per kind of crash column, so no unit runs for seconds.
    events = matrix_events()[:1] if smoke else matrix_events()
    kinds = {}
    for event in events:
        kinds.setdefault(event.kind, []).append(event)
    return points + [
        CrashMatrix("crash-matrix:%s" % kind, columns, seed)
        for kind, columns in kinds.items()
    ]


def fig_sweep(seed, smoke):
    """The user command: ci-preset fig09, fig12 and fig15 through the pool
    into a cold result cache. One scheduled epoch per point instead of the
    preset's three, every third benchmark of fig09, every other one of
    fig12 and two of fig15's four keep a pass of its 143 points near
    two and a half seconds."""
    preset = dataclasses.replace(get_preset("ci"), seed=seed)

    def share(benchmarks):
        if smoke:
            return tuple(benchmarks[: -(-len(benchmarks) // SMOKE_DIVISOR)])
        return tuple(benchmarks)

    llc_kb = preset.config().llc_size_per_core // 1024
    return [
        Figure(
            "fig09", fig09, preset, fig09.format_result,
            benchmarks=share(fig09.BENCHMARKS[::3]), epochs=1,
        ),
        Figure(
            "fig12", fig12, preset, fig12.format_result,
            benchmarks=share(fig12.FIG12_BENCHMARKS[::2]), epochs=1,
        ),
        Figure(
            "fig15", fig15, preset,
            lambda sweep: fig15.format_result(sweep, llc_kb),
            benchmarks=share(fig15.BENCHMARKS[:2]), epochs=1,
        ),
    ]


#: name -> (seed, smoke) -> units, in the order the benchmark runs them.
WORKLOADS = {
    "sc-miss": sc_miss,
    "sc-hit": sc_hit,
    "mc-mix": mc_mix,
    "persist-recover": persist_recover,
    "fig-sweep": fig_sweep,
}
