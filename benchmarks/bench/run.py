"""One benchmark for the PiCL simulator: five workloads, end-to-end host
metrics, and an outside-in per-layer trace.

Run every workload ``--reps`` times (default 5), each repetition in a
fresh child process, one child at a time, round-robin across workloads;
``--trace`` adds one traced child per workload. Prints every metric by
name with its unit, checks every output, and exits non-zero if any
point failed::

    python benchmarks/bench/run.py [--workload W]... [--seed S] [--reps N]
        [--seconds T] [--trace] [--smoke] [--json OUT]

One repetition of one workload, in this process (what each child runs);
its last line of output is the result as one JSON object::

    python benchmarks/bench/run.py --child --workload W --seed S
        --seconds T --trace 0|1

A repetition sets up ``SETUP_ROUNDS`` times (imports in a fresh
interpreter, then every unit built from an empty trace memo), then runs
whole passes over the workload's units for
``--seconds`` (at least one pass; the first is a warm-up when more
follow). Every unit and set-up step is timed between two runs of the
fixed kernel in ``hostspeed.py``, and host times are reported in
reference-host seconds (see there). ``--trace 1`` runs half of the
passes untraced and half traced, and reports the per-layer metrics
instead of the end-to-end ones. Names, units and bounds of the metrics
come from ``BENCHMARK.json`` at the repository root.

``--update-expected`` rewrites ``expected.json`` from one pass of every
workload at the default seed; run it under ``REPRO_VECTOR=0
REPRO_BATCH_MISS=0`` so the expectation comes from the scalar engine.
"""

import argparse
import collections
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected.json")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 20180101
SETUP_ROUNDS = 5
CHILD_TIMEOUT = 175.0

#: Span name -> (seconds metric, calls metric), per traced pass.
SPAN_METRICS = (
    ("sim.run", "sim.run_s", None),
    ("miss_engine.drain", "miss_engine.drain_s", "miss_engine.drain_calls"),
    ("miss_engine.turn", "miss_engine.turn_s", "miss_engine.turn_resumes"),
    ("vector_mirror.sync", "vector_mirror.sync_s", "vector_mirror.sync_calls"),
    ("hierarchy.access", "hierarchy.access_s", "hierarchy.access_calls"),
    ("scheme.epoch_boundary", "scheme.epoch_boundary_s", "scheme.epoch_boundaries"),
    ("scheme.finalize", "scheme.finalize_s", None),
    ("acs.scan", "acs.scan_s", "acs.scans"),
    ("undo_buffer.flush", "undo_buffer.flush_s", "undo_buffer.flushes"),
    ("recovery.recover", "recovery.recover_s", "recovery.recovers"),
    ("recovery.check", "recovery.check_s", None),
    ("fault.cell", None, "fault.cells"),
    ("parallel.run_points", "parallel.run_points_s", None),
    ("parallel.cache_load", "parallel.cache_load_s", None),
    ("parallel.cache_store", "parallel.cache_store_s", None),
)

#: Counts taken at span boundaries, reported per traced pass.
COUNT_METRICS = (
    "sim.refs",
    "miss_engine.drained_refs",
    "parallel.points",
    "parallel.retries",
)

#: Modelled counters, summed over one pass's results: exact, so a
#: change to host code only must leave them identical.
MODELLED = (
    "l1.hits",
    "l2.misses",
    "llc.misses",
    "nvm.iops.writeback",
    "nvm.iops.sequential",
    "commits",
    "log.bytes_appended",
    "undo.entries_created",
)


def load_spec():
    with open(SPEC) as handle:
        return json.load(handle)


def quartiles(values):
    """(median, q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


# ----------------------------------------------------------------------
# one repetition (child)
# ----------------------------------------------------------------------


class Passes:
    """What one measured phase saw: per unit, one entry per pass.

    Pass 0 is a warm-up whenever more than one pass ran: its outputs are
    checked, but it is left out of :meth:`wall` and :meth:`rate`.
    """

    def __init__(self, units):
        #: label -> [reference-host seconds of the whole unit, per pass]
        self.walls = {unit.label: [] for unit in units}
        #: label -> [reference-host seconds its refs count against, per pass]
        self.run_s = {unit.label: [] for unit in units}
        #: label -> refs of one pass (the same on every pass)
        self.refs = {}
        self.raw_walls = []  # raw seconds of each pass, units only
        self.n = 0
        self.results = None  # the first pass's results

    def _timed(self, series):
        return [values[1:] if self.n > 1 else values for values in series.values()]

    def wall(self):
        """Reference-host seconds of one pass: the sum over units of each
        unit's median."""
        return sum(statistics.median(v) for v in self._timed(self.walls) if v)

    def rate(self):
        """Refs of one pass over the sum of the units' median seconds."""
        run_s = sum(statistics.median(v) for v in self._timed(self.run_s) if v)
        return sum(self.refs.values()) / run_s if run_s else 0.0


def measure(units, seconds, check, speed, tracer=None):
    """Whole passes over ``units`` until the next would end past
    ``seconds``; always at least one. Every unit is timed between two
    host-speed probes (``speed``, a :class:`hostspeed.HostSpeed`)."""
    passes = Passes(units)
    start = time.perf_counter()
    speed.probe()
    while True:
        pass_start = time.perf_counter()
        raw_wall = 0.0
        results = []
        for unit in units:
            if tracer is not None:
                tracer.point = unit.label
            try:
                (refs, run_s, unit_results), raw, factor = speed.timed(
                    lambda: unit.run(check)
                )
            except Exception as exc:
                traceback.print_exc()
                check.error(unit.label, exc)
                speed.probe()
                continue
            raw_wall += raw
            passes.walls[unit.label].append(raw * factor)
            passes.run_s[unit.label].append(run_s * factor)
            passes.refs[unit.label] = refs
            results += unit_results
        passes.raw_walls.append(raw_wall)
        passes.n += 1
        if passes.results is None:
            passes.results = results
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


def import_seconds():
    """Seconds a fresh interpreter takes to import the benchmark and the
    simulator modules it drives."""
    code = (
        "import sys, time; start = time.perf_counter(); "
        "sys.path[:0] = [%r, %r]; import workloads; "
        "print(time.perf_counter() - start)" % (SRC, HERE)
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    return float(out)


def peak_rss_mib(buffer_mib):
    """Peak RSS of this process plus its largest finished child (a pool
    worker, forked from it), less the host-speed buffer each holds."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own - buffer_mib + max(0.0, child - buffer_mib)


def layer_metrics(tracer, setup, traced, base):
    """Per-layer metrics of a traced repetition.

    ``setup`` is ``(totals, counts)`` snapshotted after the traced set-up
    round; everything else is the traced passes' share, per pass.
    """
    setup_totals, setup_counts = setup
    totals = tracer.totals()
    n = traced.n

    def passes_only(name):
        calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
        s_calls, s_total, s_self = setup_totals.get(name, (0, 0.0, 0.0))
        return calls - s_calls, total - s_total, self_s - s_self

    values = {}
    for span, seconds_name, calls_name in SPAN_METRICS:
        calls, total, _self_s = passes_only(span)
        if seconds_name:
            values[seconds_name] = total / n
        if calls_name:
            values[calls_name] = calls / n
    for name in COUNT_METRICS:
        values[name] = (tracer.counts[name] - setup_counts[name]) / n
    values["sim.self_s"] = passes_only("sim.run")[2] / n
    values["miss_engine.drain_share"] = (
        values["miss_engine.drained_refs"] / values["sim.refs"]
        if values["sim.refs"]
        else 0.0
    )
    values["trace.gen_s"] = setup_totals.get("trace.gen", (0, 0.0, 0.0))[1]
    values["trace.refs"] = setup_counts["trace.refs"]
    for name in MODELLED:
        values[name] = sum(result.stat(name) for result in traced.results)
    values["tracing.overhead_frac"] = traced.wall() / base.wall() - 1.0
    return values


def run_child(args, spec):
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(
            "repro was imported from %s, not from %s" % (repro.__file__, SRC)
        )
    import hostspeed
    import spans
    import workloads

    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    tempfile.tempdir = tmp

    name = args.workload[0]
    expected = {}
    if args.expected and args.seed == DEFAULT_SEED:
        with open(args.expected) as handle:
            expected = json.load(handle)["smoke" if args.smoke else "full"]
        expected = expected.get(name, {})
    units = workloads.WORKLOADS[name](args.seed, args.smoke)
    check = workloads.Checker(expected)
    trace_refs = {}
    detail = {"workload": name, "seed": args.seed, "smoke": args.smoke}

    speed = hostspeed.HostSpeed()
    if args.trace:
        workloads.setup_round(units, trace_refs)
        base = measure(units, args.seconds / 2.0, check, speed)
        tracer = spans.Tracer()
        instrumentation = spans.install(tracer)
        try:
            tracer.point = "setup"
            workloads.setup_round(units, trace_refs)
            setup = (tracer.totals(), collections.Counter(tracer.counts))
            traced = measure(units, args.seconds / 2.0, check, speed, tracer)
        finally:
            instrumentation.uninstall()
        tracer.dump(os.path.join(OUT, "trace-%s.jsonl" % name))
        values = layer_metrics(tracer, setup, traced, base)
        wanted = spec["per_layer"]
        detail.update(
            untraced_walls=base.raw_walls,
            pass_walls=traced.raw_walls,
            spans={k: list(v) for k, v in sorted(tracer.totals().items())},
        )
    else:
        # Set-up round k is build k plus import k, each in reference-host
        # seconds; the imports are timed after the peak RSS is read, or
        # their interpreters would count as this repetition's largest child.
        speed.probe()
        builds = [
            speed.timed(lambda: workloads.setup_round(units, trace_refs))
            for _ in range(SETUP_ROUNDS)
        ]
        passes = measure(units, args.seconds, check, speed)
        peak_rss = peak_rss_mib(hostspeed.BUFFER_MIB)
        speed.probe()
        imports = [speed.timed(import_seconds) for _ in range(SETUP_ROUNDS)]
        rounds = [b * bf + i * f for (b, _, bf), (i, _, f) in zip(builds, imports)]
        raw_rounds = [b + i for (b, _, _), (i, _, _) in zip(builds, imports)]
        values = {
            "wall_s": passes.wall(),
            "refs_per_s": passes.rate(),
            "setup_s": statistics.median(rounds),
            "peak_rss_mb": peak_rss,
        }
        wanted = spec["end_to_end"]
        detail.update(
            setup_rounds=rounds,
            unit_walls=passes.walls,
            pass_walls=passes.raw_walls,
            raw={
                "wall_s": statistics.median(passes.raw_walls),
                "setup_s": statistics.median(raw_rounds),
            },
            host_probes=speed.samples,
        )

    check.finish()
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    detail.update(
        fail_frac=check.failed / max(1, check.attempted),
        failures=check.failures,
        digests=check.digests,
    )
    flags = [flag for flag, on in (("smoke", args.smoke), ("traced", args.trace)) if on]
    print(
        "%s seed %d%s: %d passes, %d points attempted, %d failed"
        % (
            name,
            args.seed,
            " (%s)" % ", ".join(flags) if flags else "",
            len(detail["pass_walls"]),
            check.attempted,
            check.failed,
        )
    )
    for failure in check.failures:
        print("  FAILED %s" % failure)
    for metric, entry in metrics.items():
        print("  %-28s %16.6g %s" % (metric, entry["value"], entry["unit"]))
    if "raw" in detail:
        print(
            "  host kernel median %.4f s against %.4f s: times above are "
            "reference-host seconds; unscaled:"
            % (statistics.median(speed.samples), hostspeed.REFERENCE_S)
        )
        for metric, value in detail["raw"].items():
            print("  %-28s %16.6g s" % (metric, value))
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": check.failed == 0,
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# the full benchmark (parent)
# ----------------------------------------------------------------------


def launch(workload, seed, seconds, trace, smoke, expected):
    """Run one repetition in a fresh child; returns its record."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--expected", expected,
    ]
    if smoke:
        command.append("--smoke")
    record = {"workload": workload, "trace": trace, "result": None, "detail": None}
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        # The child may have pool workers of its own: kill the group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("%s: timed out after %.0f s" % (workload, CHILD_TIMEOUT))
        return record
    lines = out.splitlines()
    for line in lines[:-2]:
        print(line)
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        print("%s: child exited with %s" % (workload, proc.returncode))
        return record
    record["detail"] = json.loads(lines[-2][len("detail "):])
    record["result"] = json.loads(lines[-1])
    return record


def series(runs, trace):
    """``{workload: {metric: [value per run, in run order]}}`` over the
    finished runs with this ``trace`` flag, ``fail_frac`` included."""
    out = {}
    for run in runs:
        if run["trace"] != trace or run["result"] is None:
            continue
        per = out.setdefault(run["workload"], {})
        for name, entry in run["result"]["metrics"].items():
            per.setdefault(name, []).append(entry["value"])
        per.setdefault("fail_frac", []).append(run["detail"]["fail_frac"])
    return out


def summarize(runs, spec):
    """``{workload: {metric: {unit, median, q1, q3, n}}}`` over runs."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_frac"] = "fraction"
    summary = {}
    for trace in (0, 1):
        for workload, per in series(runs, trace).items():
            for name, values in per.items():
                if trace and name == "fail_frac":
                    continue
                median, q1, q3 = quartiles(values)
                summary.setdefault(workload, {})[name] = {
                    "unit": units[name], "median": median, "q1": q1, "q3": q3,
                    "n": len(values),
                }
    return summary


def update_expected(workloads):
    expected = {
        "seed": DEFAULT_SEED,
        "engine": {
            name: os.environ.get(name, "")
            for name in ("REPRO_VECTOR", "REPRO_BATCH_MISS")
        },
    }
    for mode in ("full", "smoke"):
        expected[mode] = {}
        for workload in workloads:
            record = launch(workload, DEFAULT_SEED, 0.0, 0, mode == "smoke", "")
            if record["result"] is None or not record["result"]["correct"]:
                print("not updating %s: %s failed" % (EXPECTED, workload))
                return 1
            expected[mode][workload] = record["detail"]["digests"]
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % EXPECTED)
    return 0


def run_parent(args, spec):
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.update_expected:
        return update_expected(workloads)
    plan = [(0, w) for _ in range(args.reps) for w in workloads]
    if args.trace:
        plan += [(1, w) for w in workloads]
    runs = [
        launch(workload, args.seed, args.seconds, trace, args.smoke, args.expected)
        for trace, workload in plan
    ]
    summary = summarize(runs, spec)
    print()
    print("%-16s %-28s %14s %14s %14s %3s  %s" % (
        "workload", "metric", "median", "q1", "q3", "n", "unit"))
    for workload, per in summary.items():
        for name, s in per.items():
            print("%-16s %-28s %14.6g %14.6g %14.6g %3d  %s" % (
                workload, name, s["median"], s["q1"], s["q3"], s["n"], s["unit"]))
    ok = all(run["result"] is not None and run["result"]["correct"] for run in runs)
    if args.json:
        report = {
            "protocol": "bench-v1",
            "seed": args.seed,
            "reps": args.reps,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "runs": runs,
            "summary": summary,
        }
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.json)
    print("all outputs correct" if ok else "FAILED: some outputs are wrong")
    return 0 if ok else 1


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=" ".join(__doc__.split("\n\n")[0].split())
    )
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in spec["workloads"]],
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per repetition (default: run_seconds of "
        "BENCHMARK.json)",
    )
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run one traced repetition per workload (with --child: "
        "trace this repetition)",
    )
    parser.add_argument("--smoke", action="store_true", help="1/8 length")
    parser.add_argument("--json", help="write the full report here")
    parser.add_argument(
        "--expected", default=EXPECTED,
        help="expected digests ('' checks none)",
    )
    parser.add_argument(
        "--child", action="store_true",
        help="run one repetition of one workload in this process",
    )
    parser.add_argument(
        "--update-expected", action="store_true",
        help="rewrite expected.json at the default seed",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.child:
        if not args.workload or len(args.workload) != 1:
            parser.error("--child needs exactly one --workload")
        return run_child(args, spec)
    return run_parent(args, spec)


if __name__ == "__main__":
    sys.exit(main())
