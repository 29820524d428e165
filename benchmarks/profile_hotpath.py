"""Profile one throughput row under cProfile.

Perf PRs should start from data, not guesses: this wraps a single
simulation in cProfile and prints the hottest functions, so "what got
slower" has an answer before anything is rewritten.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/profile_hotpath.py \
        --scheme picl --bench lbm --scale 128
    PYTHONPATH=src python benchmarks/profile_hotpath.py --row picl/W2/acs
    PYTHONPATH=src python benchmarks/profile_hotpath.py \
        --row picl/hmmer --vector on --sort tottime

``--row`` profiles one of the named throughput rows (exact config the
bench times, see perf_common.make_rows and make_columnar_rows);
``--scheme/--bench/--scale`` builds an ad-hoc single-core (or, with
``--cores``, multi-core mix) row. ``--vector on|off`` pins
``REPRO_VECTOR`` so the columnar interpreter's hot path (``bulk_span``
vs ``scalar_span`` vs ``L1TagMirror.sync`` time split) can be profiled
against the scalar loop on the identical simulation. ``--miss``
profiles *only* the residual-replay windows: the profiler is switched
on around each batched miss-chain drain call and off everywhere else,
so the report shows where miss-chain time goes without the bulk hit
path drowning it out — and prints the drain's share of the wall clock,
the number the docs' Amdahl breakdown quotes. Sorting/limits mirror
``python -m repro <fig> --profile`` but this runs one row in-process,
no experiment plumbing around it.
"""

import argparse
import cProfile
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(__file__))

import perf_common  # noqa: E402
from repro.sim.config import SystemConfig  # noqa: E402


def build_row(args):
    if args.row is not None:
        rows = perf_common.make_rows() + perf_common.make_columnar_rows()
        for row in rows:
            if row[0] == args.row:
                return row
        labels = ", ".join(dict.fromkeys(r[0] for r in rows))
        raise SystemExit("unknown row %r (have: %s)" % (args.row, labels))
    config = SystemConfig().scaled(args.scale, n_cores=args.cores)
    n = config.epoch_instructions * args.epochs
    is_mix = args.cores > 1
    label = "%s/%s@%d" % (args.scheme, args.bench, args.scale)
    return (label, args.scheme, args.bench, config, n, is_mix, False)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", help="named throughput row (e.g. picl/lbm/acs)")
    parser.add_argument("--scheme", default="picl", help="scheme name")
    parser.add_argument("--bench", default="lbm", help="benchmark or mix name")
    parser.add_argument("--scale", type=int, default=128, help="config scale divisor")
    parser.add_argument("--cores", type=int, default=1, help="cores (>1 = mix run)")
    parser.add_argument("--epochs", type=int, default=4, help="epochs to simulate")
    parser.add_argument(
        "--sort", default="cumulative", help="pstats sort key (default: cumulative)"
    )
    parser.add_argument("--limit", type=int, default=30, help="rows to print")
    parser.add_argument(
        "--vector", choices=("on", "off"),
        help="pin REPRO_VECTOR for the profiled run (default: inherit the "
        "environment, i.e. the columnar interpreter on single-core rows)",
    )
    parser.add_argument(
        "--miss", action="store_true",
        help="profile only residual-replay windows: enable the profiler "
        "inside batched miss-chain drain calls and nowhere else (pins "
        "REPRO_VECTOR=1 and REPRO_BATCH_MISS=1)",
    )
    args = parser.parse_args(argv)

    # Profile real simulation work, not result-cache reads.
    os.environ.setdefault("REPRO_NO_CACHE", "1")
    if args.vector is not None:
        os.environ["REPRO_VECTOR"] = "1" if args.vector == "on" else "0"
    if args.miss:
        if args.vector == "off":
            raise SystemExit("--miss needs the columnar interpreter "
                             "(drop --vector off)")
        # The drain only exists inside the columnar interpreter with the
        # batched engine attached.
        os.environ["REPRO_VECTOR"] = "1"
        os.environ["REPRO_BATCH_MISS"] = "1"
    row = build_row(args)
    print(
        "profiling row %s (%d instructions, REPRO_VECTOR=%s%s)"
        % (
            row[0],
            row[4],
            os.environ.get("REPRO_VECTOR", "1"),
            ", drain windows only" if args.miss else "",
        )
    )
    profiler = cProfile.Profile()
    if args.miss:
        refs, elapsed, drain_stats = profile_miss_windows(profiler, row)
        print(
            "refs=%d wall=%.2fs refs/sec=%.0f" % (refs, elapsed, refs / elapsed)
        )
        if drain_stats["calls"] == 0:
            raise SystemExit(
                "no drain windows ran — the engine declined this row "
                "(banked NVM or multi-channel configs fall back to the "
                "scalar chain)"
            )
        print(
            "drain: %d window calls, %.2fs in-drain (%.0f%% of wall)"
            % (
                drain_stats["calls"],
                drain_stats["seconds"],
                100.0 * drain_stats["seconds"] / elapsed,
            )
        )
    else:
        profiler.enable()
        refs, elapsed = perf_common.run_row(row)
        profiler.disable()
        print(
            "refs=%d wall=%.2fs refs/sec=%.0f" % (refs, elapsed, refs / elapsed)
        )
    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)


def profile_miss_windows(profiler, row):
    """Run ``row`` with the profiler live only inside drain calls.

    Wraps ``MissChainEngine.make_drain`` so every drain the interpreter
    builds is bracketed by ``profiler.enable()``/``disable()``; the bulk
    hit path, window classification, and trace generation all run
    unprofiled. Returns (refs, wall seconds, {calls, seconds}) where
    ``seconds`` is wall time spent inside drain windows.
    """
    from repro.cache.miss_engine import MissChainEngine

    drain_stats = {"calls": 0, "seconds": 0.0}
    original = MissChainEngine.make_drain

    class ProfiledGen(object):
        """Bracket every resume of the multi-core drain generator.

        The multi-core loop bypasses the one-shot drain wrapper: it
        runs one generator built via ``drain.turn_gen`` and resumes it
        at every epoch and chunk boundary, so the profiler must switch
        on around each ``send`` (one resume == one drain window) rather
        than around one call.
        """

        __slots__ = ("_gen",)

        def __init__(self, gen):
            self._gen = gen

        def _bracket(self, resume):
            start = time.perf_counter()
            profiler.enable()
            try:
                return resume()
            finally:
                profiler.disable()
                drain_stats["calls"] += 1
                drain_stats["seconds"] += time.perf_counter() - start

        def __next__(self):
            return self._bracket(lambda: next(self._gen))

        def send(self, value):
            return self._bracket(lambda: self._gen.send(value))

        def close(self):
            # close() runs the generator's finally block (the deferred
            # stat flush) — still drain work, so bracket it too.
            self._bracket(self._gen.close)

    def make_profiled_drain(self, *build_args):
        drain = original(self, *build_args)

        def profiled_drain(*args):
            start = time.perf_counter()
            profiler.enable()
            try:
                return drain(*args)
            finally:
                profiler.disable()
                drain_stats["calls"] += 1
                drain_stats["seconds"] += time.perf_counter() - start

        def profiled_turn_gen(*args, **kwargs):
            return ProfiledGen(drain.turn_gen(*args, **kwargs))

        profiled_drain.turn_gen = profiled_turn_gen
        return profiled_drain

    MissChainEngine.make_drain = make_profiled_drain
    try:
        refs, elapsed = perf_common.run_row(row)
    finally:
        MissChainEngine.make_drain = original
    return refs, elapsed, drain_stats


if __name__ == "__main__":
    main()
