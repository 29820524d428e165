"""Crash-injection recovery validation: the correctness sweep.

Every other experiment measures *performance*; this one checks the claim
performance is worthless without — that each scheme's recovery rebuilds a
consistent checkpoint from any crash point. The fault harness
(:mod:`repro.fault.harness`) crashes real simulations at semantic events
(epoch boundaries ±k references, during an undo-buffer flush, between an
LLC eviction and its log write, mid-ACS scan, a second crash nested
inside recovery), recovers, and compares the image token-for-token
against the architectural oracle snapshot of the recovered commit. NVM
corruption rows (torn superblock writes, bit flips in the log region)
assert *detection*: recovery must raise ``RecoveryError``, never silently
mis-recover.

The sweep is gating: ``main`` raises on any failing cell, so CI fails if
a change breaks crash consistency. Cells need the live post-crash
``Simulation`` object, so they run serially in-process (``--jobs`` is
accepted for CLI uniformity but unused); cells that crash the same run
share one simulation, each validating on a restored copy of its durable
state, and the summary line counts the simulations behind the cells.
The runs of one trace and cache geometry replay one scheme-free cache
trajectory, owned by the trace memo and living as long as its entry, so
each trace is tagged once.
"""

import sys

from repro.common.errors import RecoveryError
from repro.experiments import parse_experiment_argv
from repro.experiments.presets import get_preset
from repro.experiments.report import format_table, print_header
from repro.fault.harness import run_crash_matrix

#: Oracle snapshots kept per run; must cover every commit the longest
#: cell (10 epochs, short-epoch ACS override) can produce.
REFERENCE_DEPTH = 512


def run(preset=None, full=False, benchmark="gcc", epochs=8):
    """Run the crash matrix at a preset's scale; returns the outcomes."""
    preset = get_preset(preset)
    config = preset.config(track_reference=True, reference_depth=REFERENCE_DEPTH)
    return run_crash_matrix(
        config,
        benchmark=benchmark,
        epochs=epochs,
        seed=preset.seed,
        full=full,
    )


def format_result(outcomes):
    """Render the matrix as a text table, one validated cell per row."""
    rows = []
    for outcome in outcomes:
        rows.append(
            [
                outcome.event,
                outcome.scheme,
                outcome.status,
                "yes" if outcome.triggered else "NO",
                "-" if outcome.commit_id is None else str(outcome.commit_id),
                outcome.detail[:48],
            ]
        )
    return format_table(
        ["crash point", "scheme", "status", "crashed", "commit", "detail"],
        rows,
    )


def main(argv=None):
    """Print the matrix; raise ``RecoveryError`` if any cell failed."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    full = "--full" in argv
    argv = [arg for arg in argv if arg != "--full"]
    preset_name, _jobs = parse_experiment_argv(argv)
    preset = get_preset(preset_name)
    print_header(
        "Crash-injection recovery validation (%s matrix)"
        % ("full" if full else "quick"),
        preset,
        preset.config(),
    )
    outcomes = run(preset, full=full)
    print(format_result(outcomes))
    failures = [o for o in outcomes if not o.passed]
    untriggered = [o for o in outcomes if not o.triggered]
    print()
    print(
        "%d cells from %d simulations: %d ok, %d corruption detected, "
        "%d failed, %d untriggered"
        % (
            len(outcomes),
            len({o.simulation for o in outcomes}),
            sum(1 for o in outcomes if o.status == "ok"),
            sum(1 for o in outcomes if o.status == "detected"),
            len(failures),
            len(untriggered),
        )
    )
    if failures or untriggered:
        # An untriggered cell is a vacuous pass — the crash window never
        # opened, so nothing was validated. Gate on it like a failure.
        raise RecoveryError(
            "crash matrix failed %d cell(s), %d untriggered: %s"
            % (
                len(failures),
                len(untriggered),
                "; ".join(
                    "%s/%s: %s" % (o.scheme, o.event, o.detail or o.status)
                    for o in failures
                )
                or "; ".join(
                    "%s/%s untriggered" % (o.scheme, o.event)
                    for o in untriggered
                ),
            )
        )


if __name__ == "__main__":
    main()
