"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment modules plus a few utilities:

.. code-block:: console

    $ python -m repro list                 # what can I run?
    $ python -m repro fig09 --preset quick # regenerate Fig 9's table
    $ python -m repro fig09 --jobs 4       # fan runs over 4 worker processes
    $ python -m repro calibrate            # workload-profile diagnostics
    $ python -m repro recovery             # recovery-latency/availability study

Runs are cached on disk (``.repro_cache/``; see repro.sim.parallel), so a
repeated figure at the same preset costs no simulation. ``--jobs``
defaults to the ``REPRO_JOBS`` environment variable, then 1; results are
bit-identical at any jobs count. ``--profile`` wraps the command in
cProfile and prints the 25 hottest functions by cumulative time.

The sweep service (see repro.service) gets three more commands:

.. code-block:: console

    $ python -m repro serve --jobs 4       # run the scheduler daemon
    $ python -m repro submit fig09 --preset ci   # batch a figure to it
    $ python -m repro status               # queues/events/cache snapshot
"""

import argparse
import sys

from repro import __version__


def _experiment_commands():
    from repro.experiments import (
        calibrate,
        fig09,
        fig10,
        fig11,
        fig12,
        fig13,
        fig14,
        fig15,
        fig16,
        recovery_study,
        recovery_validation,
        table3,
    )

    return {
        "fault-sweep": (
            recovery_validation.main,
            "crash-injection recovery validation matrix",
        ),
        "fig09": (fig09.main, "single-core execution time (Fig 9)"),
        "fig10": (fig10.main, "8-core multiprogram mixes (Fig 10)"),
        "fig11": (fig11.main, "commits per epoch interval (Fig 11)"),
        "fig12": (fig12.main, "NVM operation breakdown (Fig 12)"),
        "fig13": (fig13.main, "undo log size (Fig 13)"),
        "fig14": (fig14.main, "very long epochs (Fig 14)"),
        "fig15": (fig15.main, "LLC size sensitivity (Fig 15)"),
        "fig16": (fig16.main, "NVM write-latency sensitivity (Fig 16)"),
        "table3": (table3.main, "hardware overheads (Table III)"),
        "calibrate": (calibrate.main, "workload-profile diagnostics"),
        "recovery": (recovery_study.main, "recovery latency & availability"),
    }


def build_parser():
    """Build the argparse parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PiCL reproduction (MICRO 2018) experiment runner",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available commands")
    for name, (_main, help_text) in _experiment_commands().items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--preset",
            default=None,
            help="system scale preset: ci, quick (default), or full",
        )
        sub.add_argument(
            "--jobs",
            default=None,
            help="worker processes for simulation points: a count, or "
            "'auto' for one per CPU (default: $REPRO_JOBS, then 1)",
        )
        sub.add_argument(
            "--profile",
            action="store_true",
            help="run under cProfile and print the top 25 functions "
            "by cumulative time (in-process runs only; use --jobs 1)",
        )
        sub.add_argument(
            "--verbose",
            action="store_true",
            help="print result-cache statistics (hits, misses, corrupt "
            "entries quarantined) after the command",
        )
        if name == "fault-sweep":
            sub.add_argument(
                "--full",
                action="store_true",
                help="run the widened crash matrix (more occurrences, "
                "boundary offsets, and corruption injectors)",
            )
    _add_service_commands(subparsers)
    return parser


def _add_endpoint_arguments(sub):
    sub.add_argument(
        "--socket",
        default=None,
        help="unix socket path (default: <spool>/service.sock)",
    )
    sub.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="use localhost TCP instead of a unix socket",
    )


def _add_service_commands(subparsers):
    serve = subparsers.add_parser(
        "serve", help="run the sweep-service scheduler daemon"
    )
    _add_endpoint_arguments(serve)
    serve.add_argument(
        "--spool",
        default=None,
        help="spool directory for the batch spool, the event log and, "
        "under REPRO_NO_CACHE, the result store (default: .repro_service)",
    )
    serve.add_argument(
        "--jobs",
        default=None,
        help="concurrent worker processes (a count or 'auto'; "
        "default: $REPRO_JOBS, then 1)",
    )
    submit = subparsers.add_parser(
        "submit", help="submit a figure batch to a running daemon"
    )
    submit.add_argument(
        "figure", help="a registered figure batch (e.g. fig09, fig15)"
    )
    _add_endpoint_arguments(submit)
    submit.add_argument("--preset", default=None)
    submit.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated benchmark subset (default: the figure's)",
    )
    submit.add_argument("--epochs", type=int, default=None)
    status = subparsers.add_parser(
        "status", help="print a running daemon's status snapshot"
    )
    _add_endpoint_arguments(status)


def _parse_tcp(value):
    if value is None:
        return None
    host, _sep, port = value.rpartition(":")
    return (host or "127.0.0.1", int(port))


def _serve_main(args):
    import asyncio

    from repro.service import SweepService, default_socket_path

    tcp = _parse_tcp(args.tcp)
    service = SweepService(
        spool_dir=args.spool,
        socket_path=args.socket,
        tcp=tcp,
        jobs=args.jobs,
    )
    endpoint = (
        "%s:%d" % tcp if tcp else (args.socket or default_socket_path(args.spool))
    )
    print(
        "repro: sweep service listening on %s (%d jobs, spool %s)"
        % (endpoint, service.scheduler.jobs, service.spool_dir),
        file=sys.stderr,
    )
    return asyncio.run(service.run())


def _submit_main(args):
    from repro.experiments.batches import get_figure
    from repro.experiments.presets import get_preset
    from repro.experiments.report import print_header
    from repro.service import ServiceClient

    figure = get_figure(args.figure)
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    pairs = figure.points(args.preset, benchmarks=benchmarks, epochs=args.epochs)
    with ServiceClient(
        socket_path=args.socket, tcp=_parse_tcp(args.tcp)
    ) as client:
        results = client.submit_points([point for _key, point in pairs])
        summary = client.last_summary
    results_by_key = {
        key: result for (key, _point), result in zip(pairs, results)
    }
    preset = get_preset(args.preset)
    print_header(figure.title, preset, preset.config())
    print(figure.render(results_by_key, args.preset))
    if summary is not None:
        print(
            "repro: batch %s: %s" % (summary["batch"], summary["sources"]),
            file=sys.stderr,
        )
    return 0


def _status_main(args):
    import json

    from repro.service import ServiceClient

    with ServiceClient(
        socket_path=args.socket, tcp=_parse_tcp(args.tcp)
    ) as client:
        print(json.dumps(client.status(), indent=2, sort_keys=True))
    return 0


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    argv = argv if argv is not None else sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = _experiment_commands()
    if args.command in (None, "list"):
        print("available commands:")
        for name, (_main, help_text) in sorted(commands.items()):
            print("  %-10s %s" % (name, help_text))
        print("  %-10s %s" % ("serve", "run the sweep-service daemon"))
        print("  %-10s %s" % ("submit", "submit a figure batch to the daemon"))
        print("  %-10s %s" % ("status", "daemon status snapshot"))
        print("  %-10s %s" % ("list", "this listing"))
        return 0
    if args.command == "serve":
        return _serve_main(args)
    if args.command == "submit":
        return _submit_main(args)
    if args.command == "status":
        return _status_main(args)
    command_main, _help = commands[args.command]
    command_args = [args.preset] if args.preset else []
    if getattr(args, "jobs", None):
        command_args += ["--jobs", args.jobs]
    if getattr(args, "full", False):
        command_args.append("--full")
    verbose = getattr(args, "verbose", False)
    if getattr(args, "profile", False):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            command_main(command_args)
        finally:
            profiler.disable()
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
            if verbose:
                _print_cache_stats()
        return 0
    try:
        command_main(command_args)
    finally:
        if verbose:
            _print_cache_stats()
    return 0


def _print_cache_stats():
    from repro.sim.parallel import ResultCache

    print(ResultCache.summary(), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
