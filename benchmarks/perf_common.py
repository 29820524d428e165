"""Shared row definitions and protocol for the throughput microbenchmark.

One place defines the measured workload rows so the pytest bench
(``test_perf_throughput.py``), the CI regression check
(``check_perf_regression.py``), and the profiler wrapper
(``profile_hotpath.py``) all time exactly the same simulations.

Rows come in two groups:

* the historical rows (scale=128; three single-core workloads plus the
  eight-core W2 mix) that every PR's table has carried, and
* two ACS-heavy rows (scale=16, oversized LLC, short epochs) where the
  persist scan dominates: a single-core lbm run with 4 MB of LLC and
  2048-instruction epochs, and an eight-core W2 mix with 4 MB of LLC per
  core and 512-instruction epochs. These are the rows that regress if
  the EID-index scan paths ever fall back to sweeping the cache.

A third group (``make_columnar_rows``) times the same simulation under
``REPRO_VECTOR=0`` and ``=1`` strictly interleaved, producing the
scalar-vs-columnar matrix in ``BENCH_columnar.json`` — single-core
plain rows only, since the columnar interpreter serves exactly one
core.

A fourth group (``make_misschain_rows``) reuses the columnar grid but
ordered miss-heavy first, timing ``REPRO_BATCH_MISS=0`` vs ``=1`` with
the columnar interpreter pinned on for both sides — the batched
miss-chain matrix in ``BENCH_misschain.json``.

The protocol is best-of-N passes per row (noise on shared hardware is
strictly additive, so the fastest pass is the stable statistic), fixed
seeds, and rates in refs/sec. ``overall`` aggregates every row: summed
references over summed best-pass times.
"""

import json
import os
import time

from repro.common.units import MB
from repro.sim.config import SystemConfig
from repro.sim.sweep import run_mix, run_single

SEED = 20180101

#: Schema tag for BENCH_scan.json, bumped when rows/protocol change.
PROTOCOL = "throughput-v2"

#: Schema tag for BENCH_columnar.json (the REPRO_VECTOR=0 vs =1 matrix).
COLUMNAR_PROTOCOL = "columnar-v1"

#: Schema tag for BENCH_misschain.json (REPRO_BATCH_MISS=0 vs =1, both
#: under the columnar interpreter).
MISSCHAIN_PROTOCOL = "misschain-v1"


def make_rows():
    """The measured rows: (label, scheme, workload, config, n, is_mix, acs)."""
    cfg = SystemConfig().scaled(128)
    n = cfg.epoch_instructions * 4
    cfg8 = SystemConfig().scaled(128, n_cores=8)
    n8 = cfg8.epoch_instructions * 2
    acs1 = SystemConfig().scaled(
        16, llc_size_per_core=4 * MB, epoch_instructions=2048
    )
    acs8 = SystemConfig().scaled(
        16, n_cores=8, llc_size_per_core=4 * MB, epoch_instructions=512
    )
    return [
        ("ideal/gcc", "ideal", "gcc", cfg, n, False, False),
        ("picl/gcc", "picl", "gcc", cfg, n, False, False),
        ("picl/lbm", "picl", "lbm", cfg, n, False, False),
        ("picl/W2", "picl", "W2", cfg8, n8, True, False),
        ("picl/lbm/acs", "picl", "lbm", acs1, 2048 * 192, False, True),
        ("picl/W2/acs", "picl", "W2", acs8, 2048 * 96, True, True),
    ]


def make_columnar_rows():
    """The dual-mode (scalar vs columnar) rows: plain single-core only.

    The columnar interpreter attaches to exactly one in-order core, so
    every row here is single-core at the historical scale 128. The rows
    deliberately span the classifier's regimes: gcc (miss-heavy; the
    self-tuning controller spends most refs in disengaged scalar
    bursts), lbm and h264ref (long same-line runs; the run-based cost
    model), and hmmer on both ideal and picl (hit-dominated; the bulk
    path carries nearly every window and the speedup is largest).
    """
    cfg = SystemConfig().scaled(128)
    n = cfg.epoch_instructions * 4
    return [
        ("ideal/gcc", "ideal", "gcc", cfg, n, False, False),
        ("picl/gcc", "picl", "gcc", cfg, n, False, False),
        ("picl/lbm", "picl", "lbm", cfg, n, False, False),
        ("picl/h264ref", "picl", "h264ref", cfg, n, False, False),
        ("ideal/hmmer", "ideal", "hmmer", cfg, n, False, False),
        ("picl/hmmer", "picl", "hmmer", cfg, n, False, False),
    ]


def run_row(row):
    """Run one row once; returns (references, elapsed seconds)."""
    _label, scheme, workload, config, n, is_mix, _acs = row
    start = time.perf_counter()
    if is_mix:
        result = run_mix(config, scheme, workload, n, seed=SEED)
    else:
        result = run_single(config, scheme, workload, n, seed=SEED)
    elapsed = time.perf_counter() - start
    return result.stat("loads") + result.stat("stores"), elapsed


def make_misschain_rows():
    """The batched-miss-chain matrix rows, gcc (miss-heavy) first.

    Same single-core grid as :func:`make_columnar_rows`, but ordered by
    how much the row exercises the miss chain: the gcc rows lead because
    they are the ones the batched engine exists for (sparse access
    pattern, most references reach L2/LLC/NVM), then the long-run rows
    (lbm, h264ref), then hit-dominated hmmer where the drain is nearly
    idle and the matrix mostly checks that the engine costs nothing.
    """
    rows = {row[0]: row for row in make_columnar_rows()}
    order = [
        "picl/gcc",
        "ideal/gcc",
        "picl/lbm",
        "picl/h264ref",
        "picl/hmmer",
        "ideal/hmmer",
    ]
    return [rows[label] for label in order]


def run_row_engine(row, batched):
    """Run one row with the batched miss-chain engine forced on or off.

    Both sides run under the columnar interpreter (``REPRO_VECTOR=1``):
    the engine is the interpreter's residual-miss drain, so the
    meaningful ratio is batched-drain vs scalar-replay *within* columnar
    mode. Like ``REPRO_VECTOR``, ``REPRO_BATCH_MISS`` is read when the
    simulation runs, so it is pinned around the run and restored after.
    """
    saved = {
        name: os.environ.get(name)
        for name in ("REPRO_VECTOR", "REPRO_BATCH_MISS")
    }
    os.environ["REPRO_VECTOR"] = "1"
    os.environ["REPRO_BATCH_MISS"] = "1" if batched else "0"
    try:
        return run_row(row)
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def measure_misschain(passes=2, rows=None):
    """Measure each row with the miss-chain engine off and on, interleaved.

    The same protocol as :func:`measure_columnar`: every pass runs both
    modes back to back per row so they see identical machine conditions,
    and the fastest pass per mode is kept. Returns (measurements,
    overall); ``speedup`` is scalar-chain time over batched-engine time.
    """
    if rows is None:
        rows = make_misschain_rows()
    measurements = []
    totals = {"refs": 0, "scalar": 0.0, "batched": 0.0}
    for row in rows:
        refs = None
        best = {False: None, True: None}
        for _ in range(passes):
            for batched in (False, True):
                row_refs, elapsed = run_row_engine(row, batched)
                refs = row_refs
                if best[batched] is None or elapsed < best[batched]:
                    best[batched] = elapsed
        measurements.append(
            {
                "label": row[0],
                "refs": refs,
                "scalar_seconds": best[False],
                "batched_seconds": best[True],
                "scalar_refs_per_sec": refs / best[False],
                "batched_refs_per_sec": refs / best[True],
                "speedup": best[False] / best[True],
            }
        )
        totals["refs"] += refs
        totals["scalar"] += best[False]
        totals["batched"] += best[True]
    overall = {
        "scalar_refs_per_sec": totals["refs"] / totals["scalar"],
        "batched_refs_per_sec": totals["refs"] / totals["batched"],
        "speedup": totals["scalar"] / totals["batched"],
    }
    return measurements, overall


def misschain_payload(measurements, overall, note=""):
    """The machine-readable BENCH_misschain.json payload."""
    return {
        "protocol": MISSCHAIN_PROTOCOL,
        "seed": SEED,
        "note": note,
        "rows": {
            m["label"]: {
                "refs": m["refs"],
                "scalar_seconds": round(m["scalar_seconds"], 4),
                "batched_seconds": round(m["batched_seconds"], 4),
                "scalar_refs_per_sec": round(m["scalar_refs_per_sec"]),
                "batched_refs_per_sec": round(m["batched_refs_per_sec"]),
                "speedup": round(m["speedup"], 3),
            }
            for m in measurements
        },
        "overall": {
            "scalar_refs_per_sec": round(overall["scalar_refs_per_sec"]),
            "batched_refs_per_sec": round(overall["batched_refs_per_sec"]),
            "speedup": round(overall["speedup"], 3),
        },
    }


def run_row_vector(row, vector):
    """Run one row with the columnar interpreter forced on or off.

    ``REPRO_VECTOR`` is read when the cache hierarchy is built, so it
    must be pinned in the environment before the simulation is
    constructed (and restored afterwards, so one measurement cannot
    leak its mode into the next).
    """
    previous = os.environ.get("REPRO_VECTOR")
    os.environ["REPRO_VECTOR"] = "1" if vector else "0"
    try:
        return run_row(row)
    finally:
        if previous is None:
            del os.environ["REPRO_VECTOR"]
        else:
            os.environ["REPRO_VECTOR"] = previous


def measure_columnar(passes=2, rows=None):
    """Measure each row in both modes, strictly interleaved.

    Every pass runs scalar then columnar back to back per row, so both
    modes see the same machine conditions; the fastest pass per mode is
    kept (noise is additive). Returns (measurements, overall) where each
    measurement carries both rates and their ratio, and ``overall``
    aggregates summed refs over summed best times per mode.
    """
    if rows is None:
        rows = make_columnar_rows()
    measurements = []
    totals = {"refs": 0, "scalar": 0.0, "columnar": 0.0}
    for row in rows:
        refs = None
        best = {False: None, True: None}
        for _ in range(passes):
            for vector in (False, True):
                row_refs, elapsed = run_row_vector(row, vector)
                refs = row_refs
                if best[vector] is None or elapsed < best[vector]:
                    best[vector] = elapsed
        measurements.append(
            {
                "label": row[0],
                "refs": refs,
                "scalar_seconds": best[False],
                "columnar_seconds": best[True],
                "scalar_refs_per_sec": refs / best[False],
                "columnar_refs_per_sec": refs / best[True],
                "speedup": best[False] / best[True],
            }
        )
        totals["refs"] += refs
        totals["scalar"] += best[False]
        totals["columnar"] += best[True]
    overall = {
        "scalar_refs_per_sec": totals["refs"] / totals["scalar"],
        "columnar_refs_per_sec": totals["refs"] / totals["columnar"],
        "speedup": totals["scalar"] / totals["columnar"],
    }
    return measurements, overall


def columnar_payload(measurements, overall, note=""):
    """The machine-readable BENCH_columnar.json payload."""
    return {
        "protocol": COLUMNAR_PROTOCOL,
        "seed": SEED,
        "note": note,
        "rows": {
            m["label"]: {
                "refs": m["refs"],
                "scalar_seconds": round(m["scalar_seconds"], 4),
                "columnar_seconds": round(m["columnar_seconds"], 4),
                "scalar_refs_per_sec": round(m["scalar_refs_per_sec"]),
                "columnar_refs_per_sec": round(m["columnar_refs_per_sec"]),
                "speedup": round(m["speedup"], 3),
            }
            for m in measurements
        },
        "overall": {
            "scalar_refs_per_sec": round(overall["scalar_refs_per_sec"]),
            "columnar_refs_per_sec": round(overall["columnar_refs_per_sec"]),
            "speedup": round(overall["speedup"], 3),
        },
    }


def measure(passes=2, rows=None):
    """Run each row ``passes`` times, keep its fastest pass.

    Returns (measurements, overall refs/sec) where each measurement is a
    dict with label/refs/seconds/refs_per_sec/acs_heavy. ``overall`` is
    summed refs over summed best times across every row.
    """
    if rows is None:
        rows = make_rows()
    measurements = []
    total_refs = 0
    total_time = 0.0
    for row in rows:
        refs = None
        best = None
        for _ in range(passes):
            row_refs, elapsed = run_row(row)
            refs = row_refs
            if best is None or elapsed < best:
                best = elapsed
        measurements.append(
            {
                "label": row[0],
                "refs": refs,
                "seconds": best,
                "refs_per_sec": refs / best,
                "acs_heavy": row[6],
            }
        )
        total_refs += refs
        total_time += best
    return measurements, total_refs / total_time


def bench_payload(measurements, overall, baseline=None, note=""):
    """The machine-readable BENCH_scan.json payload."""
    payload = {
        "protocol": PROTOCOL,
        "seed": SEED,
        "note": note,
        "rows": {
            m["label"]: {
                "refs": m["refs"],
                "seconds": round(m["seconds"], 4),
                "refs_per_sec": round(m["refs_per_sec"]),
                "acs_heavy": m["acs_heavy"],
            }
            for m in measurements
        },
        "overall_refs_per_sec": round(overall),
    }
    if baseline is not None:
        payload["baseline"] = baseline
    return payload


def write_bench_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench_json(path):
    with open(path) as handle:
        return json.load(handle)
