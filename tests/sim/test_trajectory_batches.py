"""Shared cache trajectories in batches.

Single-core points that share a trace and the cache geometry deciding
residency (a *trajectory key*) replay one scheme-free tag pass, the
trajectory the worker's trace memo keeps for that trace and geometry.
Batches are cut so that no group of them straddles two batches, and the
replayed results are exactly what each point computes on its own from
an empty memo.
"""

import pickle

from repro.experiments import fig09, fig15
from repro.sim.parallel import run_points, trace_batches, trajectory_key
from repro.sim.results import SimulationResult
from repro.trace.synthetic import clear_trace_memo


def grid(pairs):
    keys = [key for key, _point in pairs]
    points = [point for _key, point in pairs]
    return keys, points


def fingerprint(result):
    return (
        result.scheme_name,
        result.cycles,
        result.instructions,
        result.per_core_cycles,
        result.stats_dict(),
    )


def test_fig15_batches_hold_one_llc_size():
    keys, points = grid(fig15.points("ci"))
    batches = trace_batches(points, range(len(points)))
    assert sorted(i for batch in batches for i in batch) == list(range(len(points)))
    for batch in batches:
        # (multiplier, benchmark) names one LLC size of one trace.
        assert len({keys[i][:2] for i in batch}) == 1
        assert len({trajectory_key(points[i]) for i in batch}) == 1
        assert len(batch) == 1 + len(fig15.SCHEMES)


def test_fig15_replayed_batches_equal_point_by_point_runs():
    keys, points = grid(fig15.points("ci", benchmarks=["gcc"], epochs=1))
    batched = run_points(points, jobs=1)
    assert {result.engine for result in batched} == {"trajectory"}
    for point, result in zip(points, batched):
        clear_trace_memo()
        alone = point.execute()
        assert alone.engine == "trajectory"
        assert fingerprint(result) == fingerprint(alone)


def test_fig09_grid_runs_on_the_trajectory_engine():
    # The pool workers' engine choice is visible only through the
    # results they ship back.
    _keys, points = grid(fig09.points("ci", epochs=1))
    results = run_points(points, jobs=2)
    assert [result.engine for result in results] == ["trajectory"] * len(points)


def test_results_pickled_without_an_engine_still_load():
    (point,) = grid(fig09.points("ci", benchmarks=["gamess"], epochs=1))[1][:1]
    result = point.execute()
    del result.engine  # what a result cached before the field reads like
    loaded = pickle.loads(pickle.dumps(result))
    assert loaded.engine is None
    assert isinstance(loaded, SimulationResult)
    assert fingerprint(loaded) == fingerprint(result)
