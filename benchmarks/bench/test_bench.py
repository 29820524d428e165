"""Self-test of the benchmark on ``--smoke`` runs (1/8 length)::

    PYTHONPATH=src python -m pytest benchmarks/bench -q
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import compare
import hostspeed
from run import EXPECTED, OUT, load_spec

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One untraced and one traced smoke repetition of every workload."""
    path = tmp_path_factory.mktemp("bench") / "report.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--reps", "1", "--trace",
         "--seconds", "1", "--json", str(path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(path) as handle:
        return json.load(handle)


def test_every_metric_is_emitted_with_its_unit(report):
    spec = load_spec()
    ran = set()
    for run in report["runs"]:
        wanted = spec["per_layer" if run["trace"] else "end_to_end"]
        metrics = run["result"]["metrics"]
        assert sorted(metrics) == sorted(m["name"] for m in wanted)
        for m in wanted:
            assert metrics[m["name"]]["unit"] == m["unit"]
        ran.add((run["workload"], run["trace"]))
    names = [w["name"] for w in spec["workloads"]]
    assert ran == {(name, trace) for name in names for trace in (0, 1)}


def test_no_point_fails(report):
    for run in report["runs"]:
        assert run["result"]["correct"], run["detail"]["failures"]
        assert run["result"]["attempted"] >= 1
        assert run["detail"]["fail_frac"] == 0


def test_drained_refs_never_exceed_total_refs(report):
    for run in report["runs"]:
        if run["trace"]:
            metrics = run["result"]["metrics"]
            drained = metrics["miss_engine.drained_refs"]["value"]
            assert drained <= metrics["sim.refs"]["value"]


def _trace_records(workload):
    with open(os.path.join(OUT, "trace-%s.jsonl" % workload)) as handle:
        return [json.loads(line) for line in handle]


@pytest.mark.parametrize("workload", [w["name"] for w in load_spec()["workloads"]])
def test_spans_nest_inside_their_parents(report, workload):
    records = _trace_records(workload)
    assert records
    duration = {}
    children = {}
    for record in records:
        assert record["self_s"] >= -1e-9, record
        span = record.get("total_s", record.get("end", 0) - record.get("start", 0))
        duration[record["id"]] = span
        children[record["parent"]] = children.get(record["parent"], 0.0) + span
    for record in records:
        node = record["id"]
        covered = children.get(node, 0.0)
        assert covered <= duration[node] + 1e-9, record
        assert abs(duration[node] - covered - record["self_s"]) < 1e-6, record
    runs = [r["id"] for r in records if r["name"] == "sim.run"]
    if workload != "fig-sweep":  # its simulations run in pool workers
        assert runs


def test_tampered_expected_digest_counts_as_failure(tmp_path):
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    points = expected["smoke"]["sc-hit"]
    label = sorted(points)[0]
    points[label] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    proc = subprocess.run(
        [sys.executable, RUN, "--child", "--workload", "sc-hit", "--smoke",
         "--seconds", "0", "--trace", "0", "--expected", str(tampered)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json_line(proc.stdout)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_host_speed_scales_by_the_bracketing_probes(monkeypatch):
    speed = hostspeed.HostSpeed()
    speed.samples.append(2 * hostspeed.REFERENCE_S)
    monkeypatch.setattr(
        speed, "probe", lambda: speed.samples.append(4 * hostspeed.REFERENCE_S)
    )
    value, raw, factor = speed.timed(lambda: "done")
    assert value == "done" and raw >= 0
    # Probes three times slower than the reference: a third of the seconds.
    assert factor == pytest.approx(1 / 3)


def test_compare_passes_a_report_against_itself_and_catches_a_digest(report):
    spec = load_spec()
    assert compare.compare(report, report, spec) == 0
    changed = copy.deepcopy(report)
    digests = changed["runs"][0]["detail"]["digests"]
    digests[sorted(digests)[0]] = "0" * 64
    assert compare.compare(report, changed, spec) >= 1
