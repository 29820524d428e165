"""End-to-end daemon tests: real subprocess, real sockets, real workers.

Each test spawns ``python -m repro serve`` against a private spool and a
short unix-socket path (AF_UNIX caps paths at ~107 bytes, so the socket
lives in its own ``/tmp`` directory rather than pytest's deep tmp tree),
then talks to it with :class:`repro.service.client.ServiceClient` —
exactly the production transport.

The acceptance properties of the sweep service are asserted here:

* two clients submitting the same batch concurrently → every digest is
  executed exactly once (read back from the durable event log), and both
  clients receive results bit-identical to an in-process serial
  ``run_points`` of the same points;
* a warm resubmission is answered entirely from the result store with
  zero new executions;
* SIGKILL of the whole daemon mid-batch loses nothing: a restarted
  daemon on the same spool recovers the batch, finishes the remaining
  points, and never re-executes a completed digest — with the shared
  cache as its result store, and with ``<spool>/results`` under
  ``REPRO_NO_CACHE``;
* a point the scheduler cannot digest is refused with an ``error`` and
  never spooled, and a spooled one is dropped as ``spool_corrupt`` on
  restart.
"""

import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

import repro
from helpers import GatedPoint
from repro.service.client import ServiceClient, wait_until_ready
from repro.service.events import executions_per_digest, read_events
from repro.sim.config import SystemConfig
from repro.sim.parallel import (
    PointExecutionError,
    RunPoint,
    point_digest,
    run_points,
)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
#: The tests directory, where the daemon unpickles GatedPoint from.
TESTS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIG = SystemConfig().scaled(512)
N = CONFIG.epoch_instructions


def make_points(*seeds, n_instructions=N, scheme="picl"):
    return [
        RunPoint.single(CONFIG, scheme, "gcc", n_instructions, seed)
        for seed in seeds
    ]


def fingerprint(result):
    """Counters that must be bit-identical across execution modes."""
    return (
        result.scheme_name,
        result.cycles,
        result.instructions,
        tuple(sorted(result.stats.items())),
    )


class Daemon:
    """A ``repro serve`` subprocess bound to a private spool + socket."""

    def __init__(self, jobs=2, no_cache=""):
        # Short base dir: the unix socket path must fit in sun_path.
        self.home = tempfile.mkdtemp(prefix="rsvc-", dir="/tmp")
        self.spool = os.path.join(self.home, "spool")
        self.socket = os.path.join(self.home, "s.sock")
        self.cache_dir = os.path.join(self.home, "cache")
        self.jobs = jobs
        #: The daemon's REPRO_NO_CACHE: "" uses the shared cache at
        #: ``cache_dir``; "1" makes ``<spool>/results`` the result store.
        self.no_cache = no_cache
        self.proc = None

    @property
    def events_path(self):
        return os.path.join(self.spool, "events.jsonl")

    def start(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            (SRC_DIR, TESTS_DIR, env.get("PYTHONPATH", ""))
        )
        env["REPRO_NO_CACHE"] = self.no_cache  # conftest sets "1"
        env["REPRO_CACHE_DIR"] = self.cache_dir
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--spool",
                self.spool,
                "--socket",
                self.socket,
                "--jobs",
                str(self.jobs),
            ],
            env=env,
            cwd=self.home,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        wait_until_ready(socket_path=self.socket, timeout=60)
        return self

    def client(self):
        return ServiceClient(socket_path=self.socket)

    def kill(self):
        """SIGKILL — the crash under test, nothing graceful about it."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
                self.proc.wait(timeout=30)
            except Exception:
                self.kill()
        self.proc = None

    def cleanup(self):
        self.stop()
        shutil.rmtree(self.home, ignore_errors=True)


@pytest.fixture
def daemon_factory():
    daemons = []

    def factory(jobs=2, no_cache=""):
        daemon = Daemon(jobs=jobs, no_cache=no_cache).start()
        daemons.append(daemon)
        return daemon

    yield factory
    for daemon in daemons:
        daemon.cleanup()


class TestConcurrentClients:
    def test_dedupe_and_bit_identical_results(self, daemon_factory):
        points = make_points(1, 2) + make_points(1, 2, scheme="journaling")
        serial = [fingerprint(r) for r in run_points(points)]
        daemon = daemon_factory(jobs=2)

        outcomes = {}

        def submit(name):
            with daemon.client() as client:
                results = client.submit_points(points)
                outcomes[name] = (
                    [fingerprint(r) for r in results],
                    client.last_sources,
                )

        threads = [
            threading.Thread(target=submit, args=(name,))
            for name in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()

        # Both clients got the full batch, bit-identical to serial.
        assert outcomes["alice"][0] == serial
        assert outcomes["bob"][0] == serial
        # The durable event log shows exactly one execution per digest.
        counts = executions_per_digest(read_events(daemon.events_path))
        assert counts == {point_digest(p): 1 for p in points}
        # Between the two clients, every point was deduped one way or
        # another: the totals add up to exactly one execution's worth of
        # "queued" plus joins/store hits for the other client.
        sources = [outcomes["alice"][1], outcomes["bob"][1]]
        assert sum(s["queued"] for s in sources) == len(points)
        assert sum(s["joined"] + s["cache"] for s in sources) == len(points)

        # Warm resubmission: answered entirely from the store, with
        # zero new executions and sub-second latency.
        t0 = time.monotonic()
        with daemon.client() as client:
            warm = client.submit_points(points)
            warm_sources = client.last_sources
        elapsed = time.monotonic() - t0
        assert [fingerprint(r) for r in warm] == serial
        assert warm_sources["cache"] == len(points)
        counts_after = executions_per_digest(read_events(daemon.events_path))
        assert counts_after == counts
        assert elapsed < 5.0, "warm resubmit took %.2fs" % elapsed

    def test_submit_figure_keyed_results(self, daemon_factory):
        daemon = daemon_factory(jobs=2)
        with daemon.client() as client:
            results = client.submit_figure(
                "fig09", preset="ci", benchmarks=["gcc"], epochs=1
            )
        assert results
        for (benchmark, scheme), result in results.items():
            assert benchmark == "gcc"
            assert result.scheme_name == scheme
        schemes = {scheme for _benchmark, scheme in results}
        assert "picl" in schemes and "ideal" in schemes


class TestCrashRecovery:
    def test_daemon_sigkill_mid_batch_loses_nothing(self, daemon_factory):
        self.sigkill_mid_batch_loses_nothing(daemon_factory, no_cache="")

    def test_daemon_sigkill_mid_batch_loses_nothing_without_shared_cache(
        self, daemon_factory
    ):
        # Restart dedupe comes from <spool>/results alone: no shared
        # cache exists for the restarted daemon to answer from.
        daemon = self.sigkill_mid_batch_loses_nothing(
            daemon_factory, no_cache="1"
        )
        assert not os.path.exists(daemon.cache_dir)
        assert os.listdir(os.path.join(daemon.spool, "results"))

    def sigkill_mid_batch_loses_nothing(self, daemon_factory, no_cache):
        # Every point after the first waits for a gate file that appears
        # only once the daemon is dead, so with jobs=1 the daemon is
        # provably mid-batch — the first point done, the rest not — when
        # the SIGKILL lands.
        plain = make_points(1, 2, 3, 4)
        serial = [fingerprint(r) for r in run_points(plain)]
        daemon = daemon_factory(jobs=1, no_cache=no_cache)
        gate = os.path.join(daemon.home, "gate")
        points = plain[:1] + [
            GatedPoint(**vars(p), gate=gate) for p in plain[1:]
        ]

        failure = []

        def doomed_submit():
            try:
                with daemon.client() as client:
                    client.submit_points(points)
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                failure.append(exc)

        thread = threading.Thread(target=doomed_submit)
        thread.start()
        try:
            # Wait for proof of partial progress, then SIGKILL the daemon.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                done = executions_per_digest(read_events(daemon.events_path))
                if done:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("daemon made no progress before kill")
            assert sum(done.values()) < len(points), "batch finished too fast"
            daemon.kill()
        finally:
            # Release the gated worker the kill orphaned (and, on a
            # failure above, the live one), so it runs out and exits.
            open(gate, "w").close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert failure, "client should see the connection die"

        # The batch spool survived the kill.
        spooled = os.listdir(os.path.join(daemon.spool, "batches"))
        assert any(name.endswith(".pkl") for name in spooled)

        # Restart on the same spool; recovery is automatic.
        daemon.start()
        records = read_events(daemon.events_path)
        assert any(r["event"] == "batch_recovered" for r in records)

        # A resubmission returns the complete batch, bit-identical.
        with daemon.client() as client:
            results = client.submit_points(points)
        assert [fingerprint(r) for r in results] == serial

        # No digest was ever executed twice, across both daemon lives.
        counts = executions_per_digest(read_events(daemon.events_path))
        assert set(counts) <= {point_digest(p) for p in points}
        assert all(count <= 1 for count in counts.values()), counts
        return daemon


class TestBadPoints:
    def test_undigestable_point_is_refused_and_never_spooled(
        self, daemon_factory
    ):
        daemon = daemon_factory(jobs=1)
        good = make_points(1)[0]
        # Decodes fine, but point_digest cannot serialize a dict config.
        bad = RunPoint(dict(vars(good.config)), "picl", ("gcc",), N, 1)
        with pytest.raises(PointExecutionError, match="bad point"):
            with daemon.client() as client:
                client.submit_points([bad], batch_id="bad")
        batches = os.path.join(daemon.spool, "batches")
        assert os.listdir(batches) == []
        with daemon.client() as client:
            assert client.ping()
            results = client.submit_points([good])
        assert [fingerprint(r) for r in results] == [
            fingerprint(r) for r in run_points([good])
        ]

        # A spool left by a daemon that did not check: the restart drops
        # it as corrupt and comes up serving.
        daemon.stop()
        with open(os.path.join(batches, "bad.pkl"), "wb") as handle:
            pickle.dump({"points": [bad], "env": None}, handle)
        daemon.start()
        records = read_events(daemon.events_path)
        assert any(
            r["event"] == "spool_corrupt" and r["batch"] == "bad"
            for r in records
        )
        assert os.listdir(batches) == []
        with daemon.client() as client:
            assert client.ping()
