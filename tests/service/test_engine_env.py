"""Engine-flag propagation: client environment governs worker processes.

``REPRO_VECTOR`` selects *how* a simulation executes (both modes are
bit-identical), and it is read when the hierarchy is built — in the
worker process. These tests pin the contract that a submitting client's
flags travel with its batch: captured by :func:`engine_env`, shipped
through the protocol, spooled for restart recovery, carried on scheduler
units, and finally pinned inside the isolated child by
:func:`apply_engine_env` — with flags the client left unset *scrubbed*
from whatever the daemon inherited.
"""

import asyncio
import dataclasses
import os
import pickle

from repro.service import protocol
from repro.service.scheduler import Scheduler
from repro.service.server import SweepService
from repro.sim.config import SystemConfig
from repro.sim.parallel import (
    ENGINE_FLAGS,
    RunPoint,
    apply_engine_env,
    engine_env,
    execute_batch_with_retry,
)

CONFIG = SystemConfig().scaled(512)
N = CONFIG.epoch_instructions


@dataclasses.dataclass(frozen=True)
class EnvProbePoint(RunPoint):
    """Runs no simulation; reports the engine flags its process sees."""

    def execute(self):
        return {name: os.environ.get(name) for name in ENGINE_FLAGS}


def probe(seed):
    return EnvProbePoint(CONFIG, "picl", ("gcc",), N, seed)


class TestCaptureAndApply:
    def test_engine_env_captures_only_set_engine_flags(self, monkeypatch):
        for name in ENGINE_FLAGS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_VECTOR", "0")
        monkeypatch.setenv("REPRO_JOBS", "4")  # not an engine flag
        assert engine_env() == {"REPRO_VECTOR": "0"}

    def test_engine_env_reads_an_explicit_mapping(self):
        captured = engine_env({"REPRO_VECTOR": "1", "PATH": "/bin"})
        assert captured == {"REPRO_VECTOR": "1"}

    def test_apply_none_leaves_environment_alone(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR", "0")
        apply_engine_env(None)
        assert os.environ["REPRO_VECTOR"] == "0"

    def test_apply_dict_is_authoritative_for_every_flag(self, monkeypatch):
        # Register with monkeypatch before apply_engine_env mutates it,
        # so the flag is restored (not leaked) after this test.
        monkeypatch.setenv("REPRO_VECTOR", "sentinel")
        apply_engine_env({"REPRO_VECTOR": "0"})
        assert os.environ.get("REPRO_VECTOR") == "0"
        # A flag absent from the capture is scrubbed, not inherited.
        apply_engine_env({})
        assert "REPRO_VECTOR" not in os.environ


class TestIsolatedChild:
    def test_child_runs_under_the_submitted_env(self, monkeypatch):
        # The daemon's own environment selects the reference path...
        monkeypatch.setenv("REPRO_VECTOR", "0")
        # ...but one client pinned the fast engine and one left it unset.
        (pinned,) = execute_batch_with_retry(
            [probe(1)], env={"REPRO_VECTOR": "1"}
        )
        (unset,) = execute_batch_with_retry([probe(8)], env={})
        assert pinned["REPRO_VECTOR"] == "1"
        assert unset["REPRO_VECTOR"] is None  # daemon setting scrubbed

    def test_no_env_means_the_child_inherits(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR", "0")
        (seen,) = execute_batch_with_retry([probe(2)], env=None)
        assert seen["REPRO_VECTOR"] == "0"


class TestSchedulerUnits:
    def test_submitted_env_rides_on_the_unit(self):
        events = []

        async def scenario():
            scheduler = Scheduler(jobs=1, runner=lambda points: points)
            # Submit before start(): units queue without dispatching, so
            # the queue is inspectable.
            scheduler.submit(
                "client-a", [probe(3)], env={"REPRO_VECTOR": "0"}
            )
            scheduler.submit("client-b", [probe(4)])
            for queue in scheduler._queues.values():
                for unit in queue:
                    events.append((unit.client, unit.env))
            scheduler.start()
            await scheduler.close()

        asyncio.run(scenario())
        assert ("client-a", {"REPRO_VECTOR": "0"}) in events
        assert ("client-b", None) in events


class TestProtocolAndSpool:
    def test_submit_points_carries_env(self):
        message = protocol.submit_points(
            "b1", [probe(5)], env={"REPRO_VECTOR": "1"}
        )
        assert message["env"] == {"REPRO_VECTOR": "1"}
        decoded = protocol.loads(protocol.dumps(message))
        assert decoded["env"] == {"REPRO_VECTOR": "1"}

    def test_spool_recovery_reads_env_records_and_drops_bare_lists(
        self, tmp_path
    ):
        seen = []

        async def scenario():
            service = SweepService(
                spool_dir=str(tmp_path), cache=None, runner=lambda pts: pts
            )

            def record_submit(client, points, batch_id=None, env=None):
                seen.append((batch_id, env))
                return []

            service.scheduler.submit = record_submit
            # A bare pickled point list (the spool format from before the
            # engine-flag capture) is no longer read: it is corrupt.
            with open(service._spool_path("old"), "wb") as handle:
                pickle.dump([probe(6)], handle)
            # The spool format: a dict with the engine-flag capture.
            service._spool("new", [probe(7)], env={"REPRO_VECTOR": "0"})
            service._stopping = asyncio.Event()
            service.scheduler.start()
            service._recover_spool()
            await service.scheduler.close()
            for task in list(service._background):
                await task
            return service

        service = asyncio.run(scenario())
        assert seen == [("new", {"REPRO_VECTOR": "0"})]
        assert [
            record["batch"]
            for record in service.events.tail(100)
            if record["event"] == "spool_corrupt"
        ] == ["old"]
        assert not os.path.exists(service._spool_path("old"))
