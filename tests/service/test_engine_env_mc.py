"""The retired ``REPRO_VECTOR_MC`` switch decodes and is ignored.

``REPRO_VECTOR_MC=0`` used to pin multi-core simulations to the scalar
heap loop while leaving ``REPRO_VECTOR`` on. The multi-core drain loop
replaced the interpreter it guarded, so the flag is no longer an engine
flag: it is not captured from a submitting client, not pinned or
scrubbed in worker processes, and a multi-core simulation ignores it.
Work that still carries it — a client capture or a spool entry written
before the flag was retired — must decode and run as if it were absent.
"""

import asyncio
import dataclasses
import os

from repro.service import protocol
from repro.service.server import SweepService
from repro.sim.config import SystemConfig
from repro.sim.parallel import (
    ENGINE_FLAGS,
    RunPoint,
    apply_engine_env,
    engine_env,
    execute_batch_with_retry,
)
from repro.sim.simulator import Simulation

CONFIG = SystemConfig().scaled(512)
N = CONFIG.epoch_instructions
RETIRED = {"REPRO_VECTOR_MC": "0"}


@dataclasses.dataclass(frozen=True)
class EnginePoint(RunPoint):
    """Runs a tiny two-core simulation; reports the loop that ran it."""

    def execute(self):
        config = dataclasses.replace(self.config, n_cores=2)
        sim = Simulation(config, "picl", ["gcc", "mcf"], 500, seed=self.seed)
        sim.run()
        return sim.engine


def test_retired_mc_switch_is_not_an_engine_flag():
    assert "REPRO_VECTOR_MC" not in ENGINE_FLAGS


def test_capture_ignores_the_retired_mc_switch(monkeypatch):
    for name in ENGINE_FLAGS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_VECTOR_MC", "0")
    monkeypatch.setenv("REPRO_BATCH_MISS", "1")
    assert engine_env() == {"REPRO_BATCH_MISS": "1"}
    assert engine_env(RETIRED) == {}


def test_apply_ignores_the_retired_mc_switch(monkeypatch):
    # Register with monkeypatch first so the mutation is undone.
    monkeypatch.setenv("REPRO_VECTOR_MC", "sentinel")
    monkeypatch.setenv("REPRO_VECTOR", "0")
    apply_engine_env(dict(RETIRED, REPRO_VECTOR="1"))
    assert os.environ["REPRO_VECTOR"] == "1"
    # Neither pinned nor scrubbed: no longer the engine channel's business.
    assert os.environ["REPRO_VECTOR_MC"] == "sentinel"


def test_protocol_round_trips_the_mc_switch():
    point = EnginePoint(CONFIG, "picl", ("gcc",), N, 11)
    message = protocol.submit_points("b1", [point], env=RETIRED)
    decoded = protocol.loads(protocol.dumps(message))
    assert decoded["env"] == RETIRED
    assert engine_env(decoded["env"]) == {}


def test_spool_entry_with_the_mc_switch_recovers(tmp_path):
    seen = []

    async def scenario():
        service = SweepService(
            spool_dir=str(tmp_path), cache=None, runner=lambda pts: pts
        )

        def record_submit(client, points, batch_id=None, env=None):
            seen.append((batch_id, env, len(points)))
            return []

        service.scheduler.submit = record_submit
        service._spool("old", [EnginePoint(CONFIG, "picl", ("gcc",), N, 13)],
                       env=RETIRED)
        service._stopping = asyncio.Event()
        service.scheduler.start()
        service._recover_spool()
        await service.scheduler.close()
        for task in list(service._background):
            await task

    asyncio.run(scenario())
    assert seen == [("old", RETIRED, 1)]


def test_child_ignores_the_submitted_mc_switch(monkeypatch):
    # The daemon's environment and the client's capture both carry the
    # retired switch; the child still runs the multi-core drain loop.
    monkeypatch.setenv("REPRO_VECTOR_MC", "0")
    point = EnginePoint(CONFIG, "picl", ("gcc",), N, 12)
    (engine,) = execute_batch_with_retry([point], env=RETIRED)
    assert engine == "drain"
