"""Retired engine switches decode and are ignored.

``REPRO_VECTOR_MC=0`` once pinned multi-core simulations to the scalar
heap loop, ``REPRO_BATCH_MISS=0`` turned the miss-chain drain off,
``REPRO_MISS_PROFILE=1`` attached profiling mirrors to the L2 and LLC,
and ``REPRO_BRUTE_SCAN=1`` swapped the EID index for full cache sweeps
(the sweeps remain as a test oracle, set by attribute only).
``REPRO_VECTOR=0`` is now the one engine switch, so none of them is an
engine flag: it is not captured from a submitting client, not pinned or
scrubbed in worker processes, and a simulation ignores it. Work that
still carries one — a client capture or a spool entry written before
the flag was retired — must decode and run as if it were absent.
"""

import asyncio
import dataclasses
import os

import pytest

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

#: Each retired flag, set to the value that used to change the engine.
RETIRED = [
    ("REPRO_VECTOR_MC", "0"),
    ("REPRO_BATCH_MISS", "0"),
    ("REPRO_MISS_PROFILE", "1"),
    ("REPRO_BRUTE_SCAN", "1"),
]

pytestmark = pytest.mark.parametrize("flag,value", RETIRED)


@dataclasses.dataclass(frozen=True)
class EnginePoint(RunPoint):
    """Runs a tiny simulation on one and on two cores; reports the loops
    that ran them."""

    def execute(self):
        engines = []
        for benches in (["gcc"], ["gcc", "mcf"]):
            config = dataclasses.replace(self.config, n_cores=len(benches))
            sim = Simulation(config, "picl", benches, 500, seed=self.seed)
            sim.run()
            engines.append(sim.engine)
        return engines


def test_retired_flag_is_not_an_engine_flag(flag, value):
    assert flag not in ENGINE_FLAGS
    assert ENGINE_FLAGS == ("REPRO_VECTOR",)


def test_capture_ignores_the_retired_flag(monkeypatch, flag, value):
    for name in ENGINE_FLAGS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(flag, value)
    monkeypatch.setenv("REPRO_VECTOR", "1")
    assert engine_env() == {"REPRO_VECTOR": "1"}
    assert engine_env({flag: value}) == {}


def test_apply_ignores_the_retired_flag(monkeypatch, flag, value):
    # Register with monkeypatch first so the mutation is undone.
    monkeypatch.setenv(flag, "sentinel")
    monkeypatch.setenv("REPRO_VECTOR", "0")
    apply_engine_env({flag: value, "REPRO_VECTOR": "1"})
    assert os.environ["REPRO_VECTOR"] == "1"
    # Neither pinned nor scrubbed: no longer the engine channel's business.
    assert os.environ[flag] == "sentinel"


def test_protocol_round_trips_the_retired_flag(flag, value):
    point = EnginePoint(CONFIG, "picl", ("gcc",), N, 11)
    message = protocol.submit_points("b1", [point], env={flag: value})
    decoded = protocol.loads(protocol.dumps(message))
    assert decoded["env"] == {flag: value}
    assert engine_env(decoded["env"]) == {}


def test_spool_entry_with_the_retired_flag_recovers(tmp_path, flag, value):
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
                       env={flag: value})
        service._stopping = asyncio.Event()
        service.scheduler.start()
        service._recover_spool()
        await service.scheduler.close()
        for task in list(service._background):
            await task

    asyncio.run(scenario())
    assert seen == [("old", {flag: value}, 1)]


def test_child_ignores_the_retired_flag(monkeypatch, flag, value):
    # The daemon's environment and the client's capture both carry the
    # retired flag; the child still runs the default loops.
    monkeypatch.setenv(flag, value)
    point = EnginePoint(CONFIG, "picl", ("gcc",), N, 12)
    (engines,) = execute_batch_with_retry([point], env={flag: value})
    assert engines == ["trajectory", "drain"]
    sim = Simulation(CONFIG, "picl", ["gcc"], 500)
    hierarchy = sim.hierarchy
    assert not (hierarchy._brute_scan or hierarchy.llc._brute_scan
                or sim.scheme.acs._brute_scan)
