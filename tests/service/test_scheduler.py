"""Scheduler unit tests: dedupe, fairness, write-through, failure.

These drive the :class:`~repro.service.scheduler.Scheduler` directly on
an event loop with an *injected* runner — no worker processes — so every
property is asserted deterministically: a digest asked for by N clients
executes once; pending work round-robins across clients; results are
stored before futures resolve; a failing unit, or a failing store, fails
exactly its own points and leaves the digests retryable.
"""

import asyncio
import errno
import json
import threading
import time

import pytest

from repro.service.events import EventLog, executions_per_digest
from repro.service.scheduler import Scheduler
from repro.sim.config import SystemConfig
from repro.sim.parallel import (
    PointExecutionError,
    ResultCache,
    RunPoint,
    point_digest,
)

CONFIG = SystemConfig().scaled(512)
N = CONFIG.epoch_instructions


def make_points(*seeds):
    """Distinct seeds -> distinct traces -> one dispatch unit per point."""
    return [
        RunPoint.single(CONFIG, "picl", "gcc", N, seed=seed) for seed in seeds
    ]


class RecordingRunner:
    """An injected runner: echoes per-point markers, counts executions."""

    def __init__(self, delay=0.0, fail=False):
        self.delay = delay
        self.fail = fail
        self.calls = []  # one entry per unit dispatched to a worker
        self._lock = threading.Lock()

    def __call__(self, points):
        with self._lock:
            self.calls.append([point_digest(p) for p in points])
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise ValueError("injected unit failure")
        return ["result-%d" % p.seed for p in points]

    @property
    def executed_digests(self):
        return [digest for call in self.calls for digest in call]


def run_async(coro):
    return asyncio.run(coro)


async def drive(scheduler, *submissions):
    """Start, submit each (client, points) pair, await all, close."""
    scheduler.start()
    entries = [
        scheduler.submit(client, points) for client, points in submissions
    ]
    gathered = []
    for client_entries in entries:
        gathered.append(
            await asyncio.gather(
                *(future for future, _source in client_entries),
                return_exceptions=True,
            )
        )
    await scheduler.close()
    return entries, gathered


class TestDedupe:
    def test_concurrent_identical_submissions_execute_once(self):
        runner = RecordingRunner()
        events = EventLog()
        points = make_points(1, 2, 3)

        async def scenario():
            scheduler = Scheduler(jobs=2, events=events, runner=runner)
            return await drive(
                scheduler, ("alice", points), ("bob", points), ("carol", points)
            )

        entries, gathered = run_async(scenario())
        # One execution per digest, no matter how many clients asked.
        assert sorted(runner.executed_digests) == sorted(
            point_digest(p) for p in points
        )
        # Every client got every result, identically.
        assert gathered[0] == ["result-1", "result-2", "result-3"]
        assert gathered[1] == gathered[0]
        assert gathered[2] == gathered[0]
        # The dedupe is visible in the sources and the event log.
        assert [source for _f, source in entries[0]] == ["queued"] * 3
        assert [source for _f, source in entries[1]] == ["joined"] * 3
        assert events.counts["enqueue"] == 3
        assert events.counts["join"] == 6
        assert executions_per_digest(events.tail(100)) == {
            point_digest(p): 1 for p in points
        }

    def test_duplicate_points_within_one_batch_join(self):
        runner = RecordingRunner()
        point = make_points(9)[0]

        async def scenario():
            scheduler = Scheduler(jobs=1, runner=runner)
            return await drive(scheduler, ("alice", [point, point]))

        _entries, gathered = run_async(scenario())
        assert gathered[0] == ["result-9", "result-9"]
        assert len(runner.executed_digests) == 1

    def test_stored_result_answers_without_execution(self, tmp_path):
        runner = RecordingRunner()
        cache = ResultCache(str(tmp_path / "cache"))
        point = make_points(5)[0]
        cache.store(point, "stored-result")

        async def scenario():
            scheduler = Scheduler(jobs=1, cache=cache, runner=runner)
            return await drive(scheduler, ("alice", [point]))

        entries, gathered = run_async(scenario())
        assert gathered[0] == ["stored-result"]
        assert entries[0][0][1] == "cache"
        assert runner.calls == []

    def test_results_stored_before_futures_resolve(self, tmp_path):
        runner = RecordingRunner()
        root = str(tmp_path / "cache")
        point = make_points(7)[0]

        async def scenario():
            scheduler = Scheduler(
                jobs=1, cache=ResultCache(root), runner=runner
            )
            scheduler.start()
            (future, _source), = scheduler.submit("alice", [point])
            result = await future
            # At the instant the future resolved, the store already held
            # the result on disk (durability before visibility).
            assert ResultCache(root).load(point) == result
            await scheduler.close()

        run_async(scenario())


class TestFairness:
    def test_round_robin_across_clients(self):
        events = EventLog()
        runner = RecordingRunner(delay=0.01)

        async def scenario():
            # jobs=1 forces strictly sequential dispatch; both clients
            # submit before the dispatcher runs, so the dispatch order
            # is purely the scheduler's choice.
            scheduler = Scheduler(jobs=1, events=events, runner=runner)
            alice = scheduler.submit("alice", make_points(11, 12, 13))
            bob = scheduler.submit("bob", make_points(21))
            scheduler.start()
            # A missed dispatcher wake-up must fail the test, not hang it.
            await asyncio.wait_for(
                asyncio.gather(*(f for f, _s in alice), *(f for f, _s in bob)),
                timeout=30,
            )
            await scheduler.close()

        run_async(scenario())
        order = [
            record["client"]
            for record in events.tail(100)
            if record["event"] == "dispatch"
        ]
        # Bob's single point is served second, not starved behind the
        # rest of Alice's batch.
        assert order == ["alice", "bob", "alice", "alice"]

    def test_round_robin_survives_an_emptied_queue(self):
        # Alice's queue empties on her first turn; the rotation must go
        # on to Bob, the client after her, not skip him for Carol.
        events = EventLog()

        async def scenario():
            scheduler = Scheduler(jobs=1, events=events, runner=RecordingRunner())
            futures = [
                future
                for client, seeds in (("alice", (61,)), ("bob", (62, 63)),
                                      ("carol", (64, 65)))
                for future, _source in scheduler.submit(client, make_points(*seeds))
            ]
            scheduler.start()
            await asyncio.wait_for(asyncio.gather(*futures), timeout=30)
            await scheduler.close()

        run_async(scenario())
        order = [
            record["client"]
            for record in events.tail(100)
            if record["event"] == "dispatch"
        ]
        assert order == ["alice", "bob", "carol", "bob", "carol"]


class TestStatus:
    def test_status_is_json_safe(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(
                jobs=1,
                cache=ResultCache(str(tmp_path / "cache")),
                runner=RecordingRunner(),
            )
            scheduler.start()
            (future, _source), = scheduler.submit("alice", make_points(51))
            await future
            status = scheduler.status()
            await scheduler.close()
            return status

        status = run_async(scenario())
        json.dumps(status)
        # Exactly what ``repro status`` prints (before the server's own
        # spool and client counts are added).
        assert set(status) == {
            "jobs",
            "inflight",
            "queued",
            "events",
            "cache",
        }


class TestFailure:
    def test_unit_failure_fails_only_its_points(self):
        points = make_points(31)

        async def scenario():
            scheduler = Scheduler(
                jobs=1, runner=RecordingRunner(fail=True)
            )
            scheduler.start()
            (future, _source), = scheduler.submit("alice", points)
            with pytest.raises(PointExecutionError, match="injected"):
                await future
            # The digest is no longer in flight: a resubmission after a
            # (transient-in-reality) failure re-enqueues instead of
            # joining a dead future.
            assert scheduler.status()["inflight"] == 0
            (future2, source2), = scheduler.submit("alice", points)
            assert source2 == "queued"
            with pytest.raises(PointExecutionError):
                await future2
            await scheduler.close()

        run_async(scenario())

    def test_failed_store_fails_its_points_and_leaves_them_retryable(
        self, tmp_path
    ):
        # A store that raises (a full disk) must fail the unit's points,
        # not strand them: before the fix the first store's OSError
        # escaped the unit task, both futures stayed pending forever, and
        # a resubmit joined the dead futures.
        class FullDisk(ResultCache):
            def store(self, point, result):
                raise OSError(errno.ENOSPC, "No space left on device")

        events = EventLog()
        runner = RecordingRunner()
        # One trace under two schemes: one unit of two points.
        points = [
            RunPoint.single(CONFIG, scheme, "gcc", N, seed=71)
            for scheme in ("picl", "frm")
        ]

        async def scenario():
            scheduler = Scheduler(
                jobs=1,
                cache=FullDisk(str(tmp_path)),
                events=events,
                runner=runner,
            )
            scheduler.start()
            entries = scheduler.submit("alice", points)
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(future for future, _source in entries),
                    return_exceptions=True,
                ),
                timeout=10,
            )
            inflight = scheduler.status()["inflight"]
            resubmitted = scheduler.submit("alice", points)
            await scheduler.close()
            return outcomes, inflight, [s for _f, s in resubmitted]

        outcomes, inflight, resubmitted = run_async(scenario())
        assert runner.calls and len(runner.calls[0]) == 2
        for outcome in outcomes:
            assert isinstance(outcome, PointExecutionError)
            assert "No space left on device" in str(outcome)
        assert inflight == 0
        assert resubmitted == ["queued", "queued"]
        assert events.counts["io_error"] == 2
        assert events.counts["done"] == 0

    def test_close_cancels_queued_work(self):
        runner = RecordingRunner(delay=0.2)

        async def scenario():
            scheduler = Scheduler(jobs=1, runner=runner)
            scheduler.start()
            entries = scheduler.submit("alice", make_points(41, 42, 43, 44))
            # Give the dispatcher a moment to start the first unit.
            await asyncio.sleep(0.05)
            await scheduler.close()
            outcomes = await asyncio.gather(
                *(f for f, _s in entries), return_exceptions=True
            )
            cancelled = [
                o for o in outcomes if isinstance(o, asyncio.CancelledError)
            ]
            assert cancelled, "queued futures should be cancelled on close"

        run_async(scenario())
