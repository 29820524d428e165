"""The event-loop scheduler: dedupe, fairness, dispatch, write-through.

One :class:`Scheduler` owns all execution state of a running daemon:

* **Dedupe.** Every submitted point is resolved in order against the
  in-flight table and the result store (a
  :class:`~repro.sim.parallel.ResultCache`: every point finished this
  daemon lifetime, a previous one, or by any other sweep sharing it).
  Only a genuinely novel digest is enqueued; concurrent clients asking
  for the same digest share one future and therefore one execution.
* **Fairness.** Pending work is kept as per-client queues of same-trace
  units (see :func:`repro.sim.parallel.trace_batches`); the dispatcher
  pops units round-robin across clients, so a client submitting a
  29-benchmark figure cannot starve one submitting a single point.
* **Dispatch.** While a local slot is free, the dispatcher pops the
  next unit and runs it on the thread pool; each slot drives
  :func:`~repro.sim.parallel.execute_batch_with_retry` (an isolated,
  killable child process with capped-backoff retries). Every capacity
  change wakes the dispatcher: a submit, or a unit finishing.
* **Write-through.** A finished point is stored durably in the result
  store *before* its future resolves, so no client can observe a result
  the daemon could later lose. A point whose store fails is failed, not
  shown as a success.

The scheduler must be driven from a single asyncio event loop
(``submit`` and ``start``/``close`` are loop-side); only the event log
and the runner are touched from executor threads.
"""

import asyncio
import collections
from concurrent.futures import ThreadPoolExecutor

from repro.service.events import EventLog
from repro.sim.parallel import (
    DEFAULT_BACKOFF,
    PointExecutionError,
    execute_batch_with_retry,
    fault_env,
    kill_isolated_processes,
    point_digest,
    resolve_jobs,
    trace_batches,
)


class _Unit:
    """One dispatchable same-trace batch owned by one client."""

    __slots__ = ("client", "batch_id", "entries", "env")

    def __init__(self, client, batch_id, entries, env=None):
        self.client = client
        self.batch_id = batch_id
        self.entries = entries  # [(digest, point, future), ...]
        #: The client's engine-flag capture (see ENGINE_FLAGS), pinned in
        #: the worker child that runs this unit; None = inherit.
        self.env = env

    def digests(self):
        return [digest for digest, _point, _future in self.entries]


def _silence(future):
    """Mark a future's exception retrieved (no-waiter recovery batches)."""
    if not future.cancelled():
        future.exception()


class Scheduler:
    """See module docstring. ``runner`` injects an execution function
    ``runner(points) -> results`` for tests; the default is the isolated
    retrying machinery honoring ``timeout``/``retries``/``backoff``
    (which themselves default to ``REPRO_POINT_TIMEOUT`` /
    ``REPRO_RETRIES``).
    """

    def __init__(
        self,
        jobs=None,
        cache=None,
        events=None,
        timeout=None,
        retries=None,
        backoff=DEFAULT_BACKOFF,
        runner=None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.events = events if events is not None else EventLog()
        env_timeout, env_retries = fault_env()
        self.timeout = env_timeout if timeout is None else timeout
        self.retries = env_retries if retries is None else retries
        self.backoff = backoff
        self._runner = runner
        self._inflight = {}  # digest -> asyncio.Future (unresolved only)
        self._queues = collections.OrderedDict()  # client -> deque[_Unit]
        self._running = 0
        self._wakeup = None  # asyncio.Event, created in start()
        self._dispatcher = None
        self._unit_tasks = set()
        self._executor = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="sweep-unit"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Start the dispatcher on the running loop."""
        self._wakeup = asyncio.Event()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def close(self):
        """Stop dispatching, kill live workers, fail queued futures."""
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        # Deliberately killed children must not be retried or relaunched;
        # their waiting unit tasks fail fast with WorkerCrashError.
        kill_isolated_processes()
        for queue in self._queues.values():
            for unit in queue:
                for digest, _point, future in unit.entries:
                    self._inflight.pop(digest, None)
                    if not future.done():
                        future.cancel()
        self._queues.clear()
        if self._unit_tasks:
            await asyncio.gather(*self._unit_tasks, return_exceptions=True)
        self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # submission (event-loop side)
    # ------------------------------------------------------------------

    def submit(self, client, points, batch_id=None, env=None):
        """Resolve-or-enqueue every point for ``client``.

        Returns ``[(future, source), ...]`` in input order; ``source`` is
        how the point was answered: ``joined`` (another client's
        in-flight execution), ``cache`` (already in the result store), or
        ``queued`` (novel work enqueued now). The in-flight table is
        asked first: a store lookup reads the disk.

        ``env`` is the client's engine-flag capture
        (:data:`repro.sim.parallel.ENGINE_FLAGS`); fresh units execute
        under it. A ``joined`` point runs under whichever env first
        enqueued its digest — safe because every engine mode is
        bit-identical, so the shared result is the same either way.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        loop = asyncio.get_event_loop()
        out = []
        fresh = []  # (digest, point, future) needing execution
        for point in points:
            digest = point_digest(point)
            inflight = self._inflight.get(digest)
            if inflight is not None:
                self.events.append(
                    "join", digest=digest, client=client, batch=batch_id
                )
                out.append((inflight, "joined"))
                continue
            cached = self.cache.load(point) if self.cache is not None else None
            if cached is not None:
                future = loop.create_future()
                future.set_result(cached)
                self.events.append(
                    "cache_hit", digest=digest, client=client, batch=batch_id
                )
                out.append((future, "cache"))
                continue
            future = loop.create_future()
            self._inflight[digest] = future
            fresh.append((digest, point, future))
            self.events.append(
                "enqueue", digest=digest, client=client, batch=batch_id
            )
            out.append((future, "queued"))
        if fresh:
            queue = self._queues.setdefault(client, collections.deque())
            fresh_points = [point for _digest, point, _future in fresh]
            for indices in trace_batches(fresh_points, range(len(fresh))):
                queue.append(
                    _Unit(client, batch_id, [fresh[i] for i in indices], env=env)
                )
            if self._wakeup is not None:  # submits before start() just queue
                self._wakeup.set()
        return out

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _next_unit(self):
        """Pop the next unit, rotating across clients for fairness.

        The first client in ``_queues`` is served; it then moves to the
        back, or leaves once its queue is empty, so the next pop serves
        the client after it whatever happened to this one's queue.
        """
        if not self._queues:
            return None
        client, queue = next(iter(self._queues.items()))
        unit = queue.popleft()
        if queue:
            self._queues.move_to_end(client)
        else:
            del self._queues[client]
        return unit

    async def _dispatch_loop(self):
        while True:
            self._wakeup.clear()
            self._pump()
            await self._wakeup.wait()

    def _pump(self):
        """Launch queued units while a local slot is free.

        Synchronous (no awaits), so cancellation can never strand a
        popped unit. Capacity is checked *before* popping: a pop advances
        the fairness rotation.
        """
        while self._running < self.jobs:
            unit = self._next_unit()
            if unit is None:
                return
            self._running += 1
            task = asyncio.ensure_future(self._run_unit(unit))
            self._unit_tasks.add(task)
            task.add_done_callback(self._unit_tasks.discard)

    # ------------------------------------------------------------------
    # local (thread-pool) execution
    # ------------------------------------------------------------------

    def _execute(self, unit):
        """Executor-thread side: run the unit's points to completion."""
        points = [point for _digest, point, _future in unit.entries]
        if self._runner is not None:
            return self._runner(points)

        def on_retry(attempt, delay, exc):
            # Thread-safe: EventLog locks internally.
            self.events.append(
                "retry",
                digests=unit.digests(),
                client=unit.client,
                batch=unit.batch_id,
                attempt=attempt,
                delay=delay,
                error=str(exc),
            )

        return execute_batch_with_retry(
            points,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            on_retry=on_retry,
            should_retry=lambda: not self._closed,
            env=unit.env,
        )

    async def _run_unit(self, unit):
        loop = asyncio.get_event_loop()
        self.events.append(
            "dispatch",
            digests=unit.digests(),
            client=unit.client,
            batch=unit.batch_id,
        )
        try:
            results = await loop.run_in_executor(
                self._executor, self._execute, unit
            )
        except asyncio.CancelledError:
            for digest, _point, future in unit.entries:
                self._inflight.pop(digest, None)
                if not future.done():
                    future.cancel()
            raise
        except Exception as exc:
            if not isinstance(exc, PointExecutionError):
                exc = PointExecutionError(
                    "unit execution failed: %r" % (exc,)
                )
            self._fail_unit(unit, exc)
        else:
            self._settle_unit(unit, results)
        finally:
            self._running -= 1
            if self._wakeup is not None:
                self._wakeup.set()

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------

    def _settle_unit(self, unit, results):
        """Durability before visibility: store, then resolve the future.

        A point whose store raises (a full disk, say) fails with the OS
        error instead: its result is not durable, and leaving its future
        pending would strand every client that joined it.
        """
        for (digest, point, future), result in zip(unit.entries, results):
            if self.cache is not None:
                try:
                    self.cache.store(point, result)
                except OSError as exc:
                    self.events.append(
                        "io_error",
                        op="store",
                        digest=digest,
                        client=unit.client,
                        batch=unit.batch_id,
                        error=str(exc),
                    )
                    self._fail_point(
                        unit,
                        digest,
                        future,
                        PointExecutionError(
                            "result store failed: %s" % (exc,),
                            point_description=point.describe(),
                        ),
                    )
                    continue
            self._inflight.pop(digest, None)
            self.events.append(
                "done", digest=digest, client=unit.client, batch=unit.batch_id
            )
            if not future.done():
                future.set_result(result)

    def _fail_unit(self, unit, exc):
        for digest, _point, future in unit.entries:
            self._fail_point(unit, digest, future, exc)

    def _fail_point(self, unit, digest, future, exc):
        self._inflight.pop(digest, None)
        self.events.append(
            "failed",
            digest=digest,
            client=unit.client,
            batch=unit.batch_id,
            error=str(exc),
        )
        if not future.done():
            future.add_done_callback(_silence)
            future.set_exception(exc)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def status(self):
        """A JSON-safe snapshot for the ``status`` protocol op."""
        return {
            "jobs": self.jobs,
            "inflight": len(self._inflight),
            "queued": {
                client: sum(len(unit.entries) for unit in queue)
                for client, queue in self._queues.items()
            },
            "events": self.events.snapshot(),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "quarantined": self.cache.quarantined,
            }
            if self.cache is not None
            else None,
        }
