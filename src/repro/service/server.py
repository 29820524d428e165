"""The sweep-service daemon: sockets, spooling, and restart recovery.

A :class:`SweepService` listens on a unix socket (default
``<spool>/service.sock``) or localhost TCP and speaks the JSON-line
protocol of :mod:`repro.service.protocol`. Its durable state is the
result store plus two entries of one *spool directory*:

the result store
    A :class:`~repro.sim.parallel.ResultCache` of every finished point
    (digest -> result), stored durably before any client sees the
    result. It is the shared cache (``REPRO_CACHE_DIR``), which outlives
    any daemon and is how independent daemons and plain ``run_points``
    sweeps share work; under ``REPRO_NO_CACHE`` it is
    ``<spool>/results``, private to daemons on this spool.
``batches/<id>.pkl``
    One pickled record (point list plus engine-flag capture) per
    accepted batch, written before the batch is scheduled and removed
    once every point has settled. A daemon killed mid-batch finds the
    file on restart and re-submits the batch to itself: stored points
    answer instantly, the rest re-execute — no lost points, no
    duplicated executions.
``events.jsonl``
    The append-only structured event log (append-across-restarts).
"""

import asyncio
import os
import pickle
import signal

from repro.service import protocol
from repro.service.events import EventLog
from repro.service.scheduler import Scheduler
from repro.sim.parallel import (
    DEFAULT_BACKOFF,
    ENGINE_FLAGS,
    ResultCache,
    atomic_pickle,
    point_digest,
)

DEFAULT_SPOOL_DIR = ".repro_service"

#: Client name under which restart-recovered batches are scheduled.
RECOVERY_CLIENT = "recovered"

#: Per-connection stream buffer: a whole-figure submit is one JSON line
#: of pickled points (a ci fig09 batch is ~1 MB), far past asyncio's
#: 64 KiB default readline limit.
STREAM_LIMIT = 64 * 1024 * 1024


def default_socket_path(spool_dir=None):
    """Where the daemon listens when no socket/TCP endpoint is given."""
    return os.path.join(spool_dir or DEFAULT_SPOOL_DIR, "service.sock")


def _count_sources(entries):
    """How many of a submit's points each source answered."""
    return {
        source: sum(1 for _future, answered in entries if answered == source)
        for source in ("cache", "joined", "queued")
    }


class SweepService:
    """One daemon instance. ``tcp`` is a ``(host, port)`` pair; when
    None the unix socket at ``socket_path`` (default: inside the spool
    directory) is used. ``runner`` is passed through to the
    :class:`Scheduler` for tests.
    """

    def __init__(
        self,
        spool_dir=None,
        socket_path=None,
        tcp=None,
        jobs=None,
        cache=None,
        timeout=None,
        retries=None,
        backoff=DEFAULT_BACKOFF,
        runner=None,
    ):
        self.spool_dir = spool_dir or DEFAULT_SPOOL_DIR
        self.batch_dir = os.path.join(self.spool_dir, "batches")
        os.makedirs(self.batch_dir, exist_ok=True)
        self.tcp = tcp
        self.socket_path = (
            None if tcp else (socket_path or default_socket_path(self.spool_dir))
        )
        self.events = EventLog(os.path.join(self.spool_dir, "events.jsonl"))
        if cache is None:
            cache = ResultCache.from_env() or ResultCache(
                os.path.join(self.spool_dir, "results")
            )
        self.cache = cache
        self.scheduler = Scheduler(
            jobs=jobs,
            cache=self.cache,
            events=self.events,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            runner=runner,
        )
        self._server = None
        self._stopping = None
        self._clients = 0
        self._background = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self):
        """Bind the socket, start the scheduler, replay the spool."""
        self._stopping = asyncio.Event()
        self.scheduler.start()
        self._recover_spool()
        if self.tcp:
            host, port = self.tcp
            self._server = await asyncio.start_server(
                self._handle_client, host=host, port=port, limit=STREAM_LIMIT
            )
        else:
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path, limit=STREAM_LIMIT
            )
        self.events.append(
            "serve",
            endpoint=list(self.tcp) if self.tcp else self.socket_path,
            jobs=self.scheduler.jobs,
        )

    def request_stop(self):
        """Ask the daemon to exit (signal handlers, ``shutdown`` op)."""
        if self._stopping is not None:
            self._stopping.set()

    async def close(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._background):
            task.cancel()
        if self._background:
            await asyncio.gather(*self._background, return_exceptions=True)
        await self.scheduler.close()
        if self.socket_path:
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass
            except OSError as exc:
                # Swallowed (shutdown must finish) but observable.
                self.events.append(
                    "io_error", op="unlink_socket", error=str(exc)
                )
        self.events.append("stop")

    async def run(self):
        """Serve until :meth:`request_stop`; returns an exit code."""
        await self.start()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError) as exc:
                # Non-main-thread / non-unix loops: the daemon still
                # works, it just cannot catch this signal — say so.
                self.events.append(
                    "signal_handler_unavailable",
                    signal=int(signum),
                    error=str(exc),
                )
        try:
            await self._stopping.wait()
        finally:
            await self.close()
        return 0

    # ------------------------------------------------------------------
    # the batch spool (crash durability for accepted work)
    # ------------------------------------------------------------------

    def _spool_path(self, batch_id):
        return os.path.join(self.batch_dir, "%s.pkl" % batch_id)

    def _spool(self, batch_id, points, env=None):
        """Persist an accepted batch durably before scheduling it.

        The spool record is a dict carrying the point list plus the
        client's engine-flag capture, so a restart re-runs the batch
        under the same engine selection the client asked for.
        """
        atomic_pickle(
            self._spool_path(batch_id), {"points": list(points), "env": env}
        )

    def _unspool(self, batch_id):
        try:
            os.unlink(self._spool_path(batch_id))
        except FileNotFoundError:
            pass

    def _recover_spool(self):
        """Re-submit every batch the previous daemon left unfinished."""
        for name in sorted(os.listdir(self.batch_dir)):
            if not name.endswith(".pkl"):
                continue
            batch_id = name[: -len(".pkl")]
            try:
                with open(os.path.join(self.batch_dir, name), "rb") as handle:
                    record = pickle.load(handle)
                points = record["points"]
                env = record.get("env")
                # A point the scheduler cannot digest would kill the
                # daemon below; such a batch is as unusable as a torn one.
                for point in points:
                    point_digest(point)
            except Exception as exc:
                self.events.append(
                    "spool_corrupt", batch=batch_id, error=str(exc)
                )
                self._unspool(batch_id)
                continue
            entries = self.scheduler.submit(
                RECOVERY_CLIENT, points, batch_id=batch_id, env=env
            )
            self.events.append(
                "batch_recovered", batch=batch_id, n_points=len(points)
            )
            self._settle_in_background(batch_id, entries)

    def _settle_in_background(self, batch_id, entries):
        """Unspool the batch once every point settles, client or no."""

        async def settle():
            await asyncio.gather(
                *(future for future, _source in entries),
                return_exceptions=True,
            )
            self._unspool(batch_id)

        task = asyncio.ensure_future(settle())
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    # ------------------------------------------------------------------
    # client connections
    # ------------------------------------------------------------------

    async def _handle_client(self, reader, writer):
        self._clients += 1
        client = "client-%d" % self._clients
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # A line past STREAM_LIMIT: the buffered tail cannot
                    # be resynchronized, so answer cleanly and hang up —
                    # the daemon itself stays healthy.
                    self.events.append(
                        "protocol_error", client=client, error=str(exc)
                    )
                    await self._send(
                        writer,
                        {
                            "event": "error",
                            "error": "frame too large: %s" % exc,
                            "fatal": True,
                        },
                    )
                    break
                if not line:
                    break
                try:
                    message = protocol.loads(line)
                except ValueError as exc:
                    self.events.append(
                        "protocol_error", client=client, error=str(exc)
                    )
                    await self._send(
                        writer, {"event": "error", "error": "bad message: %s" % exc}
                    )
                    continue
                op = message.get("op")
                if op == "ping":
                    await self._send(
                        writer,
                        {"event": "pong", "protocol": protocol.PROTOCOL_VERSION},
                    )
                elif op == "status":
                    await self._send(
                        writer, {"event": "status", "data": self._status()}
                    )
                elif op == "shutdown":
                    await self._send(writer, {"event": "bye"})
                    self.request_stop()
                    break
                elif op == "submit":
                    await self._handle_submit(message, writer, client)
                else:
                    await self._send(
                        writer,
                        {"event": "error", "error": "unknown op %r" % (op,)},
                    )
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            # Client went away; any scheduled work continues.
            self.events.append(
                "client_disconnect", client=client, error=str(exc)
            )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError) as exc:
                self.events.append(
                    "io_error", op="close_client", client=client, error=str(exc)
                )

    async def _send(self, writer, message):
        writer.write(protocol.dumps(message))
        await writer.drain()

    def _status(self):
        status = self.scheduler.status()
        status["spooled_batches"] = len(
            [n for n in os.listdir(self.batch_dir) if n.endswith(".pkl")]
        )
        status["clients_seen"] = self._clients
        return status

    async def _handle_submit(self, message, writer, client):
        batch_id = message.get("batch") or os.urandom(8).hex()
        env = message.get("env")
        if env is not None:
            if not isinstance(env, dict):
                await self._send(
                    writer,
                    {"event": "error", "error": "env must be an object"},
                )
                return
            # Sanitize: only the known engine flags may travel into
            # child-process environments — a submit is not a general env
            # injection channel.
            env = {
                name: str(value)
                for name, value in env.items()
                if name in ENGINE_FLAGS
            }
        keys = None
        if message.get("points") is not None:
            try:
                points = [
                    protocol.decode_payload(text) for text in message["points"]
                ]
            except Exception as exc:
                await self._send(
                    writer,
                    {"event": "error", "error": "undecodable points: %s" % exc},
                )
                return
        elif message.get("figure"):
            from repro.experiments.batches import figure_points

            try:
                pairs = figure_points(
                    message["figure"],
                    preset=message.get("preset"),
                    benchmarks=message.get("benchmarks"),
                    epochs=message.get("epochs"),
                )
            except Exception as exc:
                await self._send(
                    writer,
                    {"event": "error", "error": "cannot decompose: %s" % exc},
                )
                return
            keys = [list(key) for key, _point in pairs]
            points = [point for _key, point in pairs]
        else:
            await self._send(
                writer,
                {"event": "error", "error": "submit needs points or figure"},
            )
            return
        try:
            # Validate before spooling: the scheduler digests every point,
            # and a spooled batch it cannot digest would fail every restart.
            for point in points:
                point_digest(point)
        except Exception as exc:
            await self._send(
                writer, {"event": "error", "error": "bad point: %s" % exc}
            )
            return
        self._spool(batch_id, points, env=env)
        entries = self.scheduler.submit(
            client, points, batch_id=batch_id, env=env
        )
        self._settle_in_background(batch_id, entries)
        self.events.append(
            "batch_accepted",
            batch=batch_id,
            client=client,
            n_points=len(points),
            sources=_count_sources(entries),
        )
        await self._send(
            writer,
            {
                "event": "accepted",
                "batch": batch_id,
                "n_points": len(points),
                "keys": keys,
                "protocol": protocol.PROTOCOL_VERSION,
            },
        )

        async def waiter(index, future, source):
            try:
                # shield(): this future may be shared with other clients'
                # submissions (that is the dedupe); a disconnect-driven
                # cancellation of this waiter must not cancel the work.
                result = await asyncio.shield(future)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                return {
                    "event": "point_error",
                    "batch": batch_id,
                    "index": index,
                    "error": str(exc),
                }
            return {
                "event": "point",
                "batch": batch_id,
                "index": index,
                "source": source,
                "result": protocol.encode_payload(result),
            }

        tasks = [
            asyncio.ensure_future(waiter(index, future, source))
            for index, (future, source) in enumerate(entries)
        ]
        failures = 0
        try:
            for next_done in asyncio.as_completed(tasks):
                point_message = await next_done
                if point_message["event"] == "point_error":
                    failures += 1
                await self._send(writer, point_message)
        except (ConnectionError, asyncio.CancelledError):
            for task in tasks:
                task.cancel()
            raise
        summary = {
            "event": "done",
            "batch": batch_id,
            "n_points": len(points),
            "failures": failures,
            "sources": _count_sources(entries),
        }
        self.events.append(
            "batch_done", batch=batch_id, client=client, failures=failures
        )
        await self._send(writer, summary)
