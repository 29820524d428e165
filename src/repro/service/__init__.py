"""Sweep-farm service: a scheduler daemon in front of the sweep runner.

The fault-tolerant machinery in :mod:`repro.sim.parallel` (the
content-addressed, durable :class:`~repro.sim.parallel.ResultCache`,
killable isolated batch execution with bounded retries) already is most
of a work-queue backend.
This package puts a scheduler in front of it:

* :class:`~repro.service.server.SweepService` — an asyncio daemon that
  accepts figure/sweep batches from many concurrent clients over a unix
  socket (or localhost TCP), dedupes work per ``point_digest`` against
  the in-flight set and the result store (one execution no matter
  how many clients ask), fans execution over isolated worker processes
  with per-client round-robin fairness, and streams results back as
  points finish.
* :class:`~repro.service.scheduler.Scheduler` — the event-loop-side
  brain: dedupe, fairness queues, dispatch, write-through to the result
  store.
* :class:`~repro.service.client.ServiceClient` — a small synchronous
  JSON-line client (``repro submit`` / ``repro status`` use it).
* :class:`~repro.service.events.EventLog` — the structured per-point
  event log (enqueue/dispatch/cache_hit/join/retry/crash/done) that
  makes the farm observable and lets tests assert "exactly one
  execution per digest".
Durability: every accepted batch is spooled to disk and every finished
point is stored durably in the result store before the client sees it,
so a daemon killed mid-batch resumes on restart with no lost or
duplicated points — finished points answer from the store, unfinished
ones re-execute.

The protocol carries pickled ``RunPoint``/result payloads; like the
on-disk cache, it is for *local, trusted* clients only.
"""

from repro.service.client import ServiceClient, wait_until_ready
from repro.service.events import EventLog, read_events
from repro.service.scheduler import Scheduler
from repro.service.server import (
    DEFAULT_SPOOL_DIR,
    SweepService,
    default_socket_path,
)

__all__ = [
    "DEFAULT_SPOOL_DIR",
    "EventLog",
    "Scheduler",
    "ServiceClient",
    "SweepService",
    "default_socket_path",
    "read_events",
    "wait_until_ready",
]
