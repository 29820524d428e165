"""Structured event log: what happened to every point, durably.

Each line of ``events.jsonl`` is one JSON record with at least ``t``
(unix time), ``event``, and usually ``digest`` — the same content-hash
the result store keys on, so one digest can be
followed across enqueue, dispatch, retries, and completion. The log is
append-only across daemon restarts, which is exactly what lets tests
(and operators) assert global properties like "this digest was executed
once, ever, no matter how many clients asked or how often the daemon
was kicked over".

To keep a long-lived daemon's log bounded, the sink rotates: when the
active file passes ``max_bytes`` it is renamed to ``events.jsonl.1``
(older segments shifting to ``.2``, ``.3``, …) and segments past the
retention count are deleted. :func:`read_events` replays *all retained
segments oldest-first*, so rotation is invisible to consumers until a
segment actually ages out. ``REPRO_EVENTS_MAX_BYTES`` /
``REPRO_EVENTS_SEGMENTS`` tune both knobs; ``REPRO_EVENTS_MAX_BYTES=0``
disables rotation entirely.

Event vocabulary (producers in :mod:`repro.service.scheduler` /
``server``): ``enqueue``, ``dispatch``, ``done``, ``cache_hit``
(answered from the result store), ``join`` (deduped onto an in-flight
execution), ``retry`` (transient worker crash/timeout, attempt
counted), ``failed``,
``batch_accepted``, ``batch_done``, ``batch_recovered``,
``spool_corrupt``, ``serve``, ``stop``; plus the observability events
``protocol_error``, ``client_disconnect``, ``io_error``, and
``signal_handler_unavailable``.
"""

import collections
import json
import os
import threading
import time

#: Rotate the active segment once it passes this size (bytes).
DEFAULT_MAX_BYTES = 8 * 1024 * 1024

#: Rotated segments kept (``events.jsonl.1`` … ``.N``) besides the
#: active file.
DEFAULT_SEGMENTS = 4


def rotation_env():
    """``(max_bytes, segments)`` from the environment (or defaults)."""
    try:
        max_bytes = int(os.environ.get("REPRO_EVENTS_MAX_BYTES", ""))
    except ValueError:
        max_bytes = DEFAULT_MAX_BYTES
    try:
        segments = int(os.environ.get("REPRO_EVENTS_SEGMENTS", ""))
    except ValueError:
        segments = DEFAULT_SEGMENTS
    return max(0, max_bytes), max(1, segments)


class EventLog:
    """Thread-safe append-only JSONL event sink with in-memory counters.

    ``path=None`` keeps events in memory only (unit tests). Writes are
    line-buffered appends under a lock: scheduler callbacks run on the
    event loop *and* on executor threads, and interleaved torn lines
    would defeat the whole point of the log. ``max_bytes=0`` disables
    rotation; both rotation knobs default to the environment.
    """

    def __init__(self, path=None, max_bytes=None, segments=None):
        self.path = path
        env_max_bytes, env_segments = rotation_env()
        self.max_bytes = env_max_bytes if max_bytes is None else max_bytes
        self.segments = env_segments if segments is None else max(1, segments)
        self.counts = collections.Counter()
        self._lock = threading.Lock()
        self._memory = []
        self._size = 0
        if path:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            try:
                self._size = os.path.getsize(path)
            except OSError:
                self._size = 0

    def append(self, event, **fields):
        """Record one event; returns the full record dict."""
        record = {"t": time.time(), "event": event}
        record.update(fields)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self.counts[event] += 1
            self._memory.append(record)
            if self.path:
                if self.max_bytes and self._size >= self.max_bytes:
                    self._rotate()
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
                self._size += len(line) + 1
        return record

    def _rotate(self):
        """Shift ``path`` -> ``.1`` -> ``.2`` …, dropping past retention.

        Caller holds the lock. Rename failures are swallowed (a log must
        never take the daemon down) but leave the size counter accurate
        so the next append retries the rotation.
        """
        for index in range(self.segments, 0, -1):
            older = "%s.%d" % (self.path, index)
            if index == self.segments:
                try:
                    os.unlink(older)
                except OSError:
                    pass
                continue
            newer = "%s.%d" % (self.path, index + 1)
            try:
                os.replace(older, newer)
            except FileNotFoundError:
                continue
            except OSError:
                return
        try:
            os.replace(self.path, "%s.1" % self.path)
        except OSError:
            return
        self._size = 0

    def tail(self, n=20):
        """The most recent ``n`` records (memory-backed, this process)."""
        with self._lock:
            return list(self._memory[-n:])

    def snapshot(self):
        """Counter totals as a plain dict (for ``status`` responses)."""
        with self._lock:
            return dict(self.counts)


def event_segments(path):
    """All retained segment paths for ``path``, oldest first."""
    suffixes = []
    index = 1
    while os.path.exists("%s.%d" % (path, index)):
        suffixes.append("%s.%d" % (path, index))
        index += 1
    return list(reversed(suffixes)) + [path]


def read_events(path):
    """Parse an event log back into a list of records, oldest first.

    Reads *every retained rotation segment* (``path.N`` … ``path.1``,
    then ``path``), so replay consumers see one continuous history.
    Tolerates a torn final line (daemon killed mid-append) and missing
    files.
    """
    records = []
    for segment in event_segments(path):
        try:
            handle = open(segment, "r", encoding="utf-8")
        except FileNotFoundError:
            continue
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue
    return records


def executions_per_digest(records):
    """``{digest: number of completed executions}`` from event records.

    The dedupe property under test: every digest's count is exactly 1 —
    result-store hits and joins serve every other request.
    """
    counts = collections.Counter()
    for record in records:
        if record.get("event") == "done" and record.get("digest"):
            counts[record["digest"]] += 1
    return counts
