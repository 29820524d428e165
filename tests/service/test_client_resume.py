"""Client read-deadline and reconnect-resume tests.

A scripted fake server (plain unix-socket thread) plays the failure:
it accepts a submit, streams *part* of the batch, then goes silent.
The client's read deadline must fire, and instead of raising it must
reconnect and re-submit the same batch id — the real daemon answers a
re-submission idempotently from its result store and in-flight table,
which the fake server emulates by replaying the full stream on the
second connection.
"""

import json
import os
import shutil
import socket
import tempfile
import threading

import pytest

from repro.service import protocol
from repro.service.client import (
    DEFAULT_CLIENT_TIMEOUT,
    ServiceClient,
    client_timeout,
)
from repro.sim.parallel import PointExecutionError


class TestTimeoutConfig:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CLIENT_TIMEOUT", raising=False)
        assert client_timeout() == DEFAULT_CLIENT_TIMEOUT

    def test_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLIENT_TIMEOUT", "12.5")
        assert client_timeout() == 12.5

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLIENT_TIMEOUT", "0")
        assert client_timeout() is None

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLIENT_TIMEOUT", "soon")
        assert client_timeout() == DEFAULT_CLIENT_TIMEOUT


class ScriptedServer:
    """Accept connections in order; run one script function per each."""

    def __init__(self, *scripts):
        self.home = tempfile.mkdtemp(prefix="rcli-", dir="/tmp")
        self.path = os.path.join(self.home, "s.sock")
        self.scripts = list(scripts)
        self.submits = []  # parsed submit message per connection
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.path)
        self._listener.listen(4)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for script in self.scripts:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with conn:
                handle = conn.makefile("rwb")
                line = handle.readline()
                message = json.loads(line)
                self.submits.append(message)

                def send(msg):
                    handle.write(
                        (json.dumps(msg) + "\n").encode("utf-8")
                    )
                    handle.flush()

                script(message, send)
                # Hold the connection open (silently) until the client
                # abandons it, so "server stopped talking" is what the
                # client experiences — not a clean EOF.
                try:
                    handle.readline()
                except OSError:
                    pass

    def close(self):
        try:
            self._listener.close()
        finally:
            shutil.rmtree(self.home, ignore_errors=True)


def accepted(message, n):
    return {
        "event": "accepted",
        "batch": message["batch"],
        "n_points": n,
        "keys": None,
        "protocol": protocol.PROTOCOL_VERSION,
    }


def point(message, index, value, source="queued"):
    return {
        "event": "point",
        "batch": message["batch"],
        "index": index,
        "source": source,
        "result": protocol.encode_payload(value),
    }


def test_stalled_stream_reconnects_and_resumes():
    def first(message, send):
        send(accepted(message, 2))
        send(point(message, 0, "r0"))
        # ...then silence: the client's patience runs out.

    def second(message, send):
        # The daemon answers a re-submission idempotently: same batch,
        # full replay (index 0 now a result-store hit).
        send(accepted(message, 2))
        send(point(message, 0, "r0", source="cache"))
        send(point(message, 1, "r1"))
        send({"event": "done", "batch": message["batch"], "n_points": 2,
              "failures": 0, "sources": {"cache": 1, "queued": 1,
                                         "joined": 0}})

    server = ScriptedServer(first, second)
    try:
        with ServiceClient(socket_path=server.path, read_timeout=0.4) as client:
            results = client.submit_points(["p0", "p1"], batch_id="batch-X")
            assert results == ["r0", "r1"]
            assert client.resumes == 1
            assert client.last_summary["batch"] == "batch-X"
        # Both connections re-submitted the *same* batch id and points.
        assert len(server.submits) == 2
        assert server.submits[0] == server.submits[1]
        assert server.submits[0]["batch"] == "batch-X"
    finally:
        server.close()


def test_stall_budget_exhausted_raises():
    def mute(message, send):
        send(accepted(message, 1))
        # Never a single point, on any connection.

    server = ScriptedServer(mute, mute, mute, mute, mute)
    try:
        with ServiceClient(socket_path=server.path, read_timeout=0.2) as client:
            with pytest.raises(PointExecutionError, match="stalled"):
                client.submit_points(["p0"], batch_id="batch-Y")
            assert client.resumes == 3
    finally:
        server.close()


def test_no_deadline_when_disabled():
    # read_timeout=0 restores the wait-forever behavior; the server
    # answers after a pause longer than the old default would allow in
    # spirit (scaled down for test time).
    def slow(message, send):
        import time

        send(accepted(message, 1))
        time.sleep(0.5)
        send(point(message, 0, "r0"))
        send({"event": "done", "batch": message["batch"], "n_points": 1,
              "failures": 0, "sources": {"cache": 0, "queued": 1,
                                         "joined": 0}})

    server = ScriptedServer(slow)
    try:
        with ServiceClient(socket_path=server.path, read_timeout=0) as client:
            assert client.read_timeout is None
            assert client.submit_points(["p0"]) == ["r0"]
            assert client.resumes == 0
    finally:
        server.close()
