"""Protocol robustness fuzzing: hostile frames against a live daemon.

Truncated frames, non-JSON garbage, non-base64 payloads, frames
at/over the 64 MiB ``STREAM_LIMIT``, and ops the daemon does not speak
must each produce a *clean* protocol error — an ``error`` reply and/or a
closed connection — never a hung read loop or a dead daemon. Every test
finishes by pinging the daemon over a fresh connection to prove it
survived.
"""

import json
import socket

import pytest

from service.test_service import Daemon
from repro.service.client import ServiceClient
from repro.service.server import STREAM_LIMIT


@pytest.fixture(scope="module")
def daemon():
    daemon = Daemon(jobs=1).start()
    yield daemon
    daemon.cleanup()


class RawConnection:
    """A bare socket speaking newline frames (no client conveniences)."""

    def __init__(self, path, timeout=30.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def send_raw(self, data):
        self.file.write(data)
        self.file.flush()

    def recv_line(self):
        return self.file.readline()

    def close(self):
        try:
            self.file.close()
        finally:
            self.sock.close()


def assert_daemon_alive(daemon):
    with ServiceClient(socket_path=daemon.socket) as client:
        assert client.ping()


class TestMalformedFrames:
    def test_non_json_garbage_gets_error_reply(self, daemon):
        conn = RawConnection(daemon.socket)
        try:
            conn.send_raw(b"\x00\xff\xfenot json at all\n")
            reply = json.loads(conn.recv_line())
            assert reply["event"] == "error"
            assert "bad message" in reply["error"]
            # The connection is still usable for a valid op.
            conn.send_raw(b'{"op": "ping"}\n')
            assert json.loads(conn.recv_line())["event"] == "pong"
        finally:
            conn.close()
        assert_daemon_alive(daemon)

    def test_truncated_frame_gets_error_reply(self, daemon):
        conn = RawConnection(daemon.socket)
        try:
            # A submit cut off mid-object (still newline-terminated).
            conn.send_raw(b'{"op": "submit", "batch": "x", "points": ["A\n')
            reply = json.loads(conn.recv_line())
            assert reply["event"] == "error"
        finally:
            conn.close()
        assert_daemon_alive(daemon)

    def test_non_object_json_rejected(self, daemon):
        conn = RawConnection(daemon.socket)
        try:
            conn.send_raw(b"[1, 2, 3]\n")
            reply = json.loads(conn.recv_line())
            assert reply["event"] == "error"
            assert "JSON object" in reply["error"]
        finally:
            conn.close()
        assert_daemon_alive(daemon)

    def test_non_base64_points_rejected(self, daemon):
        conn = RawConnection(daemon.socket)
        try:
            message = {
                "op": "submit",
                "batch": "fuzz-b64",
                "points": ["!!!not base64!!!", "%%%"],
                "env": None,
            }
            conn.send_raw(json.dumps(message).encode() + b"\n")
            reply = json.loads(conn.recv_line())
            assert reply["event"] == "error"
            assert "undecodable points" in reply["error"]
        finally:
            conn.close()
        assert_daemon_alive(daemon)

    def test_valid_base64_invalid_pickle_rejected(self, daemon):
        conn = RawConnection(daemon.socket)
        try:
            message = {
                "op": "submit",
                "batch": "fuzz-pickle",
                "points": ["QUJDREVG"],  # b"ABCDEF": not a pickle
                "env": None,
            }
            conn.send_raw(json.dumps(message).encode() + b"\n")
            reply = json.loads(conn.recv_line())
            assert reply["event"] == "error"
            assert "undecodable points" in reply["error"]
        finally:
            conn.close()
        assert_daemon_alive(daemon)


class TestStreamLimit:
    def test_frame_near_limit_is_served(self, daemon):
        # A huge-but-legal frame parses and is answered normally.
        pad = "x" * (4 * 1024 * 1024)
        frame = (
            json.dumps({"op": "ping", "pad": pad}).encode() + b"\n"
        )
        assert len(frame) < STREAM_LIMIT
        conn = RawConnection(daemon.socket, timeout=120)
        try:
            conn.send_raw(frame)
            assert json.loads(conn.recv_line())["event"] == "pong"
        finally:
            conn.close()
        assert_daemon_alive(daemon)

    def test_frame_over_limit_clean_error_and_close(self, daemon):
        # One newline-less blob past STREAM_LIMIT: the daemon must
        # answer with a fatal protocol error (or just hang up) and
        # remain healthy — never crash or hang.
        conn = RawConnection(daemon.socket, timeout=120)
        try:
            blob = b"A" * (STREAM_LIMIT + 1024 * 1024)
            try:
                conn.send_raw(blob + b"\n")
            except (BrokenPipeError, ConnectionResetError):
                pass  # daemon already slammed the door mid-send: fine
            try:
                reply = conn.recv_line()
            except (ConnectionResetError, OSError):
                reply = b""
            if reply:
                parsed = json.loads(reply)
                assert parsed["event"] == "error"
                assert parsed.get("fatal")
            # Either way the connection ends instead of hanging.
            try:
                assert conn.recv_line() == b""
            except (ConnectionResetError, OSError):
                pass
        finally:
            conn.close()
        assert_daemon_alive(daemon)


#: Frames of the retired remote-worker protocol, as a worker sent them.
RETIRED_FRAMES = {
    "register": {"op": "register", "name": "fuzzer", "capabilities": {}},
    "heartbeat": {"op": "heartbeat", "worker": "fuzzer#1"},
    "unit_result": {
        "op": "unit_result",
        "worker": "fuzzer#1",
        "unit": "u1",
        "results": [],
    },
    "unit_error": {
        "op": "unit_error",
        "worker": "fuzzer#1",
        "unit": "u1",
        "error": "boom",
        "transient": True,
    },
}


class TestRetiredWorkerOps:
    @pytest.mark.parametrize("op", sorted(RETIRED_FRAMES))
    def test_rejected_as_unknown_op(self, daemon, op):
        conn = RawConnection(daemon.socket)
        try:
            conn.send_raw(json.dumps(RETIRED_FRAMES[op]).encode() + b"\n")
            reply = json.loads(conn.recv_line())
            assert reply == {"event": "error", "error": "unknown op %r" % op}
            # The connection stays a client connection.
            conn.send_raw(b'{"op": "ping"}\n')
            assert json.loads(conn.recv_line())["event"] == "pong"
        finally:
            conn.close()
        assert_daemon_alive(daemon)
