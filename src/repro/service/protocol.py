"""The sweep service's wire protocol: one JSON object per line.

Requests (client to server) carry an ``op``; responses (server to
client) carry an ``event``. A ``submit`` fans out into a stream:
``accepted``, then one ``point``/``point_error`` per point *in
completion order* (each tagged with its input ``index``), then ``done``.

Simulation objects (``RunPoint``, ``SimulationResult``) ride inside the
JSON as base64-encoded pickles — the same serialization the on-disk
result cache uses, and with the same trust model: the service is for
local, cooperating clients (unix socket by default), not a hardened
network endpoint.
"""

import base64
import json
import pickle

#: Bump on incompatible wire changes; both sides send it in handshakes.
PROTOCOL_VERSION = 1


def encode_payload(obj):
    """A python object as a JSON-safe base64 pickle string."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_payload(text):
    """Invert :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def dumps(message):
    """One protocol message as a newline-terminated bytes line."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def loads(line):
    """Parse one received line (bytes or str) into a message dict.

    Raises ValueError on malformed input (bad JSON or a non-object).
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ValueError("protocol message must be a JSON object")
    return message


def submit_points(batch_id, points, env=None):
    """A submit request carrying explicit, client-built RunPoints.

    ``env`` is the client's engine-flag capture
    (:func:`repro.sim.parallel.engine_env`): a plain string dict the
    server pins into the worker processes that run this batch. ``None``
    means the client expressed no preference (daemon environment wins).
    """
    return {
        "op": "submit",
        "protocol": PROTOCOL_VERSION,
        "batch": batch_id,
        "points": [encode_payload(point) for point in points],
        "env": env,
    }


def submit_figure(
    batch_id, figure, preset=None, benchmarks=None, epochs=None, env=None
):
    """A submit request the server decomposes via the figure registry."""
    return {
        "op": "submit",
        "protocol": PROTOCOL_VERSION,
        "batch": batch_id,
        "figure": figure,
        "preset": preset,
        "benchmarks": list(benchmarks) if benchmarks is not None else None,
        "epochs": epochs,
        "env": env,
    }
