"""Trace record/replay.

Synthetic traces are deterministic given a seed, but shipping the exact
reference stream matters when comparing across machines or against other
simulators. A trace file is a compact ``.npz`` holding three parallel
arrays (gaps, line addresses, write flags) plus the generating metadata.

::

    trace = make_trace(get_profile("gcc"), 1_000_000)
    save_trace("gcc.npz", trace)
    replay = load_trace("gcc.npz")          # a drop-in trace object
    Simulation(...).traces[0] = replay      # or drive it manually
"""

import numpy as np

from repro.common.errors import ConfigurationError
from repro.trace.synthetic import CHUNK_REFS, _FrozenChunk

_FORMAT_VERSION = 1


class RecordedTrace:
    """A materialized trace, API-compatible with SyntheticTrace."""

    def __init__(self, gaps, addrs, writes, n_instructions, source=""):
        if not (len(gaps) == len(addrs) == len(writes)):
            raise ConfigurationError("trace arrays must have equal length")
        self.gaps = np.asarray(gaps, dtype=np.int64)
        self.addrs = np.asarray(addrs, dtype=np.int64)
        self.writes = np.asarray(writes, dtype=bool)
        self.n_instructions = int(n_instructions)
        self.source = source

    def __len__(self):
        return len(self.gaps)

    @property
    def expected_refs(self):
        """Exact reference count (the trace is materialized)."""
        return len(self.gaps)

    def chunks(self, chunk_refs=CHUNK_REFS):
        """Yield TraceChunks exactly as the generator would."""
        for start in range(0, len(self.gaps), chunk_refs):
            end = start + chunk_refs
            yield _FrozenChunk(
                self.gaps[start:end], self.addrs[start:end], self.writes[start:end]
            ).thaw()


def record_trace(trace):
    """Materialize any trace (drains its chunks) into a RecordedTrace."""
    gaps, addrs, writes = [], [], []
    for chunk in trace.chunks():
        gaps.extend(chunk.gaps)
        addrs.extend(chunk.addrs)
        writes.extend(chunk.writes)
    source = getattr(getattr(trace, "profile", None), "name", "")
    return RecordedTrace(gaps, addrs, writes, trace.n_instructions, source)


def save_trace(path, trace):
    """Record ``trace`` and write it as a compressed .npz file."""
    recorded = trace if isinstance(trace, RecordedTrace) else record_trace(trace)
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        gaps=recorded.gaps,
        addrs=recorded.addrs,
        writes=recorded.writes,
        n_instructions=np.int64(recorded.n_instructions),
        source=np.str_(recorded.source),
    )
    return recorded


def load_trace(path):
    """Load a trace file saved by :func:`save_trace`."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ConfigurationError(
                "trace file version %d unsupported (expected %d)"
                % (version, _FORMAT_VERSION)
            )
        return RecordedTrace(
            data["gaps"],
            data["addrs"],
            data["writes"],
            int(data["n_instructions"]),
            str(data["source"]),
        )
