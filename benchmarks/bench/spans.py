"""Outside-in span tracing of the simulator's layers.

:func:`install` patches public functions and methods of the ``repro``
modules with timing wrappers; nothing under ``src/`` knows it is being
traced. Each wrapped call becomes a span ``(name, start, end, parent,
point)``: ``parent`` is the enclosing span, ``point`` the unit of work
the benchmark was running. A span's self time is its duration minus the
time its direct child spans cover.

Wrappers sit at call granularity, never per reference. The calls that
can run hundreds of thousands of times per point (:data:`FINE`) are not
kept one by one: they are summed per ``(name, parent, point)`` into an
aggregate, which keeps the trace file small without losing any time.

Patching happens before any ``Simulation`` is built, so the bound
methods the interpreters cache at the start of ``Simulation.run`` are
already the wrappers. A forked child (a sweep pool worker) restores the
originals at fork time and runs untraced.
"""

import collections
import functools
import json
import os
import sys
import time

perf = time.perf_counter

#: Spans summed per (name, parent, point) instead of kept individually.
FINE = frozenset(
    {
        "miss_engine.drain",
        "miss_engine.turn",
        "vector_mirror.sync",
        "hierarchy.access",
    }
)


class Tracer:
    """In-memory span store; :meth:`call` times one call as a span."""

    def __init__(self):
        self.t0 = perf()
        #: Recorded spans: [name, start, end, parent, point, self_s]; a
        #: span's id is its index here.
        self.spans = []
        #: (name, parent, point) -> [calls, total_s, self_s, id] for the
        #: FINE names; the id ("a0", "a1", ...) is the parent of spans
        #: opened inside those calls.
        self.fine = {}
        #: Counts taken at the span boundaries (refs drained, generated...).
        self.counts = collections.Counter()
        #: Label of the unit of work currently running.
        self.point = None
        self._stack = []  # open frames: [name, start, child_s, id]

    def call(self, name, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` as a span named ``name``."""
        stack = self._stack
        if stack and stack[-1][0] == name:
            # A method chaining to its base-class version: one span.
            return fn(*args, **kwargs)
        parent = stack[-1][3] if stack else None
        fine = name in FINE
        if fine:
            key = (name, parent, self.point)
            record = self.fine.get(key)
            if record is None:
                record = self.fine[key] = [0, 0.0, 0.0, "a%d" % len(self.fine)]
            node = record[3]
        else:
            node = len(self.spans)
            record = [name, 0.0, 0.0, parent, self.point, 0.0]
            self.spans.append(record)
        frame = [name, 0.0, 0.0, node]
        stack.append(frame)
        frame[1] = start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
            duration = end - start
            self_s = duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if fine:
                record[0] += 1
                record[1] += duration
                record[2] += self_s
            else:
                record[1] = start
                record[2] = end
                record[5] = self_s

    def totals(self):
        """``{name: [calls, total_s, self_s]}`` over every span so far."""
        out = {}
        for name, start, end, _parent, _point, self_s in self.spans:
            record = out.setdefault(name, [0, 0.0, 0.0])
            record[0] += 1
            record[1] += end - start
            record[2] += self_s
        for (name, _parent, _point), (calls, total, self_s, _id) in self.fine.items():
            record = out.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += self_s
        return out

    def dump(self, path):
        """Write every span, then every FINE aggregate, one JSON object a
        line; ``parent`` is the id of the enclosing span or aggregate."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, point, self_s) in enumerate(
                self.spans
            ):
                record = {
                    "id": index,
                    "name": name,
                    "start": start - self.t0,
                    "end": end - self.t0,
                    "parent": parent,
                    "point": point,
                    "self_s": self_s,
                }
                handle.write(json.dumps(record) + "\n")
            for (name, parent, point), (calls, total, self_s, node) in self.fine.items():
                record = {
                    "id": node,
                    "name": name,
                    "parent": parent,
                    "point": point,
                    "calls": calls,
                    "total_s": total,
                    "self_s": self_s,
                }
                handle.write(json.dumps(record) + "\n")


class _TimedTurns:
    """Proxy for a parked drain generator: each resume is one span.

    The multi-core interpreter drives these with ``next``, ``send`` and
    ``close`` only. ``close`` also resumes the generator (it flushes the
    deferred counters), so it is timed as a resume too.
    """

    __slots__ = ("_gen", "_tracer", "_pos")

    def __init__(self, tracer, gen, pos):
        self._gen = gen
        self._tracer = tracer
        self._pos = pos

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.__next__, ())

    def send(self, value):
        return self._resume(self._gen.send, (value,))

    def close(self):
        self._tracer.call("miss_engine.turn", self._gen.close, (), {})

    def _resume(self, step, args):
        tracer = self._tracer
        i = tracer.call("miss_engine.turn", step, args, {})
        tracer.counts["miss_engine.drained_refs"] += i - self._pos
        self._pos = i
        return i


def _spanned(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


class Instrumentation:
    """Installed wrappers, undone by :meth:`uninstall` (and in every
    forked child)."""

    def __init__(self):
        self._undo = []
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def patch_function(self, func, wrapper):
        """Rebind ``func`` everywhere a ``repro`` module holds it, so
        callers that imported it by name see the wrapper too."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._undo.append((module, attr, func))
                    setattr(module, attr, wrapper)


def install(tracer):
    """Wrap every traced layer; returns the :class:`Instrumentation`."""
    from repro.baselines.base import CrashConsistencyScheme
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.miss_engine import MissChainEngine
    from repro.cache.vector_mirror import TagMirror
    from repro.core.acs import AcsEngine
    from repro.core.recovery import check_recovered
    from repro.core.undo_buffer import UndoBuffer
    from repro.fault import harness
    from repro.sim import parallel
    from repro.sim.simulator import Simulation
    from repro.trace import synthetic

    inst = Instrumentation()
    span = functools.partial(_spanned, tracer)
    counts = tracer.counts

    inst.patch_method(Simulation, "__init__", span("sim.build", Simulation.__init__))
    sim_run = Simulation.run

    @functools.wraps(sim_run)
    def run(self, *args, **kwargs):
        result = tracer.call("sim.run", sim_run, (self,) + args, kwargs)
        counts["sim.refs"] += result.stat("loads") + result.stat("stores")
        return result

    inst.patch_method(Simulation, "run", run)

    make_drain = MissChainEngine.make_drain

    @functools.wraps(make_drain)
    def timed_make_drain(self, *args):
        drain = make_drain(self, *args)
        turn_gen = drain.turn_gen

        # wraps() copies drain.__dict__, so turn_gen is replaced below.
        @functools.wraps(drain)
        def timed_drain(i, *rest):
            ni = tracer.call("miss_engine.drain", drain, (i,) + rest, {})
            counts["miss_engine.drained_refs"] += ni - i
            return ni

        @functools.wraps(turn_gen)
        def timed_turn_gen(i, *rest, **kwargs):
            return _TimedTurns(tracer, turn_gen(i, *rest, **kwargs), i)

        timed_drain.turn_gen = timed_turn_gen
        return timed_drain

    inst.patch_method(MissChainEngine, "make_drain", timed_make_drain)
    inst.patch_method(TagMirror, "sync", span("vector_mirror.sync", TagMirror.sync))
    inst.patch_method(
        CacheHierarchy, "access", span("hierarchy.access", CacheHierarchy.access)
    )

    schemes = [CrashConsistencyScheme]
    for cls in schemes:
        schemes.extend(cls.__subclasses__())
    for cls in schemes:
        for attr, name in (
            ("on_epoch_boundary", "scheme.epoch_boundary"),
            ("finalize", "scheme.finalize"),
            ("recover", "recovery.recover"),
        ):
            if attr in cls.__dict__:
                inst.patch_method(cls, attr, span(name, cls.__dict__[attr]))

    inst.patch_method(AcsEngine, "scan", span("acs.scan", AcsEngine.scan))
    inst.patch_method(AcsEngine, "bulk_scan", span("acs.scan", AcsEngine.bulk_scan))
    inst.patch_method(UndoBuffer, "flush", span("undo_buffer.flush", UndoBuffer.flush))
    inst.patch_function(check_recovered, span("recovery.check", check_recovered))
    inst.patch_function(harness.run_cell, span("fault.cell", harness.run_cell))

    inst.patch_function(synthetic.make_trace, span("trace.gen", synthetic.make_trace))
    array_chunks = synthetic.SyntheticTrace._array_chunks

    @functools.wraps(array_chunks)
    def counted_chunks(self):
        for batch in array_chunks(self):
            counts["trace.refs"] += len(batch[0])
            yield batch

    inst.patch_method(synthetic.SyntheticTrace, "_array_chunks", counted_chunks)

    run_points = parallel.run_points

    @functools.wraps(run_points)
    def timed_run_points(points, *args, **kwargs):
        points = list(points)
        counts["parallel.points"] += len(points)
        return tracer.call("parallel.run_points", run_points, (points,) + args, kwargs)

    inst.patch_function(run_points, timed_run_points)
    inst.patch_method(
        parallel.ResultCache,
        "load",
        span("parallel.cache_load", parallel.ResultCache.load),
    )
    inst.patch_method(
        parallel.ResultCache,
        "store",
        span("parallel.cache_store", parallel.ResultCache.store),
    )
    retry_delay = parallel.retry_delay

    @functools.wraps(retry_delay)
    def counted_retry_delay(*args, **kwargs):
        counts["parallel.retries"] += 1
        return retry_delay(*args, **kwargs)

    inst.patch_function(retry_delay, counted_retry_delay)
    return inst
