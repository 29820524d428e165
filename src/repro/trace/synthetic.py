"""Synthetic trace generation.

A trace is a deterministic stream of memory references, delivered in numpy
chunks for generation speed and consumed one reference at a time by the
simulator. Each reference is ``(gap, line_addr, is_write)`` where ``gap``
is the number of non-memory instructions preceding it (the in-order core
charges them one cycle each, per Table IV's "CPI 1 non-memory
instructions").

Three address components are mixed per the profile's fractions:

* a **sequential streamer** walking the working set line by line (spatial
  locality: consecutive references fill NVM rows and page-granularity
  translation entries),
* a **pointer chaser** sampling lines uniformly (no locality), and
* a **zipfian reuse** component sampling lines with configurable skew
  (temporal locality: a hot subset absorbs most references).

Hot zipfian lines are deliberately scattered across the address space so
temporal and spatial locality stay independent knobs.

Two speed facilities live alongside the generator:

* **Batch metadata and lazy boxing** (:class:`_FrozenChunk`,
  :class:`TraceChunk`): cumulative instruction and store counts and
  same-line run lengths, computed once per chunk with numpy. The batched
  single-core interpreter uses them to place epoch and crash boundaries
  without per-reference checks and to coalesce same-line runs (see
  :mod:`repro.sim.simulator`); the columnar one also reads them straight
  from numpy and boxes only the blocks it replays one at a time.
* **Cross-scheme memoization** (:func:`make_trace`): figure sweeps drive
  the identical stream through every scheme at each (benchmark, config,
  seed) point, so generated chunks are memoized per process, keyed on
  ``(profile, n_instructions, seed, addr_base)``. Set
  ``REPRO_NO_TRACE_MEMO=1`` to force fresh generation every time.
"""

import collections
import os

import numpy as np

from repro.common.address import LINE_SIZE
from repro.common.errors import ConfigurationError

#: Size of internally generated numpy batches.
CHUNK_REFS = 8192

#: Rank table cap for zipf sampling (beyond this, ranks alias).
_MAX_ZIPF_RANKS = 1 << 16


def _run_ends_array(addrs):
    """Exclusive end of the same-line run starting at each index (numpy).

    ``breaks[i]`` is True when the run cannot extend past reference ``i``;
    ``run_ends[i]`` is then the nearest break at or after ``i``, plus one.
    """
    n = len(addrs)
    if n == 1:
        return np.ones(1, dtype=np.int64)
    breaks = np.empty(n, dtype=bool)
    breaks[:-1] = addrs[1:] != addrs[:-1]
    breaks[-1] = True
    ends = np.where(breaks, np.arange(1, n + 1), n)
    return np.minimum.accumulate(ends[::-1])[::-1]


def _run_cum_array(addrs):
    """Inclusive cumulative count of same-line run starts (numpy)."""
    n = len(addrs)
    starts = np.ones(n, dtype=np.int64)
    if n > 1:
        starts[1:] = addrs[1:] != addrs[:-1]
    return np.cumsum(starts)


#: References boxed per thaw block: :meth:`TraceChunk.thaw` converts
#: whole blocks, so scattered residual replays cost one small slice each.
THAW_BLOCK = 64

#: The :class:`_FrozenChunk` arrays an exact replay reads one reference
#: at a time, in :attr:`TraceChunk.lists` order.
_REPLAY_COLUMNS = ("gaps", "addrs", "writes", "cum", "run_ends", "write_cum")


def _column(index, doc):
    """A TraceChunk replay column read whole: thaws the chunk first."""

    def read(self):
        self.ensure_metadata()
        return self.lists[index]

    return property(read, doc=doc)


class TraceChunk:
    """One batch of references, boxed into Python lists on demand.

    The per-reference loops index Python lists (numpy scalar reads cost
    several times a list read), but the columnar interpreter bulk-applies
    most of a hit-dominated chunk straight from the numpy columns of its
    :class:`_FrozenChunk` and never reads those references one at a time.
    So a chunk starts with every list slot ``None`` and :meth:`thaw`
    boxes only the blocks a caller is about to replay; an unthawed slot
    fails loudly (``None`` in arithmetic) instead of reading wrong data.

    The column attributes (``gaps``, ``addrs``, ``writes``,
    ``cum_instructions``, ``run_ends``, ``write_cum``, and ``run_cum``,
    which no replay reads and so is boxed only here) return complete
    lists, thawing the whole chunk first, so every consumer that walks a
    chunk end to end — the scalar loops, the multi-core paths,
    calibration, record/replay — reads them as plain lists.
    :attr:`lists` hands out the same replay lists without thawing.
    """

    __slots__ = (
        "frozen",
        "instructions",
        "lists",
        "thawed_refs",
        "_filled",
        "_run_cum",
    )

    def __init__(self, frozen):
        #: The numpy columns and metadata (see :class:`_FrozenChunk`).
        self.frozen = frozen
        self.instructions = frozen.instructions
        n = len(frozen)
        #: The replay columns as lists, in ``_REPLAY_COLUMNS`` order,
        #: filled block by block by :meth:`thaw`.
        self.lists = tuple([None] * n for _ in _REPLAY_COLUMNS)
        #: References boxed so far (whole blocks).
        self.thawed_refs = 0
        self._filled = bytearray(-(-n // THAW_BLOCK))
        self._run_cum = None

    def __len__(self):
        return len(self.frozen)

    gaps = _column(0, "Non-memory instructions before each reference.")
    addrs = _column(1, "Line address of each reference.")
    writes = _column(2, "True for each store.")
    cum_instructions = _column(
        3,
        "Inclusive cumulative instruction count (``sum(gaps[:i+1]) + i + 1``):"
        " segments the chunk at epoch/crash boundaries.",
    )
    run_ends = _column(
        4, "Exclusive end of the same-line run starting at each reference."
    )
    write_cum = _column(5, "Inclusive cumulative store count.")

    @property
    def run_cum(self):
        """Inclusive cumulative count of same-line run starts, boxed whole
        on first read: the multi-core columnar interpreter sizes work in
        coalescing groups, in O(1)."""
        if self._run_cum is None:
            self._run_cum = self.frozen.run_cum.tolist()
        return self._run_cum

    def thaw(self, lo, hi):
        """Box every replay column of the blocks covering ``[lo, hi)``.

        Idempotent and cheap when the range is already thawed; each
        contiguous run of unfilled blocks costs one slice per column.
        """
        filled = self._filled
        frozen = self.frozen
        block = THAW_BLOCK
        end = -(-hi // block)
        b = filled.find(0, lo // block if lo > 0 else 0, end)
        while b >= 0:
            e = filled.find(1, b, end)
            if e < 0:
                e = end
            s = b * block
            t = min(e * block, len(frozen))
            for lst, name in zip(self.lists, _REPLAY_COLUMNS):
                lst[s:t] = getattr(frozen, name)[s:t].tolist()
            filled[b:e] = b"\x01" * (e - b)
            self.thawed_refs += t - s
            b = filled.find(0, e, end)
        return self

    def ensure_metadata(self):
        """Thaw the whole chunk (idempotent); returns the chunk."""
        return self.thaw(0, len(self.frozen))


def _zipf_cdf(n_ranks, alpha):
    ranks = np.arange(1, n_ranks + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _scatter(ranks, n_lines):
    """Map zipf ranks onto lines spread across the working set.

    Multiplying by a large odd constant modulo the line count permutes
    ranks pseudo-randomly, so the hottest lines are not also adjacent.
    """
    return (ranks * 2654435761) % n_lines


class SyntheticTrace:
    """Deterministic reference stream for one benchmark profile."""

    def __init__(self, profile, n_instructions, seed=0, addr_base=0):
        if n_instructions <= 0:
            raise ConfigurationError("n_instructions must be positive")
        self.profile = profile
        self.n_instructions = n_instructions
        self.addr_base = addr_base
        self._rng = np.random.default_rng(seed)
        self._n_lines = max(32, profile.working_set_bytes // LINE_SIZE)
        self._seq_pos = 0
        n_ranks = min(self._n_lines, _MAX_ZIPF_RANKS)
        self._zipf_cdf = _zipf_cdf(n_ranks, max(profile.zipf_alpha, 0.01))
        # Bias-redirected stores reuse a steeper distribution over the same
        # rank->line mapping: the write-hot set is a subset of the read-hot
        # set, just much smaller (see WorkloadProfile.write_zipf_bias).
        self._zipf_cdf_writes = _zipf_cdf(n_ranks, profile.zipf_alpha + 0.7)
        self._instructions_emitted = 0

    @property
    def expected_refs(self):
        """Approximate number of references the trace will emit."""
        return int(self.n_instructions * self.profile.mem_ratio)

    def chunks(self):
        """Yield :class:`TraceChunk` batches until the instruction budget ends."""
        for gaps, addrs, writes in self._array_chunks():
            yield _FrozenChunk(gaps, addrs, writes).thaw()

    def _array_chunks(self):
        """Yield ``(gaps, addrs, writes)`` numpy batches.

        The memo freezes these arrays directly (no round trip through
        Python lists); :meth:`chunks` wraps them in the chunks the
        simulator consumes.
        """
        profile = self.profile
        mem_ratio = profile.mem_ratio
        while self._instructions_emitted < self.n_instructions:
            n = CHUNK_REFS
            gaps = self._rng.geometric(mem_ratio, size=n) - 1
            writes = self._rng.random(n) < profile.write_frac
            addrs = self._make_addresses(n, writes)
            instructions = int(gaps.sum()) + n
            budget = self.n_instructions - self._instructions_emitted
            if instructions > budget:
                # Trim the chunk to the instruction budget.
                cumulative = np.cumsum(gaps + 1)
                cut = int(np.searchsorted(cumulative, budget, side="right")) + 1
                cut = max(1, min(cut, n))
                gaps = gaps[:cut]
                addrs = addrs[:cut]
                writes = writes[:cut]
                instructions = int(gaps.sum()) + cut
            self._instructions_emitted += instructions
            yield gaps, addrs, writes

    def _make_addresses(self, n, writes):
        profile = self.profile
        n_lines = self._n_lines
        selector = self._rng.random(n)
        line_ids = np.empty(n, dtype=np.int64)

        seq_frac = profile.seq_frac
        chase_frac = profile.chase_frac
        seq_bias = profile.write_seq_bias
        zipf_bias = profile.write_zipf_bias
        if seq_bias > 0.0 or zipf_bias > 0.0:
            # Stores redistribute: ``seq_bias`` of the mass moves to the
            # sequential stream, ``zipf_bias`` to the hot set, and the rest
            # keeps the loads' proportions.
            remainder = 1.0 - seq_bias - zipf_bias
            seq_w = seq_bias + remainder * seq_frac
            chase_w = remainder * chase_frac
            seq_cut = np.where(writes, seq_w, seq_frac)
            chase_cut = seq_cut + np.where(writes, chase_w, chase_frac)
        else:
            seq_cut = seq_frac
            chase_cut = seq_frac + chase_frac

        seq_mask = selector < seq_cut
        chase_mask = (~seq_mask) & (selector < chase_cut)
        zipf_mask = ~(seq_mask | chase_mask)

        n_seq = int(seq_mask.sum())
        if n_seq:
            run = max(1, profile.seq_run)
            positions = self._seq_pos + np.arange(n_seq, dtype=np.int64)
            line_ids[seq_mask] = (positions // run) % n_lines
            self._seq_pos = (self._seq_pos + n_seq) % (n_lines * run)

        n_chase = int(chase_mask.sum())
        if n_chase:
            line_ids[chase_mask] = self._rng.integers(0, n_lines, size=n_chase)

        n_zipf = int(zipf_mask.sum())
        if n_zipf:
            uniform = self._rng.random(n_zipf)
            zipf_writes = writes[zipf_mask]
            ranks = np.where(
                zipf_writes,
                np.searchsorted(self._zipf_cdf_writes, uniform),
                np.searchsorted(self._zipf_cdf, uniform),
            )
            line_ids[zipf_mask] = _scatter(ranks.astype(np.int64), n_lines)

        return self.addr_base + line_ids * LINE_SIZE


class _FrozenChunk:
    """Chunk storage: compact numpy arrays, nothing boxed.

    Every :class:`TraceChunk` is built from one of these — by the
    generator, the memo and :class:`repro.trace.tracefile.RecordedTrace`
    alike — so the batch-interpreter metadata is computed here, once, on
    the arrays. The memo keeps the frozen chunks themselves: holding
    generated streams as Python lists would keep millions of boxed ints
    resident for the life of the process, and that residency measurably
    degrades allocator/cache locality for *every subsequent simulation*
    (~20% on the throughput harness). Numpy arrays are contiguous, 8 bytes
    per element, and invisible to the GC, so a frozen trace costs only its
    raw bytes; :meth:`thaw` delivers a fresh :class:`TraceChunk` whose
    lists are transient (they die with the chunk after it is consumed).
    """

    __slots__ = (
        "gaps",
        "addrs",
        "writes",
        "instructions",
        "cum",
        "run_ends",
        "run_cum",
        "write_cum",
    )

    def __init__(self, gaps, addrs, writes):
        self.gaps = gaps
        self.addrs = addrs
        self.writes = writes
        self.cum = np.cumsum(gaps + 1)
        self.instructions = int(self.cum[-1])
        self.write_cum = np.cumsum(writes.astype(np.int64))
        self.run_ends = _run_ends_array(addrs)
        self.run_cum = _run_cum_array(addrs)

    def __len__(self):
        return len(self.gaps)

    def thaw(self):
        """A fresh, unthawed :class:`TraceChunk` over these arrays."""
        return TraceChunk(self)


class MaterializedTrace:
    """A replayable trace over memoized frozen chunks.

    API-compatible with :class:`SyntheticTrace` for every consumer (the
    simulator, calibration, record/replay); unlike the generator its
    :meth:`chunks` can be drained any number of times. Memo hits share the
    frozen storage; each replay thaws its own transient chunks.
    """

    def __init__(self, profile, n_instructions, addr_base, chunks):
        self.profile = profile
        self.n_instructions = n_instructions
        self.addr_base = addr_base
        self._chunks = chunks

    @property
    def expected_refs(self):
        """Same estimate SyntheticTrace reports (consumers see no change)."""
        return int(self.n_instructions * self.profile.mem_ratio)

    def chunks(self):
        """Yield a fresh :class:`TraceChunk` per frozen chunk, in order."""
        for frozen in self._chunks:
            yield frozen.thaw()


#: Per-trace memoization cap: streams expected to exceed this many
#: references are generated fresh (never held resident) to bound memory.
_TRACE_MEMO_MAX_REFS = 2_000_000

#: Total references held across all memoized traces; least-recently-used
#: streams are evicted past this.
_TRACE_MEMO_TOTAL_REFS = 4_000_000

#: key -> (chunk list, reference count), LRU order. Per-process: parallel
#: sweep workers each keep their own memo (see repro.sim.parallel, which
#: groups same-trace points onto one worker so the memo actually hits).
_trace_memo = collections.OrderedDict()


def clear_trace_memo():
    """Drop every memoized trace (tests, memory pressure)."""
    _trace_memo.clear()


def make_trace(profile, n_instructions, seed=0, addr_base=0):
    """Build the reference stream for ``profile``.

    ``addr_base`` offsets the whole working set; multiprogram runs give each
    core a disjoint base so programs never share lines (SPEC rate-style).

    Generated chunks are memoized per process under
    ``(profile, n_instructions, seed, addr_base)``: every figure drives the
    identical stream through six schemes, so five of the six generations
    (and their batch-metadata passes) are saved. The stream itself is
    bit-identical either way — memo hits replay the very chunks a fresh
    generator would emit. ``REPRO_NO_TRACE_MEMO=1`` disables memoization;
    traces expected to exceed ``_TRACE_MEMO_MAX_REFS`` references bypass it
    to bound resident memory.
    """
    if os.environ.get("REPRO_NO_TRACE_MEMO"):
        return SyntheticTrace(profile, n_instructions, seed=seed, addr_base=addr_base)
    if n_instructions > 0 and int(n_instructions * profile.mem_ratio) > _TRACE_MEMO_MAX_REFS:
        return SyntheticTrace(profile, n_instructions, seed=seed, addr_base=addr_base)
    key = (profile, n_instructions, seed, addr_base)
    entry = _trace_memo.get(key)
    if entry is None:
        source = SyntheticTrace(
            profile, n_instructions, seed=seed, addr_base=addr_base
        )
        chunks = [
            _FrozenChunk(gaps, addrs, writes)
            for gaps, addrs, writes in source._array_chunks()
        ]
        refs = sum(len(chunk) for chunk in chunks)
        _trace_memo[key] = (chunks, refs)
        total = sum(held for _chunks, held in _trace_memo.values())
        while total > _TRACE_MEMO_TOTAL_REFS and len(_trace_memo) > 1:
            _evicted, (_dropped, held) = _trace_memo.popitem(last=False)
            total -= held
    else:
        chunks, _refs = entry
        _trace_memo.move_to_end(key)
    return MaterializedTrace(profile, n_instructions, addr_base, chunks)
