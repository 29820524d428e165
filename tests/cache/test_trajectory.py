"""The scheme-free tag pass against a plain LRU model.

:class:`repro.cache.trajectory.Trajectory` tags chunks with numpy
windows over last-touch stamps and a scalar step over per-set MRU
lists, converting between the two lazily. Whatever mix of the two a
chunk sequence takes, every code byte and every L2 victim must be what
a per-reference, three-level inclusive LRU cache with back-invalidation
gives.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.trajectory import L1_EVICT, L2_EVICT, LLC_MISS, Trajectory
from repro.cache.vector_mirror import MAX_LINES

LINE = 64


class LruModel:
    """L1 ⊆ L2 ⊆ LLC, each set an MRU-first list, one reference at a time.

    A miss fills every level below the one that served it, LLC first;
    an LLC victim takes its L2 and L1 copies with it, an L2 victim its
    L1 copy.
    """

    def __init__(self, geometry):
        l1_sets, l1_ways, l2_sets, l2_ways, llc_sets, llc_ways, _line = geometry
        self.levels = [
            ([[] for _ in range(sets)], ways)
            for sets, ways in (
                (l1_sets, l1_ways), (l2_sets, l2_ways), (llc_sets, llc_ways)
            )
        ]

    def row(self, level, addr):
        rows, _ways = self.levels[level]
        return rows[(addr // LINE) % len(rows)]

    def insert(self, level, addr):
        """Fill ``addr`` at ``level``; returns the LRU victim or None."""
        row = self.row(level, addr)
        row.insert(0, addr)
        if len(row) > self.levels[level][1]:
            return row.pop()
        return None

    def drop(self, level, addr):
        row = self.row(level, addr)
        if addr in row:
            row.remove(addr)

    def access(self, addr):
        """Returns the reference's trajectory byte and its L2 victim."""
        level = 3
        for probe in range(3):
            row = self.row(probe, addr)
            if addr in row:
                row.remove(addr)
                row.insert(0, addr)
                level = probe
                break
        if level == 0:
            return 0, None
        code = level
        victim = None
        if level == LLC_MISS:
            evicted = self.insert(2, addr)
            if evicted is not None:
                self.drop(1, evicted)
                self.drop(0, evicted)
        if level >= 2:
            victim = self.insert(1, addr)
            if victim is not None:
                code |= L2_EVICT
                self.drop(0, victim)
        if self.insert(0, addr) is not None:
            code |= L1_EVICT
        return code, victim

    def l1_lines(self):
        return [addr for row in self.levels[0][0] for addr in row]


class _Chunk:
    """What ``Trajectory.chunk_codes`` reads of a trace chunk."""

    def __init__(self, addrs):
        self.frozen = self
        self.addrs = np.array(addrs, dtype=np.int64)


def l1_order(trajectory):
    """The tag pass's L1 LRU order: its MRU lists, or its mirror's stamps
    while they hold an order the lists do not."""
    mirror = trajectory._mirror
    if trajectory._stale and mirror.slots is not None:
        return mirror.rows()
    return trajectory._rows[0]


def check_chunk(trajectory, model, index, addrs):
    codes, victims = trajectory.chunk_codes(index, _Chunk(addrs))
    want = [model.access(addr) for addr in addrs]
    assert codes.tolist() == [code for code, _victim in want]
    assert victims.tolist() == [v for _code, v in want if v is not None]
    assert l1_order(trajectory) == model.levels[0][0]


def check_chunks(geometry, chunks):
    model = LruModel(geometry)
    trajectory = Trajectory(geometry, keep=False)
    for index, lines in enumerate(chunks):
        check_chunk(trajectory, model, index, [n * LINE for n in lines])
    return trajectory


def hierarchies(l1_sets, l1_ways, l2_sets, l2_ways, llc_sets, llc_ways):
    """Geometries whose L2 and LLC have at least the L1's sets."""
    l2_sets *= l1_sets
    return (l1_sets, l1_ways, l2_sets, l2_ways, l2_sets * llc_sets, llc_ways, LINE)


sizes = st.sampled_from((1, 2, 4))
geometries = st.builds(
    hierarchies, st.sampled_from((1, 2, 4, 8)), sizes, st.sampled_from((1, 2)),
    sizes, st.sampled_from((1, 2)), sizes,
)

#: A chunk: how often it leaves the L1, then (pick, run length) pairs.
#: One pick in ``every`` (none for 0) takes a line of the whole universe,
#: which may miss; the others take one of the lines in L1 when the chunk
#: starts, which hit. So 0 gives an all-hit chunk, 1 a miss burst, and
#: the rates between alternate numpy windows with scalar bursts.
every = st.sampled_from((0, 1, 4, 32, 96))
picks = st.lists(
    st.tuples(st.integers(0, 1 << 12), st.integers(1, 3)), min_size=1, max_size=400
)
relaxed = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(
    geometry=geometries,
    chunks=st.lists(st.tuples(every, picks), min_size=1, max_size=8),
    far=st.booleans(),
)
@relaxed
def test_tag_pass_matches_the_lru_model(geometry, chunks, far):
    check_sequence(geometry, chunks, far)


def check_sequence(geometry, chunks, far):
    # Twice the L1's lines and two more, plus (with ``far``) three line
    # numbers past MAX_LINES, which turn the mirror off and leave the
    # rest to the scalar step.
    universe = list(range(2 * geometry[0] * geometry[1] + 2))
    if far:
        universe += [MAX_LINES + n for n in range(3)]
    model = LruModel(geometry)
    trajectory = Trajectory(geometry, keep=False)
    for index, (rate, pairs) in enumerate(chunks):
        resident = model.l1_lines()
        addrs = []
        for pick, run in pairs:
            if resident and not (rate and pick % rate == 0):
                addr = resident[pick % len(resident)]
            else:
                addr = universe[pick % len(universe)] * LINE
            addrs += [addr] * run
        check_chunk(trajectory, model, index, addrs)


# The hand-overs between the numpy windows and the scalar step, one by
# one, on a fresh pass (windows of 64 heads, bursts of 16). A, B, C, D
# share the one set of a 4-way L1; E misses and evicts its LRU line.
A, B, C, D, E = range(5)
ONE_SET = (1, 4, 4, 4, 8, 4, LINE)


def test_window_hitting_to_its_end_then_a_miss():
    # A burst of 16 heads, a window of 64 hits leaving C the LRU line,
    # then a window that misses at once: the burst after it must still
    # see that window's order.
    check_chunks(ONE_SET, [[A, B, C, D] * 4 + [C, D, A, B] * 16 + [E, A, B, C, D] * 4])


def test_all_hit_chunk_then_a_chunk_opening_with_a_miss():
    check_chunks(ONE_SET, [[A, B, C, D], [C, D, A, B] * 4, [E, A, B, C, D] * 4])


def test_next_chunk_stamps_after_the_last_ones_windows():
    # The first chunk's windows stamp B, C, D, A last; the second hits C
    # and D at its own first positions, so E must evict B.
    check_chunks(ONE_SET, [[A, B, C, D] * 4 + [B, C, D, A] * 16, [C, D, E, C, B, A]])


def test_burst_hit_reorders_a_set_it_fills_nothing_into():
    # L1 sets: 0 holds lines 0, 2, 4; 1 holds 1, 3, 5. The burst from the
    # miss on 5 hits 2 (set 0's order changes, no fill there); the
    # windows after it touch only set 1; the miss on 4 must evict 0.
    two_sets = (2, 2, 4, 4, 8, 4, LINE)
    warm = [0, 2, 1, 3] * 4 + [2, 0, 3, 1] * 16
    check_chunks(two_sets, [warm + [5, 2] + [1, 5] * 60 + [4, 2, 0]])


def test_mirror_off_mid_trace_matches_the_lru_model():
    warm = [A, B, C, D] * 40
    trajectory = check_chunks(
        ONE_SET, [warm, warm[::-1], warm + [MAX_LINES + 1] + warm, warm + [9, 13] * 20]
    )
    assert trajectory._mirror.slots is None


@given(st.lists(st.integers(0, 15), min_size=1, max_size=300))
def test_scatter_keeps_each_slots_last_write(slots):
    # TagMirror.hit_prefix stamps a window's slots with one fancy
    # assignment of ascending positions, relying on NumPy keeping the
    # last write to a repeated index: the same as a maximum.
    slots = np.array(slots, dtype=np.intp)
    ramp = np.arange(len(slots))
    last = np.full(16, -1, dtype=np.int64)
    last[slots] = ramp
    peak = np.full(16, -1, dtype=np.int64)
    np.maximum.at(peak, slots, ramp)
    assert last.tolist() == peak.tolist()


def test_scatter_keeps_the_last_write_on_chunk_sized_windows():
    rng = np.random.default_rng(7)
    for n_slots in (64, 512):
        slots = rng.integers(0, n_slots, size=8192).astype(np.intp)
        ramp = np.arange(len(slots))
        last = np.full(n_slots, -1, dtype=np.int64)
        last[slots] = ramp
        peak = np.full(n_slots, -1, dtype=np.int64)
        np.maximum.at(peak, slots, ramp)
        assert last.tolist() == peak.tolist()
