"""The trajectory replay's store-run dedupe against its dict definition.

A run of L1 hits holding at least ``_BULK_STORES`` stores writes its
silent stores in bulk: each stored line once, in first-store order, with
the token of its last store, and the first store of each line tagged
with another EID (the cross-epoch store) runs ``on_store`` at its own
index. :func:`repro.sim.simulator.store_lines` computes that in numpy;
the replay once built it from two insertion-ordered dicts, which
``by_dict`` keeps as the definition.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.simulator import store_lines

LINE = 64

#: Address bases: core 0's and a far core's address space.
BASES = st.sampled_from((0, 1 << 40))
#: Line strides: 64-line spans under 64 KiB (sorted as 16-bit offsets),
#: up to twice that, and far wider (both sorted as addresses).
STRIDES = st.sampled_from((LINE, 1 << 10, 1 << 11, 1 << 20))
LINE_IDS = st.lists(st.integers(0, 63), min_size=1, max_size=300)


def by_dict(addrs, tok0):
    """``(lines, last tokens, first store indices)`` from the dicts the
    bulk-run code built: one over the stores in order (each line's last
    token, lines in first-store order) and one over them reversed (each
    line's first store)."""
    last = dict(zip(addrs, range(tok0, tok0 + len(addrs))))
    first = dict(zip(reversed(addrs), range(len(addrs) - 1, -1, -1)))
    return list(last), list(last.values()), [first[a] for a in last]


def by_numpy(addrs, tok0):
    lines, first, last = store_lines(np.array(addrs, dtype=np.int64))
    return lines.tolist(), (last + tok0).tolist(), first.tolist()


def cross_walk(result, cross):
    """The cross-epoch stores of a run, in the order the replay runs
    them: ``(line, first store index)`` of each line in ``cross``."""
    lines, _tokens, first = result
    return [(a, j) for a, j in zip(lines, first) if a in cross]


def addresses(line_ids, base, stride):
    return [base + stride * i for i in line_ids]


@settings(max_examples=200, deadline=None)
@given(LINE_IDS, BASES, STRIDES, st.integers(0, 1 << 20))
def test_interleaved_repeats(line_ids, base, stride, tok0):
    addrs = addresses(line_ids, base, stride)
    assert by_numpy(addrs, tok0) == by_dict(addrs, tok0)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 300), BASES, st.integers(0, 63))
def test_one_line(n, base, line_id):
    addrs = [base + LINE * line_id] * n
    assert by_numpy(addrs, 5) == by_dict(addrs, 5) == ([addrs[0]], [n + 4], [0])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 1 << 30), min_size=1, max_size=200, unique=True),
    BASES,
    STRIDES,
)
def test_all_lines_distinct(line_ids, base, stride):
    addrs = addresses(line_ids, base, stride)
    expected = (addrs, list(range(len(addrs))), list(range(len(addrs))))
    assert by_numpy(addrs, 0) == by_dict(addrs, 0) == expected


@pytest.mark.parametrize("place", ["first", "middle", "last"])
@settings(max_examples=60, deadline=None)
@given(
    others=st.lists(st.integers(1, 63), min_size=2, max_size=200),
    repeats=st.integers(0, 5),
    more_cross=st.sets(st.integers(1, 63), max_size=8),
    base=BASES,
    stride=STRIDES,
)
def test_cross_epoch_store(place, others, repeats, more_cross, base, stride):
    """Line 0 is tagged with another EID, and its first store comes
    first, in the middle or last in the run (then no repeat follows);
    some other lines may be cross-epoch too."""
    at = {"first": 0, "middle": len(others) // 2, "last": len(others)}[place]
    line_ids = others[:at] + [0] + others[at:]
    if place != "last":
        line_ids += [0] * repeats
    addrs = addresses(line_ids, base, stride)
    cross = {base} | set(addresses(more_cross, base, stride))
    numpy_result = by_numpy(addrs, 0)
    assert numpy_result == by_dict(addrs, 0)
    walk = cross_walk(numpy_result, cross)
    assert (base, at) in walk
    assert walk == cross_walk(by_dict(addrs, 0), cross)
    # The crash path writes the stores before a cross-epoch store: the
    # dedupe of that prefix.
    if at:
        assert by_numpy(addrs[:at], 0) == by_dict(addrs[:at], 0)
