"""Lightweight statistics counters.

Every subsystem owns a :class:`StatCounters` and increments named counters;
the simulator merges them into one result at the end of a run. Counters are
created on first use so subsystems never need to pre-declare them, and a
snapshot/diff facility supports measuring a window of execution (e.g., one
epoch) in isolation.

Hot call sites (the cache hierarchy's per-access counters, the NVM device's
IOPS accounting) pre-resolve their counter once via :meth:`StatCounters.slot`
and then bump ``slot.value`` directly, skipping the per-call prefix
concatenation and dict probe of :meth:`StatCounters.add`. A slot whose value
is zero is indistinguishable from a counter that was never touched — it does
not appear in snapshots, diffs, or ``items()`` — preserving the
created-on-first-use semantics for pre-registered slots.
"""


class Slot:
    """A pre-resolved counter cell: hot paths do ``slot.value += n``."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = value

    def __repr__(self):
        return "Slot(%r)" % (self.value,)


class StatCounters:
    """A named bag of numeric counters with snapshot/diff support."""

    def __init__(self, prefix=""):
        self._prefix = prefix
        self._counters = {}
        self._slots = {}

    def slot(self, name):
        """Pre-resolve ``name`` into a :class:`Slot` for hot-path updates.

        The counter's current value (if any) moves into the slot; further
        ``add``/``set``/``get`` calls on the same name keep working and see
        the slot's value.
        """
        key = self._prefix + name
        cell = self._slots.get(key)
        if cell is None:
            cell = self._slots[key] = Slot(self._counters.pop(key, 0))
        return cell

    def add(self, name, amount=1):
        """Increment counter ``name`` by ``amount`` (created at 0 if new)."""
        key = self._prefix + name
        cell = self._slots.get(key)
        if cell is not None:
            cell.value += amount
        else:
            self._counters[key] = self._counters.get(key, 0) + amount

    def set(self, name, value):
        """Set counter ``name`` to ``value`` exactly."""
        key = self._prefix + name
        cell = self._slots.get(key)
        if cell is not None:
            cell.value = value
        else:
            self._counters[key] = value

    def get(self, name, default=0):
        """Return the value of counter ``name`` (``default`` if never set)."""
        key = self._prefix + name
        cell = self._slots.get(key)
        if cell is not None:
            return cell.value
        return self._counters.get(key, default)

    def items(self):
        """Read-only iteration over every ``(name, value)`` pair."""
        for key, value in self._counters.items():
            yield key, value
        for key, cell in self._slots.items():
            if cell.value:
                yield key, cell.value

    def snapshot(self):
        """Return a frozen copy of every counter."""
        snap = dict(self._counters)
        for key, cell in self._slots.items():
            if cell.value:
                snap[key] = cell.value
        return snap

    def diff(self, earlier_snapshot):
        """Return counter deltas since ``earlier_snapshot``."""
        deltas = {}
        for key, value in self.items():
            before = earlier_snapshot.get(key, 0)
            if value != before:
                deltas[key] = value - before
        return deltas

    def merge_from(self, other):
        """Accumulate every counter of ``other`` into this bag."""
        counters = self._counters
        slots = self._slots
        for key, value in other._counters.items():
            cell = slots.get(key)
            if cell is not None:
                cell.value += value
            else:
                counters[key] = counters.get(key, 0) + value
        for key, other_cell in other._slots.items():
            if not other_cell.value:
                continue
            cell = slots.get(key)
            if cell is not None:
                cell.value += other_cell.value
            else:
                counters[key] = counters.get(key, 0) + other_cell.value

    def as_dict(self):
        """Alias for :meth:`snapshot` (read-only view semantics)."""
        return self.snapshot()

    def reset(self):
        """Zero every counter (registered slots stay live, at zero)."""
        self._counters.clear()
        for cell in self._slots.values():
            cell.value = 0

    def __contains__(self, name):
        key = self._prefix + name
        cell = self._slots.get(key)
        if cell is not None:
            return bool(cell.value)
        return key in self._counters

    def __repr__(self):
        parts = ", ".join(
            "%s=%s" % (key, value) for key, value in sorted(self.items())
        )
        return "StatCounters(%s)" % parts
