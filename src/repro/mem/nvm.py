"""NVM device model: channels, row-buffer timing, and IOPS accounting.

The device model captures the two properties of byte-addressable NVM the
paper's analysis rests on (§II-C):

* Random (closed-page, line-sized) accesses pay the full row-miss latency —
  128 ns reads / 368 ns writes in Table IV — so random IOPS are scarce.
* Sequential, row-filling transfers amortize the row cost over a whole
  2 KB row buffer, so bulk log writes are an order of magnitude cheaper per
  byte.

Channel timing uses a deliberately simple two-part approximation per channel:

* Demand (synchronous) reads are FCFS: each read waits for earlier reads,
  pays its service time, plus bounded interference from the posted-write
  stream (at most one in-progress row write, since the controller lets reads
  preempt queued writes).
* Posted writes feed a leaky-bucket backlog that drains at full device
  rate. A posted write only stalls its issuer when the backlog exceeds the
  write-queue limit (backpressure); a synchronous flush stalls until the
  backlog fully drains.

This reproduces the first-order behaviours the paper measures — synchronous
cache-flush stalls scale with dirty-data volume and with NVM write latency,
random logging burns IOPS, sequential logging does not — without simulating
individual banks cycle by cycle.
"""

from repro.common.stats import StatCounters


class AccessCategory:
    """IOPS categories matching Fig 12's breakdown."""

    #: In-place data write-backs (evictions, ACS writes, cache flushes).
    WRITEBACK = "writeback"

    #: Extra random logging operations (undo reads, redo-buffer line ops).
    RANDOM = "random"

    #: Row-filling bulk operations (undo-buffer flushes, page CoW, page WB).
    SEQUENTIAL = "sequential"

    #: Ordinary demand miss fills (not part of Fig 12's write breakdown).
    DEMAND_READ = "demand_read"

    ALL = (WRITEBACK, RANDOM, SEQUENTIAL, DEMAND_READ)


class _Channel:
    """One memory channel: FCFS reads plus a leaky-bucket write backlog."""

    __slots__ = ("read_busy_until", "write_backlog", "backlog_updated_at")

    def __init__(self):
        self.read_busy_until = 0
        self.write_backlog = 0
        self.backlog_updated_at = 0

    def _decay_backlog(self, now):
        if now > self.backlog_updated_at:
            elapsed = now - self.backlog_updated_at
            self.write_backlog = max(0, self.write_backlog - elapsed)
            self.backlog_updated_at = now

    def read(self, now, occupancy, interference_cap):
        """Issue a synchronous read; returns its completion time.

        Reads are FCFS among themselves; the posted-write stream can block
        a read by at most one in-progress row write (the controller lets
        reads preempt queued writes, the classic read-priority model).
        """
        # _decay_backlog, inline: a demand fill runs this once per LLC miss.
        backlog = self.write_backlog
        if now > self.backlog_updated_at:
            backlog -= now - self.backlog_updated_at
            if backlog < 0:
                backlog = 0
            self.write_backlog = backlog
            self.backlog_updated_at = now
        start = self.read_busy_until
        if start < now:
            start = now
        if backlog > interference_cap:
            backlog = interference_cap
        finish = start + backlog + occupancy
        self.read_busy_until = finish
        return finish

    def post_write(self, now, occupancy, queue_limit):
        """Queue a posted write; returns (completion_time, issuer_stall)."""
        # _decay_backlog, inline: every write-back runs this.
        backlog = self.write_backlog
        if now > self.backlog_updated_at:
            backlog -= now - self.backlog_updated_at
            if backlog < 0:
                backlog = 0
            self.backlog_updated_at = now
        stall = 0
        if backlog > queue_limit:
            # The issuer waits until the backlog decays to the limit.
            stall = backlog - queue_limit
            self.write_backlog = backlog
            self._decay_backlog(now + stall)
            backlog = self.write_backlog
        backlog += occupancy
        self.write_backlog = backlog
        return self.backlog_updated_at + backlog, stall

    def enqueue_write(self, now, occupancy):
        """Queue a background write with no issuer backpressure.

        Used by autonomous engines (ACS, ThyNVM's overlapped apply) that
        pace themselves: they add channel load — slowing demand traffic
        through the shared backlog — but never stall a core directly.
        """
        self._decay_backlog(now)
        self.write_backlog += occupancy
        return self.backlog_updated_at + self.write_backlog

    def drain_cycles(self, now):
        """Cycles until the posted-write backlog fully drains."""
        self._decay_backlog(now)
        return self.write_backlog


class NvmDevice:
    """The NVM DIMM: timing, channel arbitration, and IOPS counters."""

    def __init__(self, timings, stats=None):
        self.timings = timings
        self.stats = stats if stats is not None else StatCounters()
        self._channels = [_Channel() for _ in range(timings.n_channels)]
        self._row_shift = timings.row_buffer_bytes.bit_length() - 1
        # Pre-resolved IOPS/byte counters: _count runs on every device op.
        self._iops_slots = {
            category: self.stats.slot("nvm.iops.%s" % category)
            for category in AccessCategory.ALL
        }
        self._bytes_written = self.stats.slot("nvm.bytes_written")
        self._bytes_read = self.stats.slot("nvm.bytes_read")
        # Hot-path constants: 64 B line service times, the read-interference
        # cap, the write-queue limit, and (for the common single-channel
        # config) the channel itself, so the demand path skips the address
        # mapping and the per-call timing recomputation.
        self._line_read_occupancy = timings.line_read_cycles(64)
        self._line_write_occupancy = timings.line_write_cycles(64)
        self._interference_cap = timings.row_write_cycles
        self._queue_limit = timings.write_queue_limit_cycles
        self._only_channel = self._channels[0] if len(self._channels) == 1 else None

    # ------------------------------------------------------------------
    # channel selection
    # ------------------------------------------------------------------

    def channel_for(self, addr):
        """Deterministic address-interleaved channel mapping (row granular)."""
        return (addr >> self._row_shift) % len(self._channels)

    def _least_loaded_channel(self, now):
        best = self._channels[0]
        best_backlog = best.drain_cycles(now)
        for channel in self._channels[1:]:
            backlog = channel.drain_cycles(now)
            if backlog < best_backlog:
                best = channel
                best_backlog = backlog
        return best

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _count(self, category, ops, size_bytes, is_write):
        cell = self._iops_slots.get(category)
        if cell is not None:
            cell.value += ops
        else:
            self.stats.add("nvm.iops.%s" % category, ops)
        if is_write:
            self._bytes_written.value += size_bytes
        else:
            self._bytes_read.value += size_bytes

    # ------------------------------------------------------------------
    # line (random) operations
    # ------------------------------------------------------------------

    def read_line(self, addr, now, category=AccessCategory.DEMAND_READ, line_size=64):
        """Synchronous line read; returns completion time."""
        if line_size == 64:
            occupancy = self._line_read_occupancy
        else:
            occupancy = self.timings.line_read_cycles(line_size)
        channel = self._only_channel
        if channel is None:
            channel = self._channels[self.channel_for(addr)]
        finish = channel.read(now, occupancy, self._interference_cap)
        cell = self._iops_slots.get(category)
        if cell is not None:
            cell.value += 1
        else:
            self.stats.add("nvm.iops.%s" % category, 1)
        self._bytes_read.value += line_size
        return finish

    def write_line(
        self,
        addr,
        now,
        category=AccessCategory.WRITEBACK,
        line_size=64,
        backpressure=True,
    ):
        """Posted line write; returns (completion_time, issuer_stall)."""
        if line_size == 64:
            occupancy = self._line_write_occupancy
        else:
            occupancy = self.timings.line_write_cycles(line_size)
        channel = self._only_channel
        if channel is None:
            channel = self._channels[self.channel_for(addr)]
        if backpressure:
            finish, stall = channel.post_write(now, occupancy, self._queue_limit)
        else:
            finish, stall = channel.enqueue_write(now, occupancy), 0
        cell = self._iops_slots.get(category)
        if cell is not None:
            cell.value += 1
        else:
            self.stats.add("nvm.iops.%s" % category, 1)
        self._bytes_written.value += line_size
        return finish, stall

    def log_read_line(self, addr, now, line_size=64, backpressure=True):
        """Random log-maintenance read (e.g. FRM's undo read).

        Charged as posted traffic: the core is not waiting on it, but it
        consumes write-path bandwidth and counts as a random IOP.
        """
        occupancy = self.timings.line_read_cycles(line_size)
        channel = self._channels[self.channel_for(addr)]
        if backpressure:
            finish, stall = channel.post_write(
                now, occupancy, self.timings.write_queue_limit_cycles
            )
        else:
            finish, stall = channel.enqueue_write(now, occupancy), 0
        self._count(AccessCategory.RANDOM, 1, line_size, is_write=False)
        return finish, stall

    # ------------------------------------------------------------------
    # bulk (sequential) operations
    # ------------------------------------------------------------------

    def bulk_write(
        self,
        size_bytes,
        now,
        category=AccessCategory.SEQUENTIAL,
        ops=1,
        backpressure=True,
    ):
        """Posted sequential write of ``size_bytes``; one IOP per call.

        Matches the paper's Fig 12 accounting, where a row-filling transfer
        counts as a single operation regardless of its size.
        """
        occupancy = self.timings.bulk_write_cycles(size_bytes)
        channel = self._least_loaded_channel(now)
        if backpressure:
            finish, stall = channel.post_write(
                now, occupancy, self.timings.write_queue_limit_cycles
            )
        else:
            finish, stall = channel.enqueue_write(now, occupancy), 0
        self._count(category, ops, size_bytes, is_write=True)
        return finish, stall

    def bulk_read(self, size_bytes, now, category=AccessCategory.SEQUENTIAL, ops=1):
        """Synchronous sequential read (recovery scans, page CoW source)."""
        occupancy = self.timings.bulk_read_cycles(size_bytes)
        channel = self._least_loaded_channel(now)
        finish = channel.read(now, occupancy, self.timings.row_write_cycles)
        self._count(category, ops, size_bytes, is_write=False)
        return finish

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------

    def drain_cycles(self, now):
        """Cycles until every channel's posted-write backlog drains.

        A synchronous cache flush ends with this: the system stalls until
        all outstanding flush writes are durable.
        """
        return max(channel.drain_cycles(now) for channel in self._channels)
