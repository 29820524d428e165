"""Memory controller: the NVM channels and the interface to them.

The controller owns the NVM's channels (:class:`repro.mem.nvm._Channel`)
and the functional memory image (:class:`repro.mem.image.MemoryImage`). It
has one method per traffic kind; each picks its channel, calls one channel
method and counts the operation for Fig 12's IOPS breakdown:

* :meth:`demand_fill` — a synchronous line read for a cache miss.
* :meth:`writeback` — an in-place line write that also updates the image.
* :meth:`write_line` — a timing-only line write (redo, shadow and log
  writes, and the DRAM cache's write-through).
* :meth:`log_read_line` — a random read of a line's old value, charged as
  posted traffic.
* :meth:`bulk_write`, :meth:`bulk_read` and :meth:`bulk_copy` — sequential,
  row-filling transfers; each counts as one IOP regardless of size.
* :meth:`drain` — the stall until every posted write is durable.

Line operations interleave over the channels by row address; bulk
operations go to the least-loaded channel. All in-place data writes go
through :meth:`writeback` so that the functional image always reflects what
a real NVM DIMM would hold at crash time; the crash-recovery machinery
snapshots and restores that image.

Per Table IV this is an FCFS, closed-page controller. An optional DRAM
memory-side cache (§IV-C of the paper) can be layered in front.
"""

from repro.common.address import LINE_SIZE
from repro.common.stats import StatCounters
from repro.mem.image import INITIAL_TOKEN, MemoryImage
from repro.mem.nvm import AccessCategory, _Channel

#: The queue limit of background traffic, which never stalls its issuer.
_NO_QUEUE_LIMIT = float("inf")


class MemoryController:
    """FCFS closed-page controller over the NVM channels."""

    def __init__(self, timings, stats=None, dram_cache=None):
        self.timings = timings
        self.stats = stats if stats is not None else StatCounters()
        self._channels = [_Channel() for _ in range(timings.n_channels)]
        self._row_shift = timings.row_buffer_bytes.bit_length() - 1
        # Pre-resolved IOPS/byte counters: every operation bumps them.
        self._iops = {
            category: self.stats.slot("nvm.iops.%s" % category)
            for category in AccessCategory.ALL
        }
        self._bytes_written = self.stats.slot("nvm.bytes_written")
        self._bytes_read = self.stats.slot("nvm.bytes_read")
        self._demand_reads = self._iops[AccessCategory.DEMAND_READ]
        # Hot-path constants: line service times, the read-interference cap
        # (one in-progress row write) and the write-queue limit.
        self._line_read_occupancy = timings.line_read_cycles
        self._line_write_occupancy = timings.line_write_cycles
        self._interference_cap = timings.row_write_cycles
        self._queue_limit = timings.write_queue_limit_cycles
        self.image = MemoryImage()
        self.dram_cache = dram_cache
        if dram_cache is not None:
            dram_cache.attach(self)
        self._demand_fills = self.stats.slot("mem.demand_fills")
        self._writebacks = self.stats.slot("mem.writebacks")

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
    # demand path (used by the cache hierarchy)
    # ------------------------------------------------------------------

    def demand_fill(self, line_addr, now):
        """Fetch a line for a cache miss; returns (latency, token)."""
        self._demand_fills.value += 1
        if self.dram_cache is not None:
            return self.dram_cache.read(line_addr, now)
        # channel_for, inline: this runs once per LLC miss.
        channels = self._channels
        finish = channels[(line_addr >> self._row_shift) % len(channels)].read(
            now, self._line_read_occupancy, self._interference_cap
        )
        self._demand_reads.value += 1
        self._bytes_read.value += LINE_SIZE
        # MemoryImage.read, inline.
        return finish - now, self.image._lines.get(line_addr, INITIAL_TOKEN)

    def writeback(
        self,
        line_addr,
        token,
        now,
        category=AccessCategory.WRITEBACK,
        backpressure=True,
    ):
        """Write a line in place (posted); returns (completion, stall).

        The functional image is updated immediately: once the write is
        handed to the controller it will be durable at any crash point we
        inject (crashes are injected at operation boundaries).
        ``backpressure=False`` marks background-engine traffic that adds
        channel load but never stalls its issuer.
        """
        self._writebacks.value += 1
        if self.dram_cache is not None:
            return self.dram_cache.write(line_addr, token, now, category, backpressure)
        # channel_for, inline: this runs once per dirty eviction.
        channels = self._channels
        completion, stall = channels[
            (line_addr >> self._row_shift) % len(channels)
        ].post_write(
            now,
            self._line_write_occupancy,
            self._queue_limit if backpressure else _NO_QUEUE_LIMIT,
        )
        self._iops[category].value += 1
        self._bytes_written.value += LINE_SIZE
        # MemoryImage.write, inline.
        self.image._lines[line_addr] = token
        return completion, stall

    # ------------------------------------------------------------------
    # logging and out-of-place paths (used by crash-consistency schemes)
    # ------------------------------------------------------------------

    def write_line(
        self, line_addr, now, category=AccessCategory.WRITEBACK, backpressure=True
    ):
        """Timing-only posted line write; returns (completion, stall).

        Redo, shadow and log writes land outside the canonical image, and
        the DRAM cache's write-through updates the image itself.
        """
        completion, stall = self._channels[self.channel_for(line_addr)].post_write(
            now,
            self._line_write_occupancy,
            self._queue_limit if backpressure else _NO_QUEUE_LIMIT,
        )
        self._iops[category].value += 1
        self._bytes_written.value += LINE_SIZE
        return completion, stall

    def log_read_line(self, line_addr, now, backpressure=True):
        """Random read of a line's old value; returns (completion, stall).

        FRM's undo read and the redo applies of journaling and ThyNVM.
        Charged as posted traffic: the core is not waiting on it, but it
        consumes write-path bandwidth and counts as a random IOP. The value
        itself is a functional :meth:`read_token`.
        """
        completion, stall = self._channels[self.channel_for(line_addr)].post_write(
            now,
            self._line_read_occupancy,
            self._queue_limit if backpressure else _NO_QUEUE_LIMIT,
        )
        self._iops[AccessCategory.RANDOM].value += 1
        self._bytes_read.value += LINE_SIZE
        return completion, stall

    def bulk_write(
        self, size_bytes, now, category=AccessCategory.SEQUENTIAL, backpressure=True
    ):
        """Posted sequential write of ``size_bytes``; one IOP per call.

        Matches the paper's Fig 12 accounting, where a row-filling transfer
        (a log append, an undo-buffer flush, a page write-back) counts as a
        single operation regardless of its size.
        """
        completion, stall = self._least_loaded_channel(now).post_write(
            now,
            self.timings.bulk_write_cycles(size_bytes),
            self._queue_limit if backpressure else _NO_QUEUE_LIMIT,
        )
        self._iops[category].value += 1
        self._bytes_written.value += size_bytes
        return completion, stall

    def bulk_read(self, size_bytes, now, category=AccessCategory.SEQUENTIAL):
        """Synchronous sequential read (DRAM page fills); returns completion."""
        finish = self._least_loaded_channel(now).read(
            now, self.timings.bulk_read_cycles(size_bytes), self._interference_cap
        )
        self._iops[category].value += 1
        self._bytes_read.value += size_bytes
        return finish

    def bulk_copy(self, size_bytes, now, backpressure=True):
        """Module-local bulk copy (Shadow-Paging's optimized page CoW).

        The read and write both happen inside the memory module, so it
        counts as one sequential operation and does not cross the link;
        we charge one bulk read plus one bulk write of device occupancy but
        no link transfer by using the row costs directly.
        """
        timings = self.timings
        rows = max(1, -(-size_bytes // timings.row_buffer_bytes))
        completion, stall = self._least_loaded_channel(now).post_write(
            now,
            rows * (timings.row_read_cycles + timings.row_write_cycles),
            self._queue_limit if backpressure else _NO_QUEUE_LIMIT,
        )
        self._iops[AccessCategory.SEQUENTIAL].value += 1
        return completion, stall

    # ------------------------------------------------------------------
    # synchronization and introspection
    # ------------------------------------------------------------------

    def drain(self, now):
        """Stall cycles until all posted writes are durable.

        A synchronous cache flush ends with this: the system stalls until
        every channel's outstanding flush writes are durable.
        """
        cycles = max(channel.drain_cycles(now) for channel in self._channels)
        if self.dram_cache is not None:
            cycles = max(cycles, self.dram_cache.drain_cycles(now))
        return cycles

    def read_token(self, line_addr):
        """Functional read of the current in-NVM token (no timing)."""
        return self.image.read(line_addr)

    def write_token(self, line_addr, token):
        """Functional write used by recovery (no timing)."""
        self.image.write(line_addr, token)

    def snapshot_image(self):
        """Snapshot the functional NVM image (crash-injection support)."""
        return self.image.snapshot()
