"""Memory controller: the interface the cache hierarchy and schemes use.

The controller couples the timing model (:class:`repro.mem.nvm.NvmDevice`)
with the functional memory image (:class:`repro.mem.image.MemoryImage`). All
in-place data writes go through :meth:`writeback` so that the functional
image always reflects what a real NVM DIMM would hold at crash time; the
crash-recovery machinery snapshots and restores that image.

Per Table IV this is an FCFS, closed-page controller. An optional DRAM
memory-side cache (§IV-C of the paper) can be layered in front.
"""

from repro.common.stats import StatCounters
from repro.mem.image import INITIAL_TOKEN, MemoryImage
from repro.mem.nvm import AccessCategory, NvmDevice


class MemoryController:
    """FCFS closed-page controller over one NVM device."""

    def __init__(self, timings, stats=None, dram_cache=None):
        self.stats = stats if stats is not None else StatCounters()
        self.device = NvmDevice(timings, self.stats)
        self.image = MemoryImage()
        self.dram_cache = dram_cache
        if dram_cache is not None:
            dram_cache.attach(self)
        self._demand_fills = self.stats.slot("mem.demand_fills")
        self._writebacks = self.stats.slot("mem.writebacks")

    # ------------------------------------------------------------------
    # demand path (used by the cache hierarchy)
    # ------------------------------------------------------------------

    def demand_fill(self, line_addr, now):
        """Fetch a line for a cache miss; returns (latency, token)."""
        if self.dram_cache is not None:
            latency, token = self.dram_cache.read(line_addr, now)
            self._demand_fills.value += 1
            return latency, token
        finish = self.device.read_line(line_addr, now)
        self._demand_fills.value += 1
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
        if self.dram_cache is not None:
            completion, stall = self.dram_cache.write(line_addr, token, now, category)
        else:
            completion, stall = self.device.write_line(
                line_addr, now, category, backpressure=backpressure
            )
            self.image.write(line_addr, token)
        self._writebacks.value += 1
        return completion, stall

    # ------------------------------------------------------------------
    # logging path (used by crash-consistency schemes)
    # ------------------------------------------------------------------

    def log_read_line(self, line_addr, now):
        """Random read of a line's old value for logging (FRM's undo read).

        Returns (old_token, completion, stall).
        """
        token = self.image.read(line_addr)
        completion, stall = self.device.log_read_line(line_addr, now)
        return token, completion, stall

    def log_write_line(self, line_addr, now):
        """Random line-sized write into a log/redo region (not in place)."""
        return self.device.write_line(line_addr, now, AccessCategory.RANDOM)

    def bulk_log_write(self, size_bytes, now, backpressure=True):
        """Sequential log append of ``size_bytes`` (one sequential IOP)."""
        return self.device.bulk_write(
            size_bytes, now, AccessCategory.SEQUENTIAL, backpressure=backpressure
        )

    def bulk_copy(self, size_bytes, now, backpressure=True):
        """Module-local bulk copy (Shadow-Paging's optimized page CoW).

        The read and write both happen inside the memory module, so it
        counts as one sequential operation and does not cross the link;
        we charge one bulk read plus one bulk write of device occupancy but
        no link transfer by using the row costs directly.
        """
        rows = max(1, -(-size_bytes // self.device.timings.row_buffer_bytes))
        occupancy = rows * (
            self.device.timings.row_read_cycles + self.device.timings.row_write_cycles
        )
        channel = self.device._least_loaded_channel(now)
        if backpressure:
            completion, stall = channel.post_write(
                now, occupancy, self.device.timings.write_queue_limit_cycles
            )
        else:
            completion, stall = channel.enqueue_write(now, occupancy), 0
        self.device.stats.add("nvm.iops.%s" % AccessCategory.SEQUENTIAL, 1)
        return completion, stall

    # ------------------------------------------------------------------
    # synchronization and introspection
    # ------------------------------------------------------------------

    def drain(self, now):
        """Stall cycles until all posted writes are durable."""
        cycles = self.device.drain_cycles(now)
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
