"""NVM channel model and the IOPS categories of Fig 12.

The memory controller (:mod:`repro.mem.controller`) owns one
:class:`_Channel` per NVM channel and counts every operation under an
:class:`AccessCategory`. Together they capture the two properties of
byte-addressable NVM the paper's analysis rests on (§II-C):

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
        """Queue a posted write; returns (completion_time, issuer_stall).

        Background engines that pace themselves (ACS, ThyNVM's overlapped
        apply) pass an infinite ``queue_limit``: their writes add channel
        load — slowing demand traffic through the shared backlog — but never
        stall the issuer.
        """
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

    def drain_cycles(self, now):
        """Cycles until the posted-write backlog fully drains."""
        self._decay_backlog(now)
        return self.write_backlog
