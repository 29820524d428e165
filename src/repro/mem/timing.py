"""NVM device timing parameters.

Defaults follow Table IV of the paper: a 64-bit, 12.8 GB/s memory link, an
FCFS closed-page controller, and a byte-addressable NVM with 128 ns row-read
and 368 ns row-write (row-miss) latencies. Because the controller runs a
closed-page policy, every isolated cache-line access pays the full row
latency; only explicitly bulk (row-buffer-filling) transfers amortize it,
which is exactly the property PiCL's 2 KB undo-buffer flush exploits.
"""

import dataclasses

from repro.common.address import LINE_SIZE
from repro.common.errors import ConfigurationError
from repro.common.units import KB, cycles_from_ns, is_power_of_two


@dataclasses.dataclass
class NvmTimings:
    """Timing and structure parameters of the NVM device and link.

    All ``*_ns`` values are converted to CPU cycles via ``cpu_ghz`` once, at
    construction, and exposed as ``*_cycles`` attributes.
    """

    cpu_ghz: float = 2.0

    #: Row-miss read latency (Table IV: 128 ns).
    row_read_ns: float = 128.0

    #: Row-miss write latency (Table IV: 368 ns).
    row_write_ns: float = 368.0

    #: NVM row-buffer size; the paper assumes at least 2 KB.
    row_buffer_bytes: int = 2 * KB

    #: Link bandwidth in GB/s (Table IV: 64-bit link at 12.8 GB/s).
    link_gb_per_s: float = 12.8

    #: Number of independent memory channels.
    n_channels: int = 1

    #: Posted-write backpressure: a store stalls when the channel backlog
    #: exceeds this many cycles of pending service time.
    write_queue_limit_ns: float = 2000.0

    def __post_init__(self):
        if self.cpu_ghz <= 0:
            raise ConfigurationError("cpu_ghz must be positive")
        if self.row_buffer_bytes <= 0 or not is_power_of_two(self.row_buffer_bytes):
            raise ConfigurationError("row_buffer_bytes must be a power of two")
        if self.n_channels <= 0:
            raise ConfigurationError("n_channels must be positive")
        if self.link_gb_per_s <= 0:
            raise ConfigurationError("link_gb_per_s must be positive")
        self.row_read_cycles = cycles_from_ns(self.row_read_ns, self.cpu_ghz)
        self.row_write_cycles = cycles_from_ns(self.row_write_ns, self.cpu_ghz)
        self.write_queue_limit_cycles = cycles_from_ns(
            self.write_queue_limit_ns, self.cpu_ghz
        )
        #: Service times of one isolated (closed-page) 64 B line read and
        #: line write.
        self.line_read_cycles = self.row_read_cycles + self.transfer_cycles(LINE_SIZE)
        self.line_write_cycles = self.row_write_cycles + self.transfer_cycles(LINE_SIZE)

    def __setstate__(self, state):
        # Recompute the derived cycle counts: a timing pickled by an older
        # build (a daemon spool) may lack some that this build reads.
        self.__dict__.update(state)
        self.__post_init__()

    def transfer_cycles(self, size_bytes):
        """Cycles the link is occupied transferring ``size_bytes``."""
        nanoseconds = size_bytes / self.link_gb_per_s
        return cycles_from_ns(nanoseconds, self.cpu_ghz)

    def bulk_write_cycles(self, size_bytes):
        """Service time of a sequential write of ``size_bytes``.

        The transfer opens one row per row-buffer's worth of data, so a
        2 KB undo-buffer flush costs one row write plus the burst transfer —
        this is the sequential-write advantage the paper relies on.
        """
        rows = max(1, -(-size_bytes // self.row_buffer_bytes))
        return rows * self.row_write_cycles + self.transfer_cycles(size_bytes)

    def bulk_read_cycles(self, size_bytes):
        """Service time of a sequential read of ``size_bytes``."""
        rows = max(1, -(-size_bytes // self.row_buffer_bytes))
        return rows * self.row_read_cycles + self.transfer_cycles(size_bytes)
