"""Optional DRAM memory-side cache (paper §IV-C, "DRAM Buffer Extensions").

Systems pairing a low-IOPS NVM with a DRAM layer cache hot regions at page
granularity. The paper argues PiCL composes with both modes:

* **Write-through** — no modification needed: every write still reaches the
  NVM, so PiCL's view of write traffic is unchanged. The DRAM only
  accelerates reads.
* **Write-back** — the DRAM is an inclusive page-granularity cache; PiCL is
  applied *to the DRAM cache* and the LLC is treated like a private cache.
  Dirty pages are volatile until evicted, so the functional NVM image is
  only updated on page write-back.

This module implements both as a layer in front of the NVM channels of
:class:`repro.mem.controller.MemoryController`.
"""

from repro.common.address import PAGE_SIZE, page_address
from repro.common.errors import ConfigurationError
from repro.common.units import cycles_from_ns
from repro.mem.nvm import AccessCategory


class DramCacheMode:
    """The two memory-side caching modes of §IV-C."""
    WRITE_THROUGH = "write-through"
    WRITE_BACK = "write-back"


class _DramPage:
    __slots__ = ("page_addr", "dirty", "dirty_lines")

    def __init__(self, page_addr):
        self.page_addr = page_addr
        self.dirty = False
        self.dirty_lines = {}


class DramCache:
    """Set-associative page-granularity memory-side DRAM cache."""

    def __init__(
        self,
        capacity_bytes,
        assoc=8,
        mode=DramCacheMode.WRITE_THROUGH,
        hit_latency_ns=50.0,
        cpu_ghz=2.0,
        page_size=PAGE_SIZE,
    ):
        if capacity_bytes < page_size * assoc:
            raise ConfigurationError("DRAM cache must hold at least one set")
        self.page_size = page_size
        self.assoc = assoc
        self.mode = mode
        self.n_sets = capacity_bytes // (page_size * assoc)
        if self.n_sets == 0:
            raise ConfigurationError("DRAM cache has zero sets")
        self.hit_latency = cycles_from_ns(hit_latency_ns, cpu_ghz)
        self._sets = [[] for _ in range(self.n_sets)]
        self._controller = None

    def attach(self, controller):
        """Bind the cache to its controller (done by MemoryController)."""
        self._controller = controller

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------

    def _set_for(self, page_addr):
        return self._sets[(page_addr // self.page_size) % self.n_sets]

    def _find(self, page_addr):
        cache_set = self._set_for(page_addr)
        for index, page in enumerate(cache_set):
            if page.page_addr == page_addr:
                if index != 0:
                    cache_set.pop(index)
                    cache_set.insert(0, page)
                return page
        return None

    def _fill(self, page_addr, now):
        """Bring a page into DRAM; returns (page, fill_latency)."""
        finish = self._controller.bulk_read(
            self.page_size, now, AccessCategory.DEMAND_READ
        )
        cache_set = self._set_for(page_addr)
        page = _DramPage(page_addr)
        cache_set.insert(0, page)
        if len(cache_set) > self.assoc:
            victim = cache_set.pop()
            self._evict(victim, now)
        return page, finish - now

    def _evict(self, page, now):
        if self.mode == DramCacheMode.WRITE_BACK and page.dirty:
            self._controller.bulk_write(self.page_size, now, AccessCategory.WRITEBACK)
            for line_addr, token in page.dirty_lines.items():
                self._controller.image.write(line_addr, token)
            self._controller.stats.add("dram.page_writebacks")

    # ------------------------------------------------------------------
    # controller-facing interface
    # ------------------------------------------------------------------

    def read(self, line_addr, now):
        """Read a line through the DRAM cache; returns (latency, token)."""
        page_addr = page_address(line_addr, self.page_size)
        page = self._find(page_addr)
        if page is None:
            page, fill_latency = self._fill(page_addr, now)
            self._controller.stats.add("dram.misses")
            latency = fill_latency + self.hit_latency
        else:
            self._controller.stats.add("dram.hits")
            latency = self.hit_latency
        if line_addr in page.dirty_lines:
            token = page.dirty_lines[line_addr]
        else:
            token = self._controller.image.read(line_addr)
        return latency, token

    def write(
        self,
        line_addr,
        token,
        now,
        category=AccessCategory.WRITEBACK,
        backpressure=True,
    ):
        """Write a line through the DRAM cache; returns (completion, stall).

        ``backpressure`` is the controller's: write-through background
        traffic (ACS) adds NVM load but never stalls its issuer.
        """
        page_addr = page_address(line_addr, self.page_size)
        page = self._find(page_addr)
        if page is None:
            page, _fill_latency = self._fill(page_addr, now)
            self._controller.stats.add("dram.misses")
        if self.mode == DramCacheMode.WRITE_THROUGH:
            completion, stall = self._controller.write_line(
                line_addr, now, category, backpressure
            )
            self._controller.image.write(line_addr, token)
            return completion, stall
        page.dirty = True
        page.dirty_lines[line_addr] = token
        return now + self.hit_latency, 0

    def drain_cycles(self, now):
        """Write-back mode never drains implicitly; flush is explicit."""
        return 0

    def flush_all(self, now):
        """Write back every dirty page (used before crash-free shutdown)."""
        for cache_set in self._sets:
            for page in cache_set:
                if page.dirty:
                    self._evict(page, now)
                    page.dirty = False
                    page.dirty_lines.clear()

    def dirty_page_count(self):
        """Dirty (volatile) pages currently held in DRAM."""
        return sum(
            1 for cache_set in self._sets for page in cache_set if page.dirty
        )
