"""Nonvolatile main-memory substrate.

This package models the memory controller (FCFS, closed-page, posted writes
with backpressure), which owns the NVM channels (sequential vs random access
cost) and has one method per traffic kind; the functional memory image used
for crash-recovery checking; the log region allocator used by every
write-ahead-logging scheme; and the optional DRAM memory-side cache
extension described in the paper's §IV-C.
"""

from repro.mem.controller import MemoryController
from repro.mem.dram_cache import DramCache, DramCacheMode
from repro.mem.image import MemoryImage
from repro.mem.log_region import LogRegion, SuperBlock
from repro.mem.nvm import AccessCategory
from repro.mem.timing import NvmTimings

__all__ = [
    "NvmTimings",
    "AccessCategory",
    "MemoryController",
    "MemoryImage",
    "LogRegion",
    "SuperBlock",
    "DramCache",
    "DramCacheMode",
]
