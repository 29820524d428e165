"""Crash-injection and recovery-validation subsystem.

* :mod:`repro.fault.plan` — :class:`CrashPlan` / :class:`CrashSignal`:
  semantic crash points injected through hooks in the simulator, PiCL,
  the undo buffer, the cache hierarchy, and the ACS engine.
* :mod:`repro.fault.nvm_faults` — NVM corruption injectors (torn
  superblock writes, bit flips in the log region) that recovery must
  *detect*, never silently mis-recover from.
* :mod:`repro.fault.harness` — the differential crash matrix: every
  scheme × crash point, recovered image checked token-exactly against
  the architectural oracle snapshot.

Only the plan layer is imported eagerly: the harness pulls in the full
simulator, which itself threads ``CrashSignal`` through its run loop —
import :mod:`repro.fault.harness` explicitly where needed.
"""

from repro.fault.plan import (
    SEMANTIC_SITES,
    SITE_ACS_SCAN,
    SITE_LLC_EVICTION,
    SITE_PRE_INPLACE,
    SITE_UNDO_FLUSH,
    CrashPlan,
    CrashSignal,
)

__all__ = [
    "CrashPlan",
    "CrashSignal",
    "SEMANTIC_SITES",
    "SITE_ACS_SCAN",
    "SITE_LLC_EVICTION",
    "SITE_PRE_INPLACE",
    "SITE_UNDO_FLUSH",
]
