"""Crash plans: where, semantically, the power fails.

The paper's recovery argument (§IV-B) must hold "no matter where the
crash lands", but instruction-count crash points only sample the *wide*
windows. The dangerous windows are narrow and semantic: mid-undo-flush
(only a prefix of the burst is durable), between an LLC eviction and its
bloom-guarded log write, after the log write but before the in-place data
write, and mid-ACS scan (some lines persisted in place, the PersistedEID
marker not yet advanced). A :class:`CrashPlan` names one of those windows
and fires a :class:`CrashSignal` the *n*-th time execution reaches it.

Components expose the windows as crash sites (a ``fault_plan`` attribute,
``None`` except under injection — the hot-path cost is one attribute
test on paths that already do NVM work):

* ``SITE_LLC_EVICTION`` — :meth:`repro.cache.hierarchy.CacheHierarchy._insert_llc`,
  after the victim is chosen and back-invalidated, before the scheme's
  ``write_back`` runs. All schemes share this site.
* ``SITE_UNDO_FLUSH`` — :meth:`repro.core.undo_buffer.UndoBuffer.flush`:
  a *torn* flush, only ``tear_entries`` of the burst reach the log.
* ``SITE_PRE_INPLACE`` — :meth:`repro.core.picl.PiclScheme.write_back`,
  between the bloom-guarded buffer flush and the in-place data write.
* ``SITE_ACS_SCAN`` — :meth:`repro.core.acs.AcsEngine._scan_range`, after
  each in-place write of the scan (so occurrence *n* crashes with *n*
  lines of the epoch persisted and the rest not).

Instruction-count plans (:meth:`CrashPlan.at_instructions` /
:meth:`CrashPlan.at_epoch_boundary`) reuse the simulator's existing
``crash_at_instructions`` path; crashes *during* recovery are modelled by
``recover_image(..., apply_limit=k)`` plus the harness's re-recovery.
"""

from repro.common.errors import ConfigurationError


class CrashSignal(BaseException):
    """Raised at an armed crash site; the simulator converts it to a crash.

    Derives from BaseException so no model-level ``except Exception`` can
    accidentally swallow a power failure.
    """

    def __init__(self, site):
        super().__init__(site)
        self.site = site


SITE_LLC_EVICTION = "llc_eviction"
SITE_UNDO_FLUSH = "undo_flush"
SITE_PRE_INPLACE = "pre_inplace"
SITE_ACS_SCAN = "acs_scan"

SEMANTIC_SITES = (
    SITE_LLC_EVICTION,
    SITE_UNDO_FLUSH,
    SITE_PRE_INPLACE,
    SITE_ACS_SCAN,
)


class CrashPlan:
    """One injected crash: a semantic site (or instruction count) + trigger.

    A plan is single-use, like a :class:`repro.sim.simulator.Simulation`:
    pass it to ``Simulation.run(crash_plan=...)``, which installs it on
    the components owning its site. ``fired`` records whether the site was
    ever reached — a plan that never fires lets the run complete, which
    the harness reports rather than hides.
    """

    def __init__(self, site, occurrence=1, tear_entries=None, at_instructions=None):
        if occurrence < 1:
            raise ConfigurationError("occurrence counts from 1")
        if site is not None and site not in SEMANTIC_SITES:
            raise ConfigurationError(
                "unknown crash site %r; known: %s"
                % (site, ", ".join(SEMANTIC_SITES))
            )
        if (site is None) == (at_instructions is None):
            raise ConfigurationError(
                "a plan names exactly one of: semantic site, instruction count"
            )
        self.site = site
        self.occurrence = occurrence
        self.tear_entries = tear_entries
        self.at_instructions = at_instructions
        self._seen = 0
        self.fired = False

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def at(cls, n_instructions):
        """Crash once the instruction count reaches ``n_instructions``."""
        return cls(None, at_instructions=int(n_instructions))

    @classmethod
    def at_epoch_boundary(cls, config, epoch, offset=0):
        """Crash ``offset`` references from the end of scheduled epoch
        ``epoch`` (1-based); negative offsets land just *before* the
        boundary fires, positive just after."""
        span = config.epoch_instructions * config.n_cores
        return cls.at(max(1, span * epoch + offset))

    @classmethod
    def on_event(cls, site, occurrence=1, tear_entries=None):
        """Crash the ``occurrence``-th time execution reaches ``site``."""
        return cls(site, occurrence=occurrence, tear_entries=tear_entries)

    # ------------------------------------------------------------------
    # component-facing protocol
    # ------------------------------------------------------------------

    def notify(self, site):
        """Crash-site beacon: raises :class:`CrashSignal` when due."""
        if site != self.site:
            return
        self._seen += 1
        if self._seen == self.occurrence:
            self.fired = True
            raise CrashSignal(site)

    def flush_tear(self, n_entries):
        """The undo-flush site's variant of :meth:`notify`.

        Returns how many of the burst's ``n_entries`` become durable
        before the power fails (the caller appends that prefix and then
        calls :meth:`trip`), or None when this flush survives intact.
        """
        if self.site != SITE_UNDO_FLUSH:
            return None
        self._seen += 1
        if self._seen != self.occurrence:
            return None
        if self.tear_entries is None:
            return n_entries // 2
        return max(0, min(self.tear_entries, n_entries))

    def trip(self, site):
        """Unconditionally fire (used after a torn prefix is applied)."""
        self.fired = True
        raise CrashSignal(site)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, sim):
        """Attach this plan to every component exposing its crash site."""
        if self.site is None:
            return
        sim.hierarchy.fault_plan = self
        scheme = sim.scheme
        scheme.fault_plan = self
        buffer = getattr(scheme, "buffer", None)
        if buffer is not None:
            buffer.fault_plan = self
        acs = getattr(scheme, "acs", None)
        if acs is not None:
            acs.fault_plan = self

    def key(self):
        """What decides where the run crashes: equal keys, same crash.

        Trigger state (``fired`` and the occurrence count) is left out,
        so a fresh plan and a spent one with the same crash point match.
        """
        return (self.site, self.occurrence, self.tear_entries, self.at_instructions)

    def describe(self):
        """Short human-readable crash-point label."""
        if self.site is None:
            return "instructions=%d" % self.at_instructions
        label = "%s#%d" % (self.site, self.occurrence)
        if self.site == SITE_UNDO_FLUSH and self.tear_entries is not None:
            label += "(tear=%d)" % self.tear_entries
        return label

    def __repr__(self):
        return "CrashPlan(%s, fired=%s)" % (self.describe(), self.fired)
