"""Simulation results and derived metrics.

A :class:`SimulationResult` carries the raw counters of one run; the
properties compute the quantities the paper's figures report:

* normalized execution time (Fig 9/10/15/16) — ``result.cycles`` relative
  to an Ideal-NVM run of the same workload,
* commits per scheduled epoch (Fig 11's "commits per 30 M instructions"),
* the sequential/random/writeback IOPS split (Fig 12),
* log bytes appended (Fig 13) and observed epoch length (Fig 14).
"""

from repro.mem.nvm import AccessCategory


class SimulationResult:
    """Counters and metadata from one simulation run."""

    #: The interpreter that produced the result (``Simulation.engine``).
    #: Kept out of :meth:`stats_dict`; results pickled before the field
    #: existed read this class default.
    engine = None

    def __init__(
        self,
        scheme_name,
        benchmarks,
        config,
        cycles,
        instructions,
        stats,
        per_core_cycles=None,
        engine=None,
    ):
        self.scheme_name = scheme_name
        self.benchmarks = list(benchmarks)
        self.config = config
        self.cycles = cycles
        self.instructions = instructions
        self.stats = stats
        self.per_core_cycles = per_core_cycles or []
        self.engine = engine

    # ------------------------------------------------------------------
    # headline metrics
    # ------------------------------------------------------------------

    @property
    def ipc(self):
        """Instructions per cycle over the whole run."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def normalized_to(self, ideal_result):
        """Execution time relative to an Ideal-NVM run (Fig 9/10 y-axis)."""
        if ideal_result.cycles == 0:
            return float("inf")
        return self.cycles / ideal_result.cycles

    @property
    def commits(self):
        """Total checkpoints committed (scheduled plus forced)."""
        return self.stats.get("commits")

    @property
    def scheduled_epochs(self):
        """How many epochs the default timer would have produced."""
        span = self.config.epoch_instructions * self.config.n_cores
        return max(1, self.instructions // span)

    @property
    def commits_per_epoch(self):
        """Fig 11's metric: commits per default epoch interval (ideal = 1)."""
        return self.commits / self.scheduled_epochs

    @property
    def observed_epoch_instructions(self):
        """Fig 14's metric: instructions per commit actually achieved."""
        if self.commits == 0:
            return self.instructions
        return self.instructions / self.commits / self.config.n_cores

    # ------------------------------------------------------------------
    # NVM traffic (Fig 12)
    # ------------------------------------------------------------------

    def iops(self, category):
        """Operation count for one Fig 12 category."""
        return self.stats.get("nvm.iops.%s" % category)

    @property
    def iops_breakdown(self):
        """Dict of sequential / random / writeback operation counts."""
        return {
            "sequential": self.iops(AccessCategory.SEQUENTIAL),
            "random": self.iops(AccessCategory.RANDOM),
            "writeback": self.iops(AccessCategory.WRITEBACK),
        }

    def iops_normalized_to(self, ideal_result):
        """Fig 12: operation counts relative to Ideal's write-back count."""
        base = ideal_result.iops(AccessCategory.WRITEBACK)
        if base == 0:
            base = 1
        return {
            name: count / base for name, count in self.iops_breakdown.items()
        }

    # ------------------------------------------------------------------
    # logging volume (Fig 13)
    # ------------------------------------------------------------------

    @property
    def log_bytes_appended(self):
        """Bytes of undo/redo log written during the run."""
        return self.stats.get("log.bytes_appended")

    def log_bytes_scaled_to_paper(self):
        """Fig 13 reports MB at full scale; undo volume scales with the
        instruction budget, so multiply back by the system scale."""
        return self.log_bytes_appended * self.config.scale

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def stat(self, name, default=0):
        """Raw counter access (see StatCounters)."""
        return self.stats.get(name, default)

    def stats_dict(self):
        """Every counter as a plain dict.

        This is the canonical serialized form: the result cache stores it,
        and the determinism tests compare it between parallel and serial
        runs counter by counter.
        """
        return dict(self.stats.items())

    def __repr__(self):
        return (
            "SimulationResult(scheme=%s, benchmarks=%s, cycles=%d, instr=%d, "
            "commits=%d)"
            % (
                self.scheme_name,
                "+".join(self.benchmarks),
                self.cycles,
                self.instructions,
                self.commits,
            )
        )
