"""Interactive single-stepping API.

:class:`InteractiveSystem` builds a full system (controller + hierarchy +
cores + scheme) and lets you drive it one access at a time — store a line,
load a line, end an epoch, pull the plug. It is how the examples
demonstrate crash consistency on concrete scenarios (e.g. the linked-list
append from the paper's introduction) and how the unit tests script exact
sequences like Fig 6.

For trace-driven performance runs use :class:`repro.sim.simulator.Simulation`
instead.
"""

from repro.sim.config import SystemConfig
from repro.sim.simulator import BuiltSystem


class InteractiveSystem(BuiltSystem):
    """A fully built system driven access by access.

    Reference tracking is always on, so :meth:`crash_and_recover` has
    the snapshot to check every recovery against.
    """

    def __init__(self, scheme_name="picl", config=None):
        config = config if config is not None else SystemConfig().scaled(256)
        super().__init__(config, scheme_name, track_reference=True)
        self.now = 0

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def store(self, line_addr, core=0):
        """Store a fresh value to a line; returns its token."""
        token = self.system.new_token()
        wait = self.hierarchy.access(core, line_addr, True, token, self.now)
        self.system.note_store(line_addr, token)
        self.now += wait + 1
        return token

    def load(self, line_addr, core=0):
        """Load a line; returns the token the core observed."""
        wait = self.hierarchy.access(core, line_addr, False, 0, self.now)
        self.now += wait + 1
        line = self.hierarchy.l1(core).lookup(line_addr, touch=False)
        return line.token

    def end_epoch(self):
        """Epoch boundary (the periodic OS timer interrupt); returns stall."""
        stall = self.scheme.on_epoch_boundary(self.now)
        self.system.broadcast_stall(stall)
        self.now += stall
        return stall

    def advance(self, cycles):
        """Let wall-clock time pass without memory activity."""
        self.now += cycles

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def arch_state(self):
        """The architectural (crash-free) memory image right now."""
        return dict(self.system.arch_image)
