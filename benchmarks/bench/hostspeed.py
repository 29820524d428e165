"""Host times in reference-host seconds, from a fixed reference kernel.

The benchmark's machine shares its host with other tenants, and its
speed drifts by up to 2x, over seconds as well as minutes: the same pass
over the same points took 4.5 s in one hour and 9 s in the next, with
no steal time and CPU time tracking wall time. Medians over passes
cannot remove a drift that outlasts a repetition, so every timed piece
of work is bracketed by two calls of a fixed kernel and its seconds are
scaled by how much slower than :data:`REFERENCE_S` those two calls ran.
The result reads as the seconds the work would have taken on a host
that runs the kernel in :data:`REFERENCE_S`.

The kernel is a pure-Python random walk over a 16 MiB buffer. Like the
simulator, whose caches, tables and traces are tens of megabytes of
Python objects, it pays the interpreter and the host's memory latency;
on the calibration machine it tracked the simulator's drift better than
a kernel that fits in the CPU caches (see the benchmark's README).

The kernel belongs to the benchmark, not to the program: no change under
``src/`` makes it faster or slower. Changing it, or
:data:`REFERENCE_S`, changes every scaled time, so both must stay fixed
between the two commits being compared.
"""

import time

perf = time.perf_counter

#: Seconds one :func:`kernel` call takes at the reference host speed:
#: about its median on the 2-vCPU machine the benchmark was calibrated on.
REFERENCE_S = 0.05

#: Size of the buffer the kernel walks; it stays resident all run, so
#: peak RSS readings subtract it.
BUFFER_MIB = 16

# Written in full, so every page is resident and distinct (a never-
# written buffer could map one shared zero page).
_BUFFER = bytes(range(256)) * (BUFFER_MIB << 12)
_MASK = (BUFFER_MIB << 20) - 1


def kernel(n=150000):
    """Sum ``n`` bytes read at seeded random offsets of the buffer."""
    data = _BUFFER
    x = 12345
    total = 0
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += data[x & _MASK]
    return total


class HostSpeed:
    """Kernel timings of one repetition, in the order they were taken.

    The probe runs in this process only, also for ``fig-sweep``, whose
    pool runs on both cores: probing both cores at once measured no
    steadier there.

    Call :meth:`probe` once before a sequence of :meth:`timed` calls; each
    :meth:`timed` call reuses the previous probe as its "before" and
    takes a fresh one after.
    """

    def __init__(self):
        self.samples = []

    def probe(self):
        start = perf()
        kernel()
        self.samples.append(perf() - start)

    def timed(self, fn):
        """``(fn(), raw seconds, factor)``: ``raw * factor`` is the
        reference-host seconds of the call."""
        before = self.samples[-1]
        start = perf()
        value = fn()
        raw = perf() - start
        self.probe()
        return value, raw, 2.0 * REFERENCE_S / (before + self.samples[-1])
