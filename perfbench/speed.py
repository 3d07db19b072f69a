"""Host-speed sampling inside a timed section.

On a shared host the same code runs up to 1.7x slower in some seconds
than in others: other tenants compete for the cores, the shared
last-level cache and memory, and the phases change within a pass, so a
probe run between passes does not see them. The speed is sampled inside
the timed section instead: a ``SIGPROF`` handler runs a probe of fixed
work every ``PERIOD_S`` of CPU time. The probe mixes what mdfem's passes
spend their time on, the interpreter and small dense matrix products
(BLAS). A random gather from a 16 MB array was tried as a third part
and left out: it tracked two of the three workloads worse, and its speed
would depend on how much of the cache the library itself uses.

A section's time at nominal speed is its wall time without the probes,
times the ratio of ``PROBE_NOMINAL_S`` to the median probe wall time,
raised to ``SLOWDOWN_EXPONENT``: the work done at the speed the probes
saw, in seconds at a fixed speed. The median keeps a probe that a page
fault or an interrupt happened to hit from moving the result. The probe
runs from the L1 and L2 caches and sees the contention for the core; in
the same phases the passes also lose shared cache and memory bandwidth,
so they slow down more than the probe. Over 60 runs of the three
workloads (10 seeds each, two sets) a pass's wall time followed the
probe time to the power 1.2-1.6; with the power 1.4 the run-to-run
spread of the median pass time was 3-7%, against 4-11% with the power
1 and 9-21% for raw wall time.

The probe must not call mdfem, so that a change to the library cannot
change the unit it is measured in. Do not edit it, ``PROBE_NOMINAL_S``
or ``SLOWDOWN_EXPONENT``: that would rescale every end-to-end time.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# The unit of the nominal times: about the probe's wall time inside the
# passes on the 2-vCPU x86-64 host (Xeon, 105 MB L3) the benchmark was
# defined on, so that nominal and wall times are alike there.
PROBE_NOMINAL_S = 4.5e-4
SLOWDOWN_EXPONENT = 1.4

_SMALL = np.linspace(0.5, 1.5, 48 * 48).reshape(48, 48)


def probe_s():
    """Wall seconds of one run of the fixed probe."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(4500):
        acc += i * i
    for _ in range(4):
        acc += float((_SMALL @ _SMALL).sum())
    return time.perf_counter() - t0


class SpeedSampler:
    """Context manager that times a section at nominal host speed.

    After the ``with`` block, ``wall_s`` is the section's wall time,
    ``probes`` the probe wall times and ``nominal_s`` the time the
    section's own work takes at nominal speed. ``start``, a
    ``time.perf_counter()`` reading, backdates the section's start to
    cover time before the sampler existed; that time is taken to have
    run at the speed the probes see.
    """

    def __init__(self, start=None):
        self._start = start
        self.probes = []
        self.wall_s = None
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.probes.append(probe_s())
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        self._t0 = time.perf_counter() if self._start is None else self._start
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if not self.probes:  # a section shorter than PERIOD_S
            self.probes.append(probe_s())
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGPROF, self._previous)
        return False

    @property
    def nominal_s(self):
        work = self.wall_s - sum(self.probes)
        ratio = PROBE_NOMINAL_S / statistics.median(self.probes)
        return work * ratio ** SLOWDOWN_EXPONENT
