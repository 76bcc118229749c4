"""CPU time scaled to a reference host speed.

On a shared host the CPU time of fixed work moves with what other tenants
run on the same cores and caches: a fixed kernel's CPU time drifts by
+-20 % within seconds on a 2-vCPU cloud VM, and whole passes of the same
workload differ by up to 40 %.  Wall time adds the time the process waits
for a CPU on top of that; process CPU time leaves that wait out, and with
paravirtual steal-time accounting also the time the hypervisor gives the
core to another guest.  ``SpeedProbe`` therefore measures process CPU time
and, while it is running, interrupts the process every ``INTERVAL``
seconds of CPU time (SIGPROF) to time a small fixed reference kernel.  The
samples fall inside the measured work, so they see the host as that work
saw it.

``Span.scaled_s`` is the CPU time of the work (the probe's own time taken
out) divided by how much slower than ``NOMINAL_S`` the reference ran, i.e.
the work in CPU seconds of a host on which the reference kernel takes
``NOMINAL_S``.  A change to the program moves it in proportion; a change in
the host's speed moves the program and the reference alike and cancels.

``slowdown_now`` measures the host's speed between pieces of work, for
work too short to be sampled while it runs (an import in a fresh
interpreter).
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.05
# A round figure near the median CPU time of one ``reference_kernel`` call
# on the host the baseline was recorded on (2-vCPU Intel Xeon VM, CPython
# 3.11, numpy 2.4 with single-threaded OpenBLAS): the scale of scaled_s.
NOMINAL_S = 0.001


_RNG = np.random.default_rng(20240917)
_W = _RNG.standard_normal((64, 64)) * 0.1
_X = _RNG.standard_normal((64, 64))
_G = _RNG.standard_normal((64, 64))


def reference_kernel() -> float:
    """Fixed small-matrix work shaped like a training step of a 64-wide MLP.

    Forward and backward through a 64x64 layer on a batch of 64, with the
    elementwise transcendental functions of the losses.  Of the kernels
    tried (interpreter-bound loops, a memory-bound 200k-element sweep, a
    mix) this one's slowdowns tracked the workloads' best.
    """
    h = _X
    acc = 0.0
    for _ in range(16):
        h = np.tanh(h @ _W)
        g = (_G * (1.0 - h * h)) @ _W.T
        acc += float(np.log1p(np.exp(-np.abs(h))).sum()) + float((h.T @ g)[0, 0])
    return acc


def _timed_kernel() -> float:
    # the thread clock: while ITIMER_PROF is armed the process clock only
    # advances at scheduler ticks, too coarse for one sample
    t0 = time.thread_time()
    reference_kernel()
    return time.thread_time() - t0


def _speed(samples) -> float:
    """Nominal-speed work per CPU second, from reference samples.

    Samples spaced evenly in CPU time weight each stretch of the work
    alike, so the mean of ``NOMINAL_S / sample`` is the right average.
    """
    return sum(NOMINAL_S / s for s in samples) / len(samples)


def slowdown_now(n: int = 40) -> float:
    """How much slower than nominal the host runs the reference kernel now."""
    return 1.0 / _speed([_timed_kernel() for _ in range(n)])


class Span:
    """CPU time and reference samples between ``SpeedProbe.start_span`` and ``end``."""

    def __init__(self, probe: "SpeedProbe"):
        self._probe = probe
        self._n0 = len(probe.samples)
        self._spent0 = probe.spent
        self._cpu0 = time.process_time()
        self.cpu_s = self.net_s = self.scaled_s = self.slowdown = None

    def end(self) -> "Span":
        self.cpu_s = time.process_time() - self._cpu0
        p = self._probe
        self.net_s = self.cpu_s - (p.spent - self._spent0)
        samples = p.samples[self._n0:]
        # work too short to be sampled is scaled by the host's speed just after it
        self.slowdown = 1.0 / _speed(samples) if samples else slowdown_now()
        self.scaled_s = self.net_s / self.slowdown
        return self


class SpeedProbe:
    """Sample ``reference_kernel`` every ``INTERVAL`` CPU seconds while running."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # CPU time spent in the handler, taken out of spans
        self._busy = False
        self._old = None

    def _on_tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.thread_time()
        try:
            self.samples.append(_timed_kernel())
        finally:
            self.spent += time.thread_time() - t0
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old)

    def start_span(self) -> Span:
        return Span(self)
