"""Host-speed calibration for wall-clock metrics on a shared machine.

On a host shared with other tenants the speed of one core drifts by up
to 2x, on every timescale from milliseconds to minutes, so the wall time
of the same report differs by 20-40% between runs a few minutes apart.
``HostSpeed`` measures that drift where the work runs: a wall-clock
timer interrupts the process every ``INTERVAL_S`` and times a short
fixed kernel in the signal handler.  A measured interval is then
reported as its wall time minus the kernel time spent inside it, scaled
by ``NOMINAL_S`` over the mean kernel time inside it.  Work done on a
slow stretch of host time is scaled down as much as the kernel slowed
in that same stretch.

The kernel is forward-mode dual arithmetic on small tuples, the kind of
work (attribute access, tuple building, float arithmetic on Python
objects) that dominates the engine.  It uses no engine code, so a change
to the engine cannot move it.  ``NOMINAL_S`` is the kernel's median time
on the machine the benchmark was tuned on (2-vCPU Xeon VM, Python
3.11.7), so scaled times read as seconds on that machine.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.01
NOMINAL_S = 0.0003
_STEPS = 64


class _Dual:
    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v = v
        self.g = g

    def __add__(self, o):
        return _Dual(self.v + o.v, tuple(a + b for a, b in zip(self.g, o.g)))

    def __mul__(self, o):
        return _Dual(self.v * o.v, tuple(a * o.v + self.v * b for a, b in zip(self.g, o.g)))


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed calibration kernel."""
    start = perf_counter()
    x = _Dual(0.5, (1.0, 0.0, 0.0))
    y = _Dual(0.25, (0.0, 1.0, 0.0))
    acc = _Dual(0.0, (0.0, 0.0, 0.0))
    for i in range(_STEPS):
        acc = acc + x * y
        if i % 16 == 0:
            acc = _Dual(acc.v * 1e-3, acc.g)
    return perf_counter() - start


class HostSpeed:
    """Samples the kernel on a timer while the main thread works.

    ``reading()`` returns the cumulative kernel seconds and sample count;
    pass the difference of two readings around an interval to ``scale``.
    """

    def __init__(self):
        self.kernel_s = 0.0
        self.samples = 0
        self._running = False
        self._previous = None

    def _sample(self, signum, frame):
        self.kernel_s += kernel_seconds()
        self.samples += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        """Cancel the timer and restore the previous handler; safe to repeat."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._running = False

    def reading(self):
        return self.kernel_s, self.samples


def scale(wall_s: float, kernel_s: float, samples: int) -> float:
    """Wall seconds of an interval, less its kernel samples, at nominal host speed."""
    if samples == 0:
        return wall_s
    return (wall_s - kernel_s) * NOMINAL_S * samples / kernel_s
