"""Host-speed reference: fixed kernels timed on an interval timer.

The benchmark runs on a few vCPUs of a shared host whose speed changes
within seconds: it flips between a fast and a slow state, and the slow
state costs interpreter-heavy code with many small numpy calls about twice
the time, tight loops about 1.5 times and array passes about 1.25 times.
No run length makes raw wall time steady under that, so the end-to-end
times are reported in reference seconds.

A ``HostClock`` runs the reference kernels from a SIGALRM handler every
``PERIOD_S`` seconds of wall time, records how long each took, and
accumulates the time spent in the handler so that it can be taken out of
any measured interval.  There is one kernel for each kind of work the
package does (``KERNELS``):

- ``rk4``: an RK4 march of a 33-lane system in small numpy arrays, the
  shape of the shooting sweeps;
- ``loop``: a bare interpreter loop;
- ``array``: numpy arithmetic on an array that fits in cache;
- ``memory``: passes over an array larger than the caches.

A workload weighs the kernels by how much of its time is of each kind
(``workloads.REFERENCE_MIX``).  ``normalise`` turns an interval into
reference seconds: its duration, less the handler's share, times the host
speed, which is the weighted nominal kernel time over the weighted mean
kernel time of the samples taken during the interval.  That is the duration
on a host where every kernel takes its nominal time.  The host's drift
cancels; the program's own cost does not, since the kernels are the
benchmark's code and the program cannot change them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# the kernels take about 8 ms together, so the handler holds about 4% of
# the process's time, all of it taken out of the measured intervals
PERIOD_S = 0.2
SMALL, LARGE = 8192, 1_000_000


def _rk4(state: dict) -> None:
    p = np.linspace(-1.0, 1.0, 33)
    y = np.zeros_like(p)
    h = 0.01

    def rhs(yv, pv):
        return np.sin(yv) - pv, -np.cos(yv) * pv

    for _ in range(60):
        k1y, k1p = rhs(y, p)
        k2y, k2p = rhs(y + 0.5 * h * k1y, p + 0.5 * h * k1p)
        k3y, k3p = rhs(y + 0.5 * h * k2y, p + 0.5 * h * k2p)
        k4y, k4p = rhs(y + h * k3y, p + h * k3p)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)


def _loop(state: dict) -> None:
    s = 0
    for i in range(25_000):
        s += i * i % 7


def _array(state: dict) -> None:
    a = state["small"]
    for _ in range(80):
        a = np.sqrt(a * a + 1.0) - 0.999


def _memory(state: dict) -> None:
    for _ in range(3):
        np.multiply(state["large"], 1.0000001, out=state["large"])


# name -> (kernel, nominal seconds: about its time in the host's fast state)
KERNELS = {
    "rk4": (_rk4, 0.0019),
    "loop": (_loop, 0.0020),
    "array": (_array, 0.0019),
    "memory": (_memory, 0.0019),
}


class HostClock:
    """Kernel samples taken on a timer, and the time they cost."""

    def __init__(self, t_spawn: float) -> None:
        # the mark of the moment the process was spawned: no CPU used yet
        self.spawned = (t_spawn, 0.0, 0.0, 0.0, 0)
        self.samples: list[dict[str, tuple[float, float]]] = []  # name -> (wall, cpu)
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._state = {"small": np.linspace(0.0, 1.0, SMALL),
                       "large": np.linspace(0.0, 1.0, LARGE)}

    def _tick(self, signum=None, frame=None) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        sample = {}
        for name, (kernel, _) in KERNELS.items():
            w, c = time.perf_counter(), time.process_time()
            kernel(self._state)
            sample[name] = (time.perf_counter() - w, time.process_time() - c)
        self.samples.append(sample)
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        """The clock's state now, for ``normalise``."""
        return (time.perf_counter(), time.process_time(),
                self.spent_wall, self.spent_cpu, len(self.samples))

    def normalise(self, start: tuple, end: tuple, mix: dict[str, float]) -> dict:
        """Raw and reference-second wall and CPU time between two marks.

        mix weighs the kernels by name; the host speed is the weighted
        nominal kernel time over the weighted mean of the samples taken
        between the marks.
        """
        wall = (end[0] - start[0]) - (end[2] - start[2])
        cpu = (end[1] - start[1]) - (end[3] - start[3])
        n0, n1 = start[4], end[4]
        if n1 - n0 < 2:  # shorter than two periods: borrow the next samples
            while len(self.samples) < n0 + 2:
                self._tick()
            n1 = n0 + 2
        chosen = self.samples[n0:n1]
        nominal = sum(w * KERNELS[name][1] for name, w in mix.items())
        speed = [nominal * len(chosen) / sum(w * s[name][kind] for s in chosen
                                             for name, w in mix.items())
                 for kind in (0, 1)]
        return {
            "raw_wall_s": wall,
            "raw_cpu_s": cpu,
            "wall_ref_s": wall * speed[0],
            "cpu_ref_s": cpu * speed[1],
            "host_speed": speed[0],
        }
