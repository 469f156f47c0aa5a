"""Host-speed probe: times a timed section at the reference host speed.

The benchmark's host is a 2-core VM on a shared machine whose CPU speed
moves between states up to about 2x apart, lasting from seconds to
minutes, on both CPUs and with almost no stolen time reported. A raw wall time
then varies more with the state the run falls into than with the code.
While a section runs, a timer signal runs a fixed probe computation 25
times a second in the main thread (between the section's own bytecodes).
Each time it runs the probe twice and records how long the second run
took: the first brings the probe's data back into cache, so that the
recorded time follows the host's speed and not the cache state the
section left. The section's time, less the probes' own time, is scaled
by REF_PROBE_S over the mean recorded time: the time the section would
take on the host in the state where the probe takes REF_PROBE_S. The
probe does not call momprop.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_HZ = 25
# A round figure within the range of mean probe times seen on the
# reference host. It sets the scale of every reported time: keep it
# fixed, or earlier figures stop being comparable.
REF_PROBE_S = 0.3e-3

_LARGE = np.random.default_rng(0).standard_normal((64, 64))
_SMALL = _LARGE[:8, :8].copy()


def probe_body() -> int:
    """Interpreter loop, small numpy calls and a few 64x64 products: the
    kinds of work the workloads do."""
    s = 0
    for i in range(1500):
        s += i * i % 7
    b = _SMALL
    for _ in range(30):
        b = np.tanh(b @ b * 0.1) + 0.5
    c = _LARGE
    for _ in range(4):
        c = np.tanh(c @ _LARGE * 0.01)
    return s


class SpeedProbe:
    """start() ... stop() around a section; stop() returns its time at
    the reference speed. The probe also runs at each end, so that a short
    section has at least two probe times."""

    def __init__(self):
        self.times: list[float] = []
        self.elapsed = 0.0
        self._spent = 0.0  # time the probe took inside the section

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe_body()
        t1 = time.perf_counter()
        probe_body()
        t2 = time.perf_counter()
        self.times.append(t2 - t1)
        self._spent += t2 - t0

    def start(self) -> None:
        self.times.clear()
        self._tick()
        self._spent = 0.0
        self._t0 = time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / PROBE_HZ, 1.0 / PROBE_HZ)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._old)
        self.elapsed = elapsed - self._spent
        self._tick()
        return self.scaled()

    def mean_probe_s(self) -> float:
        return statistics.fmean(self.times)

    def scaled(self) -> float:
        return self.elapsed * REF_PROBE_S / self.mean_probe_s()
