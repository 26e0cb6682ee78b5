"""Machine-speed sampler: a fixed reference loop timed throughout a repetition.

This machine's speed drifts over seconds to minutes: the same single-threaded
Fraction loop takes from 1x to 2x its fastest time, and CPU time tracks wall
time, so the drift is the speed of the shared processor, not scheduling.  A
calibration loop timed before or after a run does not remove it, because the
speed has changed by the time the run is measured.  Timing the reference loop
every few milliseconds from a SIGALRM handler, inside the measured region,
does: over 30-second windows the interquartile spread of a P^{1|1} Cech job
was 13.5% of its median, and that of its ratio to the interleaved reference
2.5%.

The reference loop is benchmark code, independent of the package, so a change
to the package cannot change its duration; it runs with the garbage collector
off, so the package's heap size does not leak into it either.
"""

import gc
import signal
import time
from fractions import Fraction

# Sampling periods: dense during set-up, which lasts only a tenth of a
# second, sparse during the jobs (about 3% of their time).
SETUP_INTERVAL_S = 0.002
INTERVAL_S = 0.02
# Reference-loop duration that defines "reference speed".  Set to the loop's
# typical duration on the 2-vCPU Xeon (2.1 GHz) virtual machine where the
# benchmark was defined, so adjusted times read close to raw seconds there.
REFERENCE_S = 0.0006


def reference_loop():
    """Fixed Fraction and dict work, shaped like the package's inner loops."""
    acc = {}
    for i in range(1, 60):
        f = Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2) - Fraction(1, i % 4 + 1)
        key = (i % 13, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + f
    return acc


class SpeedSampler:
    """Times reference_loop periodically while started.

    ``spent`` is the total time taken by the samples, which ``now()``
    leaves out of every interval measured with it; ``factor(a, b)`` converts
    seconds measured while samples a..b-1 were taken to reference-speed
    seconds.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        enter = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - enter

    def start(self, interval):
        """Start sampling, or change the period of a started sampler."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def now(self):
        """perf_counter() minus the time taken by samples so far.  Reads
        ``spent`` on both sides of the clock, so a sample that lands in
        between cannot be subtracted without being counted."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:
                return t - spent

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, first=0, last=None):
        """Mean of REFERENCE_S / sample: the share of reference speed the
        machine ran at, averaged over time."""
        window = self.samples[first:last]
        if not window:
            return 1.0
        return sum(REFERENCE_S / d for d in window) / len(window)
