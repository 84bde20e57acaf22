"""How fast the host runs, sampled inside a repetition while it runs.

On a shared host the same repetition's wall time moves by tens of percent:
other tenants slow this guest's CPUs down in episodes of a second or two,
and how much of the time is slow drifts over minutes.  A Sampler measures
that where it happens.  While a repetition runs, SIGALRM fires every
PERIOD_S seconds of wall time and the handler times `kernel`, a fixed
fraction-arithmetic elimination of a fraction of a millisecond.  The
repetition's mean speed is the mean of REF_S over those probe times.  run.py
multiplies the repetition's wall time, less the probes' own time, by that
speed: the time the repetition would have taken at the reference speed.

The kernel does the kind of work dualcoh does (dict rows of Fractions,
reduced against pivot rows) but imports nothing from dualcoh, so no change
to the program can change its cost.
"""

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02    # wall time between probes
REF_S = 1.5e-4     # probe time that defines the reference speed (a fast host state)
WARMUP = 50        # untimed kernel runs before the first probe
BURST = 25         # probes in a row for `burst_speed`

ROWS = [{(7 * i + j) % 12: Fraction(j + 1, i + 2) for j in range(4)} for i in range(7)]


def kernel():
    """Reduce ROWS to echelon form; a fixed amount of interpreter work."""
    pivots = {}
    for row in ROWS:
        r = dict(row)
        for c in [c for c in r if c in pivots]:
            k = r.pop(c)
            for c2, v2 in pivots[c].items():
                if c2 != c:
                    r[c2] = r.get(c2, 0) - k * v2
        r = {c: v for c, v in r.items() if v}
        if r:
            p = min(r)
            pivots[p] = {c: v / r[p] for c, v in r.items()}
    return len(pivots)


def probe():
    t0 = time.monotonic()
    kernel()
    return time.monotonic() - t0


def burst_speed():
    """The host's speed now: REF_S over a probe's time, averaged over BURST probes in a row."""
    for _ in range(WARMUP):
        kernel()
    return statistics.mean(REF_S / probe() for _ in range(BURST))


class Sampler:
    """Context manager: probe the host's speed every PERIOD_S while inside.

    `samples` holds each probe's time; `spent`, set on exit, is the time
    the probes took away from what ran inside.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        for _ in range(WARMUP):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spent = sum(self.samples)
        if not self.samples:  # ended before the first alarm; probe once after it
            self.samples.append(probe())
        return False

    @property
    def speed(self):
        """Mean speed relative to the reference: REF_S over a probe's time, averaged.

        Probes are spaced evenly in wall time, so this is the time-weighted
        mean speed of the host while the repetition ran.
        """
        return statistics.mean(REF_S / s for s in self.samples)
