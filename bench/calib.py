"""Host-speed calibration shared by run.py and worker.py.

The speed of this kind of shared host drifts by up to half over seconds
to tens of seconds, for reasons outside the benchmark's processes.  A
timing is therefore bracketed by runs of one fixed calibration chunk, and
scaled by the chunk's reference time over its median measured time:
corrected times are those of a host on which the chunk takes its
reference time.  The program under test never runs this code.

Two chunks: small-Fraction arithmetic in this process, the kind of work
mukaistab does, for ops that run in the worker; and the start-up of a bare
interpreter child, for cli-session, whose ops are child processes that
the arithmetic chunk tracks less well, and for the worker set-ups, which
are process start-ups too.
"""

import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from time import perf_counter

CAL_ITERS = 300      # Fraction steps in one arithmetic chunk
CAL_SPAN = 2         # chunk groups on each side that set an op's scale


def fraction_chunk(times=1):
    """Mean seconds one fixed chunk of small-Fraction arithmetic takes
    now, over ``times`` chunks run back to back."""
    t0 = perf_counter()
    for _ in range(times):
        acc = Fraction(0)
        for i in range(CAL_ITERS):
            x = Fraction(i % 13 - 6, i % 5 + 1)
            acc += x * Fraction(i % 7 + 1, 3) - x
    return (perf_counter() - t0) / times


def child_chunk(times=1):
    """Mean seconds a bare interpreter child (no site, no environment)
    takes from spawn to exit now, over ``times`` children run one after
    the other."""
    t0 = perf_counter()
    for _ in range(times):
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"],
                       check=True, timeout=60)
    return (perf_counter() - t0) / times


class Chunk:
    """A calibration chunk: ``run(times)`` times it, ``ref_s`` is its time
    on the reference host and ``every_s`` the op time between two runs of
    it, so that calibration stays a fixed share of a run."""

    def __init__(self, run, ref_s, every_s):
        self.run, self.ref_s, self.every_s = run, ref_s, every_s

    def scale(self, timings):
        """The factor that takes times measured beside these chunk timings
        to the reference host's speed; the median keeps one chunk that an
        interrupt slowed from moving it."""
        return self.ref_s / statistics.median(timings)

    def corrected(self, lat, cal_n, cal_s):
        """Latencies at the reference host's speed.  The ops between chunk
        groups j and j+1 (cal_n[j] and cal_n[j+1] ops done) are scaled by
        the median of the CAL_SPAN groups on each side of that interval:
        the host drifts within a second, and one chunk's timing is noisier
        than a few."""
        out = array("d", lat)
        for j in range(len(cal_n) - 1):
            f = self.scale(cal_s[max(0, j - CAL_SPAN + 1):j + CAL_SPAN + 1])
            for i in range(cal_n[j], cal_n[j + 1]):
                out[i] *= f
        return out


FRACTION = Chunk(fraction_chunk, 0.003, 0.05)
CHILD = Chunk(child_chunk, 0.015, 0.1)
