"""The host-speed probe, and times scaled to a reference host speed.

The host the benchmark was defined on switches between two speeds about
1.4-1.6x apart.  A fixed computation timed just before a measurement slows
by about as much as the measurement does, so dividing by it cancels most of
the drift (see README, Noise).
"""

from __future__ import annotations

import gc
import sys
import time
from fractions import Fraction

import numpy

#: host_reference_s() on the host where the benchmark was defined, a 2-vCPU
#: Intel Xeon virtual machine in its faster state.  Times are reported at
#: that speed.
REFERENCE_S = 0.002

#: A run fails when its loop's median probe is slower than the probe timed
#: before ``import entspan.cli`` by more than this factor.  The host's two
#: speeds are up to 1.6x apart, and over 90 runs of the unchanged program
#: the ratio ranged from 0.65 to 1.69, so only a slowdown of the whole
#: process beyond that band, which the scaling would otherwise cancel,
#: trips it.
SLOWDOWN_LIMIT = 2.5

_REFERENCE_MATRIX = numpy.arange(64.0).reshape(8, 8) + numpy.eye(8)


def host_reference_s() -> float:
    """Seconds a fixed mix of Fraction, interpreter and LAPACK work takes now.

    The mix resembles the ops: exact rationals, tight Python loops and small
    SVDs.  Trace hooks and the garbage collector are paused while it runs,
    so neither the program's hooks nor its heap can slow it.
    """
    trace, profile, collecting = sys.gettrace(), sys.getprofile(), gc.isenabled()
    sys.settrace(None)
    sys.setprofile(None)
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 150):
            acc += Fraction(i, i + 1) * 3
        total = 0
        for i in range(15000):
            total += i * i % 7
        for _ in range(15):
            numpy.linalg.svd(_REFERENCE_MATRIX)
        return time.perf_counter() - start
    finally:
        sys.settrace(trace)
        sys.setprofile(profile)
        if collecting:
            gc.enable()


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """A time taken while the probe read ``reference_s``, scaled to REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s
