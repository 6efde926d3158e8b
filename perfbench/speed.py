"""The machine's speed, measured beside every timed op.

The benchmark runs on a virtual machine that shares its host: the same
fixed Python loop runs 1.0x to 1.8x its fastest time, in regimes of
seconds to minutes, with no steal time and with CPU time growing as
wall time does.  A run that falls into a slow regime would read as a
slower program.  So every op is timed beside a fixed reference
computation that does not touch mirrorcrit, and its wall time is scaled
by how fast the reference ran just before and just after it:

    scaled = wall * REFERENCE_S / reference time around the op

A scaled time is the op's time on a machine where the reference takes
REFERENCE_S.  Only mirrorcrit's work moves it; a slow phase of the host
slows the op and the reference alike.
"""

from __future__ import annotations

import random
import statistics
import time

# the reference's fastest time on the 2-core Xeon VM the benchmark was
# written on; it fixes the scale, so that scaled times read as seconds
REFERENCE_S = 0.008
REPEATS = 3  # reference calls per measurement; their median is taken


def _reference(n=24, bits=64, seed=7):
    """Fraction-free (Bareiss) elimination of a fixed n x n matrix of
    `bits`-bit integers: pure-Python loops over integers that grow to
    about 1,500 bits, the kind of work mirrorcrit's exact linear algebra
    does.  It allocates little, so the garbage collector and the state
    of the program's heap do not move its time."""
    rng = random.Random(seed)
    a = [[rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)] for _ in range(n)]
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                continue
            a[k], a[pivot] = a[pivot], a[k]
        akk, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
        prev = akk
    return a[n - 1][n - 1]


def reference_time():
    """Median wall time of REPEATS reference calls, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def warm_up():
    for _ in range(20):
        _reference()


def scale(wall, reference_before, reference_after):
    """`wall` seconds scaled to a machine where the reference takes REFERENCE_S."""
    return wall * REFERENCE_S / ((reference_before + reference_after) / 2)
