"""How fast the shared core runs just now, for scaling timings to one reference speed.

On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, as other tenants come and go.  The process's CPU time
slows with its wall time, so this is contention for the core, not time
taken from it, and no choice of which calls to time escapes a stretch
that outlasts a run.  So the workload process times a fixed probe between
rounds, and every latency is scaled by ``REFERENCE_S`` over the probe's
time next to it: the latency the call would have had with the core
running as fast as when the probe takes ``REFERENCE_S``.

The probe mixes the two kinds of work the library does: small numpy
array operations (quadrature rules on 15-point panels) and plain Python
arithmetic.  Either alone tracks the slowdowns less closely than the two
together.
"""

import time

import numpy as np

# About the probe's time on an undisturbed core of the 2.1 GHz Xeon host on
# which the benchmark was written, so that scaled times read close to wall
# times there.  A fixed constant: changing it rescales every timing metric.
REFERENCE_S = 4.5e-3

_X = np.linspace(0.0, 1.0, 15)


def probe() -> float:
    """Seconds a fixed mix of small numpy and plain Python work takes just now."""
    begun = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        acc += float(np.dot(_X, np.sin(_X * i)))
    for i in range(20000):
        acc += (i * 0.5) ** 0.5 / (1.0 + i)
    return time.perf_counter() - begun
