"""Host speed reference for scaling measured times.

On a shared host the speed of the program's operations drifts by 20-30%
within minutes as other tenants load the machine.  A fixed reference task
runs right after every request, in the measuring process, and each
request's wall time is multiplied by REFERENCE_S over the mean of the two
runs around it: the time is reported as seconds on a host where the task
takes REFERENCE_S.  The task runs in-process on purpose: in a separate
helper process, woken from idle for each sample, it ran slower and tracked
the requests' speed worse.
"""

import time

import numpy as np

REFERENCE_S = 1.0e-2  # typical reference_loop() between requests, 2-core Xeon


def reference_loop():
    """Seconds taken by a fixed task made of the operations that dominate
    the program: small-array NumPy calls, scalar arithmetic on NumPy values
    and short Python loops."""
    start = time.perf_counter()
    point, ones, mats = np.array([0.3, -0.2]), np.ones(2), np.empty((2, 2, 2))
    for _ in range(300):
        z = np.asarray(point * 0.5, dtype=float)
        phi = -2.0 * z / (1.0 + z @ z)
        for i in range(2):
            for s in range(2):
                mats[i, s, 0] = (s == i) * phi[0] + (s == 0) * phi[i]
        copy = np.array(mats, dtype=float)
        if np.all(np.isfinite(copy)):
            np.tensordot(z, copy, axes=(0, 0)) @ ones
    return time.perf_counter() - start


class HostTimer:
    """Times calls between runs of the reference task; consecutive calls
    share the run between them."""

    def __init__(self):
        self._last = reference_loop()

    def time(self, func, *args):
        """(wall seconds, scaled seconds, result) of ``func(*args)``."""
        start = time.perf_counter()
        result = func(*args)
        wall = time.perf_counter() - start
        now = reference_loop()
        scaled = wall * REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        return wall, scaled, result
