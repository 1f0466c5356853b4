"""Machine-speed calibration samples, independent of araki_mi.

`calibration_s()` times a fixed mix of interpreter work, a cache-resident
real eigendecomposition and a memory-bound complex one.  Nothing here calls the package, so a change to
araki_mi cannot move it; `run.py` uses the samples to scale timings to a
reference machine speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_rng = np.random.default_rng(7)
_REAL = _rng.standard_normal((256, 256))
_REAL = _REAL + _REAL.T
_COMPLEX = _rng.standard_normal((400, 400)) + 1j * _rng.standard_normal((400, 400))
_COMPLEX = _COMPLEX + _COMPLEX.conj().T


def calibration_s() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    np.linalg.eigh(_REAL)
    np.linalg.eigh(_COMPLEX)
    return perf_counter() - t0


class Calibrator:
    """Takes a calibration sample whenever a second has passed since the last one.

    About 90 ms a second: often enough to follow the host's drift, rarely
    enough to leave the workload most of the run.
    """

    EVERY_S = 1.0

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if force or perf_counter() - self._last >= self.EVERY_S:
            self.samples.append(calibration_s())
            self._last = perf_counter()

