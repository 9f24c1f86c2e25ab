"""Machine-speed calibration kernels.

On the 2-vCPU VM the benchmark was built on, CPU speed drifts by up to
about 1.6x over minutes and the two vCPUs can differ by 1.4x at the same
moment (other tenants of the host; no steal time is reported and CPU time
stretches with wall time).  Raw wall times taken minutes apart are therefore
not comparable.  Between timed repetitions the benchmark runs a fixed kernel
that does the same kind of work as the workload but touches no kschemo
code; the run's times are divided by ``median kernel time / REFERENCE_S``,
giving the time at the reference speed.  A change to kschemo cannot move
the kernels, so scaled figures of commits measured at different times
compare.

``dispatch`` mimics a 1D step on 256 cells (many small numpy calls and
Python-level reductions); ``arrays`` mimics a 2D step on 512^2 (reductions,
stencils and a DCT on 2 MiB fields).
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.fft import dctn, idctn

# median kernel times on the reference machine (2-vCPU Xeon VM, quiet host)
REFERENCE_S = {"dispatch": 0.030, "arrays": 0.075}
SAMPLES = 5


def _dispatch(u: np.ndarray) -> float:
    h = 1.0 / u.size
    total = 0.0
    for _ in range(400):
        flux = np.zeros(u.size + 1)
        flux[1:-1] = np.diff(u) / h
        u = u + 1e-7 * np.diff(flux) / h
        if not np.all(np.isfinite(u)):
            raise FloatingPointError("calibration field went non-finite")
        total += math.fsum(u) * h + float(np.max(np.abs(u)))
    return total


def _arrays(x: np.ndarray) -> float:
    total = math.fsum(x.ravel()) + math.fsum((np.abs(x) ** 2.0).ravel())
    spectral = dctn(x, type=2, norm="ortho")
    spectral /= 1.5
    w = idctn(spectral, type=2, norm="ortho")
    out = np.zeros_like(w)
    for axis in (0, 1):
        shape = list(w.shape)
        shape[axis] += 1
        flux = np.zeros(shape)
        inner = [slice(None)] * 2
        inner[axis] = slice(1, -1)
        flux[tuple(inner)] = np.diff(w, axis=axis)
        out += np.diff(flux, axis=axis)
    return total + float(np.linalg.norm(out - w))


def kernel_samples(kind: str) -> list[float]:
    """Times of SAMPLES kernel calls."""
    if kind == "dispatch":
        fn, arg = _dispatch, np.exp(-((np.arange(256) + 0.5) / 256 - 0.5) ** 2 / 0.005)
    else:
        fn, arg = _arrays, np.random.default_rng(0).random((512, 512))
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return times


def speed_factor(kind: str, samples: list[float]) -> float:
    """Median kernel time over its reference time: above 1 when the machine runs slow."""
    return statistics.median(samples) / REFERENCE_S[kind]


class Calibrator:
    """Takes kernel samples on ``processes`` processes at once.

    A workload that keeps several processes busy runs at the speed of
    several CPUs, so it is calibrated on as many; the extra processes come
    from a spawned pool that lives until the ``with`` block ends.
    """

    def __init__(self, kind: str, processes: int = 1):
        self.kind = kind
        self.helpers = processes - 1
        self.pool = None
        if self.helpers > 0:
            ctx = multiprocessing.get_context("spawn")
            self.pool = ProcessPoolExecutor(self.helpers, mp_context=ctx)
            self.pool.submit(kernel_samples, kind).result()  # start-up off the clock

    def samples(self) -> list[float]:
        futures = [self.pool.submit(kernel_samples, self.kind) for _ in range(self.helpers)]
        local = kernel_samples(self.kind)
        return local + [t for future in futures for t in future.result()]

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.shutdown()
