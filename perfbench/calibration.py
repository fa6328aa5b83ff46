"""Host-speed calibration: fixed numpy work timed next to the ops.

The benchmark runs on a shared host whose speed drifts by up to 2x over
seconds to minutes.  Each op (or train() call) is bracketed by one of these
kernels, which use numpy only and no echotrain code, so a change to the
package cannot move them.  An op time t measured next to a calibration that
took c ms is reported as t * REF_MS[kind] / c: the op's time on a host on
which the calibration takes its reference time.  See README.md, Noise.

    "python": a Python loop of tiny numpy calls, like the audit's one-sample
              feedback blocks and set-up's interpreter work;
    "matmul": lagged products of two 20 x 10 000 traces (BLAS, 1.6 MB
              each), like the training plants' tap gradients and
              convolutions.

A direct np.convolve kernel would resemble the 40 kHz plant more closely,
but its speed differs from one process to the next by up to 1.3x (memory
placement), which the BLAS kernel's does not (README.md, Noise).
"""

from __future__ import annotations

import time

import numpy as np

# Reference times (ms) of the kernels: about their times in the fast mode of
# the 2-vCPU Xeon VM the benchmark was written on.  Fixed constants that only
# set the scale; changing them rescales every reported time.
REF_MS = {"python": 10.0, "matmul": 6.0}

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal(8)
_GAIN = 0.3 * _rng.standard_normal((3, 3))
_LEFT = _rng.standard_normal((20, 10_000))
_RIGHT = _rng.standard_normal((20, 10_000))


def _python_kernel():
    x = np.zeros(3)
    for _ in range(1500):
        x = np.clip(_GAIN @ x + _SMALL[:3], -1.0, 1.0)
        np.convolve(_SMALL, _SMALL[:3])


def _matmul_kernel():
    n = _RIGHT.shape[1]
    for lag in range(0, 110, 10):
        _LEFT[:, lag:] @ _RIGHT[:, : n - lag].T


KERNELS = {"python": _python_kernel, "matmul": _matmul_kernel}


def calibrate(kind):
    """Wall time (ms) of one pass of the named kernel."""
    kernel = KERNELS[kind]
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


def factor(kind, before_ms, after_ms):
    """Scale from measured to reference host speed for work done between two
    calibrations."""
    return REF_MS[kind] / (0.5 * (before_ms + after_ms))
