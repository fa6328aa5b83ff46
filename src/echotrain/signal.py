"""Discrete-time multichannel signals and the convolution pair they ride on.

A Signal holds channels x samples at a fixed sample period dt.  A Kernel is a
matrix-valued finite impulse response W[k], k = 0..L-1, the discretization of
a continuous impulse-response matrix W(t) sampled at multiples of dt.

Convolutions carry an explicit dt weight,

    y[i] = dt * sum_k W[k] @ x[i-k]        (x[j] = 0 for j < 0)

so continuous-time formulas carry over verbatim; the adjoint operator is the
time-reversed, transposed-tap contraction

    r[i] = dt * sum_k W[k].T @ e[i+k]      (e[j] = 0 for j >= n)

and the pair satisfies <conv(W,x), y> == <x, adj(W,y)> exactly, up to the
order of summation: both run one product per live lag, for scalar and matrix
kernels alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, LengthError, NumericError


def _as_readonly_f64(arr, ndim, name, copy=True):
    """arr as a read-only C-ordered float64 array of ndim dimensions, checked
    finite; without copy, an array that already is one is taken over as is."""
    out = (np.array if copy else np.asarray)(arr, dtype=np.float64, order="C")
    if out.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise NumericError(f"{name} contains non-finite values")
    out.flags.writeable = False
    return out


def _positive_dt(dt) -> float:
    """dt as a float, which must be positive and finite."""
    dt = float(dt)
    if not 0.0 < dt < np.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    return dt


@dataclass(frozen=True)
class Signal:
    """Multichannel trace: samples has shape (channels, n_samples)."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        self._set(self.samples, self.dt, copy=True)

    @classmethod
    def _own(cls, samples: np.ndarray, dt: float) -> "Signal":
        """Internal constructor that takes over an array its caller has just
        built and keeps no other writeable reference to: the checks of
        Signal(...), but a C-ordered float64 array is made read-only in place
        instead of copied.  Signal(...) copies."""
        sig = object.__new__(cls)
        sig._set(samples, dt, copy=False)
        return sig

    def _set(self, samples, dt, copy: bool):
        """The one validation path of both constructors."""
        samples = _as_readonly_f64(samples, 2, "samples", copy)
        if samples.shape[0] < 1:
            raise DimensionError("a Signal needs at least one channel")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dt", _positive_dt(dt))

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class Kernel:
    """Finite impulse response: taps has shape (L, rows, cols)."""

    taps: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "taps", _as_readonly_f64(self.taps, 3, "taps"))
        if self.taps.shape[0] < 1:
            raise DimensionError("a Kernel needs at least one tap")
        object.__setattr__(self, "dt", _positive_dt(self.dt))
        # the taps are read-only, so their live lags are found once
        lags = np.flatnonzero((self.taps != 0.0).any(axis=(1, 2)))
        lags.flags.writeable = False
        object.__setattr__(self, "_lags", lags)

    @property
    def length(self) -> int:
        return self.taps.shape[0]

    @property
    def rows(self) -> int:
        return self.taps.shape[1]

    @property
    def cols(self) -> int:
        return self.taps.shape[2]

    def nonzero_lags(self) -> np.ndarray:
        """Indices k with W[k] != 0 (read-only); empty for an all-zero kernel."""
        return self._lags

    @staticmethod
    def delta(gain_matrix, dt: float, lag: int = 0) -> "Kernel":
        """Discrete delta kernel: single tap gain_matrix/dt at the given lag."""
        g = np.atleast_2d(np.asarray(gain_matrix, dtype=np.float64))
        taps = np.zeros((lag + 1, g.shape[0], g.shape[1]))
        taps[lag] = g / dt
        return Kernel(taps, dt)

    @staticmethod
    def zero(rows: int, cols: int, dt: float, length: int = 1) -> "Kernel":
        return Kernel(np.zeros((length, rows, cols)), dt)


def _check_pair(kernel: Kernel, x: Signal, expect_cols: bool):
    want = kernel.cols if expect_cols else kernel.rows
    side = "cols" if expect_cols else "rows"
    if x.channels != want:
        raise DimensionError(
            f"kernel {side} ({want}) must match signal channels ({x.channels})")
    if kernel.dt != x.dt:
        raise ConfigurationError(f"dt mismatch: kernel {kernel.dt} vs signal {x.dt}")


def _convolve_stack(taps: np.ndarray, dt: float, x: np.ndarray, lags=None) -> np.ndarray:
    """convolve over stacks, taps (P|1, L, r, c) and x (P|1, c, n): one product
    per lag live in any item (lags, ascending, if known).  A lag all zero in an
    item adds exact zeros there, and numpy makes each item's product the BLAS
    call of a lone one, so each item is bit for bit its own convolve."""
    n = x.shape[2]
    if lags is None:
        lags = np.flatnonzero((taps != 0.0).any(axis=(0, 2, 3)))
    y = np.zeros((max(len(taps), len(x)), taps.shape[2], n))
    for k in lags.tolist():  # int slices are cheaper than np.int64 ones
        if k >= n:
            break
        y[:, :, k:] += taps[:, k] @ x[:, :, : n - k]
    y *= dt
    return y


def convolve(kernel: Kernel, x: Signal) -> Signal:
    """Causal discrete convolution y[i] = dt * sum_k W[k] @ x[i-k]: one product
    per live lag."""
    _check_pair(kernel, x, expect_cols=True)
    y = _convolve_stack(kernel.taps[None], kernel.dt, x.samples[None], kernel.nonzero_lags())
    return Signal._own(y[0], x.dt)


def adjoint_convolve(kernel: Kernel, e: Signal) -> Signal:
    """Adjoint of convolve: r[i] = dt * sum_k W[k].T @ e[i+k]."""
    _check_pair(kernel, e, expect_cols=False)
    n, es = e.n_samples, e.samples
    r = np.zeros((kernel.cols, n))
    for k in kernel.nonzero_lags().tolist():
        if k >= n:
            break
        r[:, : n - k] += kernel.taps[k].T @ es[:, k:]
    r *= kernel.dt
    return Signal._own(r, e.dt)


def time_reverse(x: Signal) -> Signal:
    """Reverse the sample order (involution)."""
    return Signal(x.samples[:, ::-1], x.dt)


def split_segments(x: Signal, period_samples: int) -> list[Signal]:
    """Cut into contiguous non-overlapping segments of period_samples each."""
    if period_samples < 1:
        raise LengthError(f"period must be positive, got {period_samples}")
    n = x.n_samples
    if n % period_samples:
        raise LengthError(
            f"n_samples ({n}) not divisible by period ({period_samples})")
    return [
        Signal(x.samples[:, i : i + period_samples], x.dt)
        for i in range(0, n, period_samples)
    ]


def inner(x: Signal, y: Signal) -> float:
    """Plain sample inner product sum_i x[i].y[i]."""
    if x.samples.shape != y.samples.shape:
        raise DimensionError(f"shape mismatch {x.samples.shape} vs {y.samples.shape}")
    return float(np.vdot(x.samples, y.samples))
