"""Discrete-time multichannel signals and the convolution pair they ride on.

A Signal holds channels x samples at a fixed sample period dt.  A Kernel is a
matrix-valued finite impulse response W[k], k = 0..L-1, the discretization of
a continuous impulse-response matrix W(t) sampled at multiples of dt.

Convolutions carry an explicit dt weight,

    y[i] = dt * sum_k W[k] @ x[i-k]        (x[j] = 0 for j < 0)

so continuous-time formulas carry over verbatim; the adjoint operator is the
time-reversed, transposed-tap contraction

    r[i] = dt * sum_k W[k].T @ e[i+k]      (e[j] = 0 for j >= n)

and the pair satisfies <conv(W,x), y> == <x, adj(W,y)>: exactly (up to the
order of summation) on the direct path, to FFT rounding on the partitioned
FFT path that long scalar kernels take (see _partitioned_convolve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as _fft

from .errors import ConfigurationError, DimensionError, LengthError, NumericError


def _as_readonly_f64(arr, ndim, name, copy=True):
    """arr as a read-only C-ordered float64 array of ndim dimensions, checked
    finite; without copy, an array that already is one is taken over as is."""
    out = (np.array if copy else np.asarray)(arr, dtype=np.float64, order="C")
    if out.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
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

    @staticmethod
    def zeros(channels: int, n_samples: int, dt: float) -> "Signal":
        return Signal(np.zeros((channels, n_samples)), dt)


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
        lags = np.flatnonzero(np.any(self.taps != 0.0, axis=(1, 2)))
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

    def first_nonzero_lag(self):
        """Smallest k with W[k] != 0, or None for an all-zero kernel."""
        lags = self.nonzero_lags()
        return int(lags[0]) if lags.size else None

    @staticmethod
    def delta(gain_matrix, dt: float, lag: int = 0, length: int | None = None) -> "Kernel":
        """Discrete delta kernel: single tap gain_matrix/dt at the given lag."""
        g = np.atleast_2d(np.asarray(gain_matrix, dtype=np.float64))
        L = (lag + 1) if length is None else length
        if lag >= L:
            raise ConfigurationError(f"lag {lag} does not fit in {L} taps")
        taps = np.zeros((L, g.shape[0], g.shape[1]))
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


# The partitioned FFT engine pays once one block's direct sum (block length x
# kernel length multiply-adds, np.convolve) costs more than this; below it the
# engine's fixed per-block cost (two real FFTs of twice the block, a spectral
# multiply-add per live partition, Python overhead) loses.  Measured once on a
# 2-vCPU Xeon, numpy 2.4 / scipy 1.17, BLAS at one thread: README, "Partitioned
# FFT engine".
_FFT_MIN_BLOCK_MACS = 1_000_000


def _fft_pays(kernel_len: int, block: int, n: int) -> bool:
    """Whether the FFT engine beats the direct sum, judged from sizes alone."""
    return min(block, n) * kernel_len >= _FFT_MIN_BLOCK_MACS


def _partitioned_convolve(w: np.ndarray, x: np.ndarray | None, block: int, gate=None,
                          feed: np.ndarray | None = None,
                          sums: np.ndarray | None = None) -> np.ndarray:
    """Causal scalar convolution by uniformly partitioned overlap-save.

    The taps w are cut into partitions of `block` taps; each live (not
    all-zero) partition is transformed once.  Every block of the trace is
    transformed once, together with the block before it, and multiplied into
    a frequency-domain accumulator for each later output block it reaches;
    an output block is one inverse transform of its accumulator.

    Without gate, returns y[i] = sum_k w[k] x[i-k] for i < n = x.size.  With
    gate, returns the recursion y[t0:t1] = gate(x[t0:t1] + (w * (feed +
    y))[t0:t1], t0, t1), one block at a time, and writes each block's
    feedback sum (w * (feed + y))[t0:t1] into sums if given; x or feed may be
    None (zero).  w must vanish below lag `block`, so each block's feedback
    is complete before the block is emitted and nothing is ever added to
    output already emitted.
    """
    n = (feed if x is None else x).size
    y = np.zeros(n)
    nz = np.flatnonzero(w[:n])  # taps at lags >= n never reach the output
    w = w[: nz[-1] + 1] if nz.size else w[:0]
    out = y
    if gate is None and nz.size:
        # leading zero taps are a pure delay: the output before the first live
        # tap stays exactly zero, as on the direct path, and the kernel shrinks
        w, x, out = w[nz[0] :], x[: x.size - nz[0]], y[nz[0] :]
    n = out.size
    n_parts = max(1, -(-w.size // block))
    parts = np.zeros((n_parts, block))
    parts.ravel()[: w.size] = w
    live = np.flatnonzero(np.any(parts != 0.0, axis=1))
    if gate is not None and live.size and live[0] == 0:
        raise ConfigurationError("gated partitioned convolution needs w zero below the block")
    nfft = _fft.next_fast_len(2 * block, real=True)
    # (partition index, spectrum) of each live partition
    reach = list(zip(live.tolist(), _fft.rfft(parts[live], nfft)))
    acc = np.zeros((n_parts, nfft // 2 + 1), dtype=complex)  # ring: block j in slot j % n_parts
    win = np.zeros(nfft)  # [previous block | current block | zero pad]
    for j, t0 in enumerate(range(0, n, block)):
        t1 = min(t0 + block, n)
        slot = j % n_parts
        if gate is not None:
            fb = _fft.irfft(acc[slot], nfft)[block : block + t1 - t0]
            if sums is not None:
                sums[t0:t1] = fb
            out[t0:t1] = gate(fb if x is None else x[t0:t1] + fb, t0, t1)
            acc[slot] = 0.0
        # a short last block leaves stale samples after t1 - t0 in the window;
        # by causality they reach only outputs past the end of the trace
        win[:block] = win[block : 2 * block]
        win[block : block + t1 - t0] = (x if gate is None else out)[t0:t1]
        if feed is not None:
            win[block : block + t1 - t0] += feed[t0:t1]
        spec = _fft.rfft(win)
        for p, part in reach:
            acc[(j + p) % n_parts] += spec * part
        if gate is None:
            out[t0:t1] = _fft.irfft(acc[slot], nfft)[block : block + t1 - t0]
            acc[slot] = 0.0
    return y


def _dense_scalar(kernel: Kernel) -> bool:
    """Whether a kernel takes the scalar convolution paths (np.convolve or the
    FFT engine).  Matrix kernels, and scalar ones with at most one live tap,
    take the lag-sparse loop: one product per live lag and sample, which for
    a single tap is exactly what np.convolve computes, without its cost."""
    return kernel.rows == kernel.cols == 1 and kernel.nonzero_lags().size > 1


def convolve(kernel: Kernel, x: Signal) -> Signal:
    """Causal discrete convolution y[i] = dt * sum_k W[k] @ x[i-k]."""
    _check_pair(kernel, x, expect_cols=True)
    n = x.n_samples
    y = np.zeros((kernel.rows, n))
    if n:
        if _dense_scalar(kernel):
            # long scalar kernels: one FFT block of about twice the kernel;
            # short ones: np.convolve, the direct sum
            w, block = kernel.taps[:, 0, 0], 2 * kernel.length
            if _fft_pays(kernel.length, block, n):
                y[0] = _partitioned_convolve(w, x.samples[0], block)
            else:
                y[0] = np.convolve(x.samples[0], w)[:n]
        else:
            xs = x.samples
            for k in kernel.nonzero_lags():
                if k >= n:
                    break
                y[:, k:] += kernel.taps[k] @ xs[:, : n - k]
    y *= kernel.dt
    return Signal._own(y, x.dt)


def adjoint_convolve(kernel: Kernel, e: Signal) -> Signal:
    """Adjoint of convolve: r[i] = dt * sum_k W[k].T @ e[i+k]."""
    _check_pair(kernel, e, expect_cols=False)
    n = e.n_samples
    r = np.zeros((kernel.cols, n))
    if n:
        if _dense_scalar(kernel):
            w, L = kernel.taps[:, 0, 0], kernel.length
            if _fft_pays(L, 2 * L, n):
                # the adjoint is the convolution of the time-reversed trace
                r[0] = _partitioned_convolve(w, e.samples[0, ::-1], 2 * L)[::-1]
            else:
                r[0] = np.convolve(e.samples[0], w[::-1])[L - 1 : L - 1 + n]
        else:
            es = e.samples
            for k in kernel.nonzero_lags():
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
