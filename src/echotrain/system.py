"""The general plant: a linear dynamic system with nonlinear feedback.

Forward evolution (discrete, per sample i):

    x[i] = (W_sa * s)[i] + (W_aa * a)[i]       pre-activation
    a[i], J[:,i] = f(x[i])                     state and Jacobian diagonal
    o[i] = (W_so * s)[i] + (W_ao * a)[i]

W_aa is strictly causal (tap 0 exactly zero), so the recursion is explicit.
The backward pass runs the reciprocal medium: errors propagate through the
transposed kernels, anti-causally, gated by the recorded Jacobian trace:

    e_a[i] = J[:,i] * ( dt sum_k W_ao[k].T e_o[i+k] + dt sum_k W_aa[k].T e_a[i+k] )
    e_s[i] =           dt sum_k W_sa[k].T e_a[i+k] + dt sum_k W_so[k].T e_o[i+k]

Error signals are gradient densities: dC/d(sample) = dt * e[sample].  With that
convention the continuous-time equations hold verbatim and every dt factor in
the parameter gradients is fixed by finite-difference validation (see
gradients module).

Noise, when configured, is measurement noise: the dynamics run clean and the
recorded/measured signals (o, a forward; the adjoint feedback and e_s backward)
carry additive Gaussian noise at the configured SNR.  Backward-path distortion
(error rescaling, gamma, clipping at the plant's intensity limits) models the
physical backward run of an optical plant and is off unless configured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DimensionError
from .signal import Kernel, Signal, _fft_pays, _partitioned_convolve, adjoint_convolve, convolve


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise f with a binary Jacobian diagonal (1 where locally identity)."""

    kind: str  # "rectifier" | "clip" | "identity"
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rectifier", "clip", "identity"):
            raise ConfigurationError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "clip" and not (self.lo < self.hi):
            raise ConfigurationError(f"clip needs lo < hi, got ({self.lo}, {self.hi})")

    @staticmethod
    def rectifier() -> "Nonlinearity":
        return Nonlinearity("rectifier")

    @staticmethod
    def clip(lo: float, hi: float) -> "Nonlinearity":
        return Nonlinearity("clip", float(lo), float(hi))

    @staticmethod
    def identity() -> "Nonlinearity":
        return Nonlinearity("identity")


def apply_nonlinearity(f: Nonlinearity, x: np.ndarray):
    """Return (f(x), jac_diag).  jac is 0 at the rectifier origin and at clip
    boundaries (fixed subgradient choice, keeps reruns deterministic)."""
    x = np.asarray(x, dtype=np.float64)
    val = _activate(f, x)
    return (x.copy() if val is x else val), _jacobian(f, val)


def _activate(f: Nonlinearity, x: np.ndarray) -> np.ndarray:
    """f(x) alone, by plain ufuncs; the identity returns x itself."""
    if f.kind == "rectifier":
        return x * (x > 0.0).astype(np.float64)
    if f.kind == "clip":
        return np.minimum(np.maximum(x, f.lo), f.hi)
    return x


def _jacobian(f: Nonlinearity, a: np.ndarray) -> np.ndarray:
    """Jacobian diagonal of f read off its output a = f(x).  f is locally the
    identity exactly where a lies strictly inside f's range, so this is 1
    where x > 0 (rectifier) or lo < x < hi (clip), the same as from x."""
    if f.kind == "rectifier":
        return (a > 0.0).astype(np.float64)
    if f.kind == "clip":
        return ((a > f.lo) & (a < f.hi)).astype(np.float64)
    return np.ones_like(a)


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise at snr_db relative to each measured signal's power."""

    snr_db: float
    on_forward: bool = True
    on_backward: bool = False

    def __post_init__(self):
        # noise 10^30 times above or below the signal is no measurement, and
        # far enough out 10^(snr/10) is not even a float
        if not -300.0 <= self.snr_db <= 300.0:
            raise ConfigurationError(f"snr_db must lie in [-300, 300], got {self.snr_db}")

    def std_for(self, samples: np.ndarray) -> float:
        power = float(np.mean(np.square(samples))) if samples.size else 0.0
        return float(np.sqrt(power / 10.0 ** (self.snr_db / 10.0)))


@dataclass(frozen=True)
class BackwardPath:
    """Distortion the error signal suffers on the physical backward run.

    normalize_peak: rescale the injected e_o to this peak amplitude (None = off).
    scale:          extra gain gamma in (0, 1] applied to the injected error.
    clip:           truncate the propagating backward signal at the plant's
                    intensity limits (uses the plant nonlinearity's clip range).
    """

    normalize_peak: float | None = None
    scale: float = 1.0
    clip: bool = False

    def __post_init__(self):
        if not (0.0 < self.scale <= 1.0):
            raise ConfigurationError(f"scale must be in (0, 1], got {self.scale}")
        if self.normalize_peak is not None and not (0.0 < self.normalize_peak < np.inf):
            raise ConfigurationError(
                f"normalize_peak must be positive and finite, got {self.normalize_peak}")


@dataclass(frozen=True)
class PhysicalSystem:
    """Four kernels + pointwise nonlinearity (+ optional noise / backward path)."""

    w_sa: Kernel
    w_aa: Kernel
    w_so: Kernel
    w_ao: Kernel
    f: Nonlinearity
    noise: NoiseModel | None = None
    backward_path: BackwardPath | None = None

    def __post_init__(self):
        dts = {self.w_sa.dt, self.w_aa.dt, self.w_so.dt, self.w_ao.dt}
        if len(dts) != 1:
            raise ConfigurationError(f"kernels disagree on dt: {sorted(dts)}")
        n_in, n_state, n_out = self.w_sa.cols, self.w_sa.rows, self.w_so.rows
        if self.w_aa.rows != n_state or self.w_aa.cols != n_state:
            raise DimensionError("w_aa must be square over the state channels")
        if self.w_so.cols != n_in:
            raise DimensionError("w_so cols must match the input channel count")
        if self.w_ao.rows != n_out or self.w_ao.cols != n_state:
            raise DimensionError("w_ao must map state channels to output channels")
        if np.any(self.w_aa.taps[0] != 0.0):
            raise ConfigurationError(
                "w_aa tap 0 must be exactly zero (strictly causal feedback)")

    @property
    def dt(self) -> float:
        return self.w_sa.dt

    @property
    def n_inputs(self) -> int:
        return self.w_sa.cols

    @property
    def n_state(self) -> int:
        return self.w_sa.rows

    @property
    def n_outputs(self) -> int:
        return self.w_so.rows

    def with_kernel(self, name: str, taps: np.ndarray) -> "PhysicalSystem":
        """Copy of the system with one kernel's taps replaced."""
        if name not in ("w_sa", "w_aa", "w_so", "w_ao"):
            raise ConfigurationError(f"unknown kernel {name!r}")
        return replace(self, **{name: Kernel(np.asarray(taps, dtype=np.float64), self.dt)})


@dataclass(frozen=True)
class ForwardTrace:
    """Recorded (measured) state, output, and Jacobian diagonal trace."""

    a: Signal
    o: Signal
    jac: np.ndarray  # (n_state, n_samples), entries in {0, 1}

    def __post_init__(self):
        if not (self.a.n_samples == self.o.n_samples == self.jac.shape[1]):
            raise DimensionError("trace members disagree on n_samples")


@dataclass(frozen=True)
class BackwardTrace:
    """e_a, e_s from the adjoint run, plus the error signal actually injected
    (after any backward-path rescaling) -- kernel gradients contract with it."""

    e_a: Signal
    e_s: Signal
    e_o: Signal


def _causal_feedback(kernel: Kernel, drive: np.ndarray, gate, transpose: bool = False):
    """Solve a[:, i] = gate(drive[:, i] + dt * sum_k W[k] @ a[:, i-k]) blockwise,
    with W the kernel's taps (transposed per lag when transpose is set).

    W[0] must be zero; blocks of size B = first nonzero lag keep the recursion
    explicit while staying vectorized.  gate maps a pre-activation block and
    its sample range t0:t1 to the emitted block.  A long scalar kernel runs on
    the partitioned FFT engine with the same blocks.  Every other kernel runs
    direct: the state sits after m zero columns (m the largest live lag below
    n), and each block gathers, for all K live lags at once, the B-sample
    windows of past state it needs, one product W_cat @ H per block with
    W_cat[r, c*K + k] = W[lag_k][r, c].
    """
    taps, dt, lags = kernel.taps, kernel.dt, kernel.nonzero_lags()
    if transpose:
        taps = taps.transpose(0, 2, 1)
    if lags.size and lags[0] == 0:
        raise ConfigurationError("feedback taps must be strictly causal (tap 0 zero)")
    n_state, n = drive.shape
    if n == 0:
        return np.zeros((n_state, 0))
    block = int(lags[0]) if lags.size else n
    if n_state == 1 and taps.shape[2] == 1 and lags.size and _fft_pays(taps.shape[0], block, n):
        return _partitioned_convolve(
            dt * taps[:, 0, 0], drive[0], block,
            gate=lambda x_blk, t0, t1: gate(x_blk[None, :], t0, t1)[0])[None, :]
    lags = lags[lags < n]  # taps at lags >= n never reach the output
    block, m = min(block, n), int(lags[-1]) if lags.size else 0
    w_cat = taps[lags].transpose(1, 2, 0).reshape(n_state, n_state * lags.size)
    ap = np.zeros((n_state, m + n))
    windows = sliding_window_view(ap, block, axis=1)  # windows[c, j] = ap[c, j:j+B]
    with np.errstate(over="ignore", invalid="ignore"):  # Signal's checks report divergence
        for t0 in range(0, n, block):
            t1 = min(t0 + block, n)
            h = windows[:, m + t0 - lags, : t1 - t0].reshape(-1, t1 - t0)
            ap[:, m + t0 : m + t1] = gate(drive[:, t0:t1] + dt * (w_cat @ h), t0, t1)
    return ap[:, m:]


def forward(sys: PhysicalSystem, s: Signal, rng: np.random.Generator | None = None) -> ForwardTrace:
    """Simulate the plant on input s; returns the measured trace.

    rng drives measurement noise and is required only when sys.noise applies
    to the forward direction.
    """
    if s.channels != sys.n_inputs:
        raise DimensionError(
            f"input has {s.channels} channels, system expects {sys.n_inputs}")
    if s.dt != sys.dt:
        raise ConfigurationError(f"dt mismatch: signal {s.dt} vs system {sys.dt}")

    f = sys.f
    pre_in = convolve(sys.w_sa, s).samples
    # each block pays for f alone; the Jacobian is read off the state once
    a = Signal._own(_causal_feedback(sys.w_aa, pre_in, lambda x_blk, t0, t1: _activate(f, x_blk)),
                    s.dt)
    del pre_in
    jac = _jacobian(f, a.samples)
    o = output_map(sys, s, a)

    if sys.noise is not None and sys.noise.on_forward:
        if rng is None:
            raise ConfigurationError("forward noise configured but no rng given")
        a = Signal._own(_add_noise(sys.noise, a.samples, rng), s.dt)
        o = _add_noise(sys.noise, o, rng)

    return ForwardTrace(a=a, o=Signal._own(o, s.dt), jac=jac)


def output_map(sys: PhysicalSystem, s: Signal, a: Signal) -> np.ndarray:
    """The clean output o = W_so * s + W_ao * a of input s and state trace a."""
    return convolve(sys.w_so, s).samples + convolve(sys.w_ao, a).samples


def _add_noise(noise: NoiseModel, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """x plus a fresh draw of measurement noise, summed into the draw itself
    (x + n == n + x exactly, so this is x + n without a third trace)."""
    n = rng.normal(0.0, noise.std_for(x), x.shape)
    n += x
    return n


def backward(
    sys: PhysicalSystem,
    trace: ForwardTrace,
    e_o: Signal,
    rng: np.random.Generator | None = None,
) -> BackwardTrace:
    """Adjoint pass: inject e_o time-reversed through the reciprocal medium.

    e_o is the gradient density of the cost w.r.t. o (dC/do[i] = dt * e_o[i]);
    e_a and e_s come back with the same convention.  The Jacobian gate uses the
    recorded trace, not a re-evaluation of f.
    """
    if e_o.channels != sys.n_outputs:
        raise DimensionError(
            f"e_o has {e_o.channels} channels, system outputs {sys.n_outputs}")
    n = trace.jac.shape[1]
    if e_o.n_samples != n:
        raise DimensionError(
            f"e_o length {e_o.n_samples} != forward length {n}")
    if e_o.dt != sys.dt:
        raise ConfigurationError(f"dt mismatch: e_o {e_o.dt} vs system {sys.dt}")

    bp = sys.backward_path or BackwardPath()
    e_o_arr = e_o.samples
    if bp.normalize_peak is not None:
        peak = float(np.max(np.abs(e_o_arr))) if e_o_arr.size else 0.0
        if peak > 0.0:
            e_o_arr = e_o_arr * (bp.normalize_peak / peak)
    if bp.scale != 1.0:
        e_o_arr = e_o_arr * bp.scale
    e_o_used = e_o if e_o_arr is e_o.samples else Signal._own(e_o_arr, e_o.dt)
    # On CPython 3.11+ this frees the unscaled trace when the caller passed e_o
    # as a temporary; on 3.10 the caller's frame keeps it alive for the call.
    del e_o, e_o_arr

    contrib_o = adjoint_convolve(sys.w_ao, e_o_used).samples

    # anti-causal recursion == causal recursion on time-reversed traces with
    # transposed taps; reuse the blocked forward engine
    jac_rev = trace.jac[:, ::-1]
    clip_f = sys.f if (bp.clip and sys.f.kind == "clip") else None

    def gate(x_blk, t0, t1):
        if clip_f is not None:
            x_blk = _activate(clip_f, x_blk)
        return jac_rev[:, t0:t1] * x_blk

    e_a_rev = _causal_feedback(sys.w_aa, contrib_o[:, ::-1], gate, transpose=True)
    del contrib_o
    e_a = Signal._own(e_a_rev[:, ::-1].copy(), sys.dt)
    del e_a_rev
    e_s_arr = (adjoint_convolve(sys.w_sa, e_a).samples
               + adjoint_convolve(sys.w_so, e_o_used).samples)

    if sys.noise is not None and sys.noise.on_backward:
        if rng is None:
            raise ConfigurationError("backward noise configured but no rng given")
        e_a = Signal._own(_add_noise(sys.noise, e_a.samples, rng), sys.dt)
        e_s_arr = _add_noise(sys.noise, e_s_arr, rng)

    return BackwardTrace(e_a=e_a, e_s=Signal._own(e_s_arr, sys.dt), e_o=e_o_used)
