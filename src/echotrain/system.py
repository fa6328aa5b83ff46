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
from .signal import Kernel, Signal, adjoint_convolve, convolve

KERNELS = ("w_sa", "w_aa", "w_so", "w_ao")  # PhysicalSystem's kernel fields, in order
NONLINEARITIES = ("rectifier", "clip", "identity")  # the kinds of f


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise f with a binary Jacobian diagonal (1 where locally identity)."""

    kind: str  # one of NONLINEARITIES
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in NONLINEARITIES:
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
            raise ConfigurationError(f"snr_db must lie in [-300, 300], got {self.snr_db}", "snr_db")

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
        if (self.w_aa.taps[0] != 0.0).any():
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
        if name not in KERNELS:
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


_FFT_MIN_FEEDBACK_MACS = 45_000  # B * live lags per block; README "Partitioned FFT engine"


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n >= 1, the real transform lengths
    pocketfft runs fastest (scipy.fft.next_fast_len(n, real=True))."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _partitioned_convolve(w: np.ndarray, n: int, block: int, gate) -> np.ndarray:
    """The scalar recursion y[t0:t1] = gate((w * y)[t0:t1], t0, t1), one block
    at a time, by uniformly partitioned overlap-save (Wefers 2015), in a lone
    recursion's layout: gate maps (1, 1, B) blocks and y is (1, 1, n).

    The taps w are cut into partitions of `block` taps; each live (not
    all-zero) partition is transformed once.  w must vanish below lag `block`
    (the caller's block is the first live lag), so each block's feedback is
    complete before the block is emitted.  y sits after keep = N - block zeros;
    each block's window (the keep samples before it, then the block) is read
    off y, transformed once and multiplied into a frequency-domain accumulator
    for each later block it reaches.  A block's feedback sum is one inverse
    transform of its accumulator, read at [keep, N): free of circular wrap for
    N = _fast_len(block + span) (numpy.fft's transforms), with the live taps at
    offsets below `span` within their partitions; _fast_len(2 * block) at most.
    """
    nz = np.flatnonzero(w[:n])  # taps at lags >= n never reach the output
    part, offset = np.divmod(nz, block)
    parts = np.zeros((1 + part.max(initial=0), block))
    parts[part, offset] = w[nz]
    nfft = _fast_len(block + 1 + int(offset.max(initial=0)))  # block + span
    keep = nfft - block
    live = np.flatnonzero((parts != 0.0).any(axis=1))
    reach = list(zip(live.tolist(), np.fft.rfft(parts[live], nfft)))  # (index, spectrum)
    acc = np.zeros((len(parts), nfft // 2 + 1), dtype=complex)  # block j's slot: j % len(acc)
    y, back = np.zeros((1, 1, keep + n)), np.empty(nfft)
    spec = np.empty(nfft // 2 + 1, dtype=complex)
    for j, t0 in enumerate(range(0, n, block)):
        t1 = min(t0 + block, n)
        np.fft.irfft(acc[j % len(acc)], nfft, out=back)
        y[:, :, keep + t0 : keep + t1] = gate(back[None, None, keep : keep + t1 - t0], t0, t1)
        if t1 == n:  # no later block to reach
            break
        acc[j % len(acc)] = 0.0
        np.fft.rfft(y[0, 0, t0 : t0 + nfft], nfft, out=spec)
        for p, part_spec in reach:
            acc[(j + p) % len(acc)] += spec * part_spec
    return y[:, :, keep:]


def _causal_feedback(taps: np.ndarray, dt: float, batch: int, n: int, gate) -> np.ndarray:
    """Solve y[p, :, i] = gate(dt * sum_k W_p[k] @ y[p, :, i-k]) blockwise for
    P = batch recursions of n samples: taps (P, L, c, c) hold the W_p and may
    have P = 1.  gate maps a (P, c, B) block of feedback sums and its samples
    t0:t1 to the emitted block, which is fed back and returned in y (P, c, n);
    a caller adds its drive, and keeps any other trace, inside its gate.

    W[0] must be zero; blocks of size B = the first lag live in any item keep
    the recursion explicit.  A lone scalar recursion with B * (live lags) >=
    _FFT_MIN_FEEDBACK_MACS runs on the partitioned FFT engine
    (_partitioned_convolve, the only FFT path in the package).  All others run
    direct: y sits after m zero columns (m the largest live lag below n); a
    block gathers the B-sample windows of its past of all K live lags into H,
    one product W_cat @ H with W_cat[p, r, c*K + k] = W_p[lag_k][r, c].  Each
    item's W_cat and H are laid out as a lone recursion's (hence the batch
    index below), so numpy makes the same BLAS call: items that share their
    live lags are bit for bit their own recursions.
    """
    lags = np.flatnonzero((taps != 0.0).any(axis=(0, 2, 3)))
    if lags.size and lags[0] == 0:
        raise ConfigurationError("feedback taps must be strictly causal (tap 0 zero)")
    n_state = taps.shape[2]
    if n == 0:
        return np.zeros((batch, n_state, 0))
    lags = lags[lags < n]  # taps at lags >= n never reach the output
    block, m = (int(lags[0]), int(lags[-1])) if lags.size else (n, 0)
    if batch == n_state == 1 and block * lags.size >= _FFT_MIN_FEEDBACK_MACS:
        return _partitioned_convolve(dt * taps[0, :, 0, 0], n, block, gate)
    w_cat = taps[np.arange(len(taps))[:, None], lags].transpose(0, 2, 3, 1)
    w_cat = w_cat.reshape(len(taps), n_state, -1)
    y = np.zeros((batch, n_state, m + n))
    windows = sliding_window_view(y, block, axis=2)  # windows[p, c, j] = y[p, c, j:j+B]
    with np.errstate(over="ignore", invalid="ignore"):  # Signal's checks report divergence
        for t0 in range(0, n, block):
            t1 = min(t0 + block, n)
            h = np.ascontiguousarray(windows[:, :, m + t0 - lags, : t1 - t0])
            y[:, :, m + t0 : m + t1] = gate(dt * (w_cat @ h.reshape(batch, -1, t1 - t0)), t0, t1)
    return y[:, :, m:]


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

    # the gates apply f alone; the Jacobian is read off the state once
    f, x, n = sys.f, s.samples[None], s.n_samples
    if _one_tube(sys):  # W_sa * s + W_aa * a = W * (s + a): one recursion on s + a
        a = np.empty(x.shape)

        def gate(fb, t0, t1):
            a[:, :, t0:t1] = _activate(f, fb)
            return a[:, :, t0:t1] + x[:, :, t0:t1]

        _causal_feedback(sys.w_aa.taps[None], s.dt, 1, n, gate)
    else:
        x = convolve(sys.w_sa, s).samples[None]
        a = _causal_feedback(sys.w_aa.taps[None], s.dt, 1, n,
                             lambda fb, t0, t1: _activate(f, x[:, :, t0:t1] + fb))
        del x
    a = Signal._own(a[0], s.dt)
    jac = _jacobian(f, a.samples)
    o = convolve(sys.w_so, s).samples + convolve(sys.w_ao, a).samples

    if sys.noise is not None and sys.noise.on_forward:
        if rng is None:
            raise ConfigurationError("forward noise configured but no rng given")
        a = Signal._own(_add_noise(sys.noise, a.samples, rng), s.dt)
        o = _add_noise(sys.noise, o, rng)

    return ForwardTrace(a=a, o=Signal._own(o, s.dt), jac=jac)


def _one_tube(sys: PhysicalSystem) -> bool:
    """Whether W_sa and W_aa are one kernel, as the acoustic loop's tube is."""
    return sys.w_sa is sys.w_aa or np.array_equal(sys.w_sa.taps, sys.w_aa.taps)


def _add_noise(noise: NoiseModel, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """x plus a fresh draw of measurement noise, scaled and summed into the draw
    itself (std * z as rng.normal(0, std) draws it, and x + n == n + x)."""
    n = rng.standard_normal(x.shape)
    n *= noise.std_for(x)
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

    # anti-causal recursion == causal recursion on time-reversed traces with
    # transposed taps; reuse the blocked forward engine
    drive = adjoint_convolve(sys.w_ao, e_o_used).samples[None, :, ::-1]
    jac_rev = trace.jac[:, ::-1]
    clip_f = sys.f if (bp.clip and sys.f.kind == "clip") else None
    sums = np.empty((1, sys.n_state, n)) if _one_tube(sys) else None

    def gate(fb, t0, t1):
        if sums is not None:  # W_sa^T e_a, as W_sa is W_aa
            sums[:, :, t0:t1] = fb
        x_blk = drive[:, :, t0:t1] + fb
        if clip_f is not None:
            x_blk = _activate(clip_f, x_blk)
        return jac_rev[:, t0:t1] * x_blk

    e_a_rev = _causal_feedback(sys.w_aa.taps[None].transpose(0, 1, 3, 2), sys.dt, 1, n, gate)[0]
    del drive
    e_a = Signal._own(e_a_rev[:, ::-1].copy(), sys.dt)
    del e_a_rev
    e_sa = adjoint_convolve(sys.w_sa, e_a).samples if sums is None else sums[0, :, ::-1]
    e_s_arr = e_sa + adjoint_convolve(sys.w_so, e_o_used).samples
    del e_sa, sums

    if sys.noise is not None and sys.noise.on_backward:
        if rng is None:
            raise ConfigurationError("backward noise configured but no rng given")
        e_a = Signal._own(_add_noise(sys.noise, e_a.samples, rng), sys.dt)
        e_s_arr = _add_noise(sys.noise, e_s_arr, rng)

    return BackwardTrace(e_a=e_a, e_s=Signal._own(e_s_arr, sys.dt), e_o=e_o_used)
