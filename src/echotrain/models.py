"""Concrete plants: a simulated speaker-tube-microphone loop and a delay-line
optical network with intensity-split mixing and measurement noise.

A real speaker-tube-microphone response is particular to the hardware; the
synthetic model here is an echo train (round-trip delays, geometrically
decaying) pushed through a band-pass FIR, normalized so the feedback loop is
strictly stable.  Any strictly causal scalar kernel exercises the same
training machinery -- the backward pass never needs to know the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConstraintError, DimensionError
from .masking import MaskSet
from .signal import Kernel
from .system import BackwardPath, NoiseModel, Nonlinearity, PhysicalSystem


def _bound_taps(count: int, *fields: str) -> None:
    """Refuse a plant of over 1 GiB of dense float64 taps before any is allocated."""
    if 8 * count > 1 << 30:
        raise ConfigurationError(f"{' and '.join(fields)} ask for {8 * count / 2**30:.3g} GiB "
                                 "of dense taps, over the 1 GiB bound", *fields)


@dataclass(frozen=True)
class TubeParams:
    """Speaker-tube-microphone model parameters (defaults: 6 m tube, 40 kHz)."""

    length_m: float = 6.0
    speed_of_sound: float = 343.0
    reflection_coeff: float = 0.6
    n_echoes: int = 3
    passband: tuple | None = (80.0, 3200.0)  # Hz; None = raw echo train
    kernel_len: int = 4200
    sample_rate: float = 40000.0
    loop_gain: float = 0.8  # L1 norm target of dt-weighted taps; < 1 keeps the loop BIBO-stable
    filter_taps: int = 101

    def __post_init__(self):
        if not all(0.0 < v < np.inf for v in (self.length_m, self.speed_of_sound,
                                              self.sample_rate)):
            raise ConfigurationError("tube geometry values must be positive and finite",
                                     "length_m", "speed_of_sound", "sample_rate")
        if not (0.0 < self.reflection_coeff < 1.0):
            raise ConfigurationError(
                f"reflection_coeff must lie in (0, 1), got {self.reflection_coeff}",
                "reflection_coeff")
        if self.n_echoes < 1:
            raise ConfigurationError("need at least one echo", "n_echoes")
        if not (0.0 < self.loop_gain < 1.0):
            raise ConfigurationError("loop_gain must lie in (0, 1)", "loop_gain")
        if self.filter_taps < 1:
            raise ConfigurationError(f"filter_taps must be >= 1, got {self.filter_taps}",
                                     "filter_taps")
        _bound_taps(self.kernel_len + self.filter_taps, "kernel_len", "filter_taps")
        arrival = self.length_m / self.speed_of_sound * self.sample_rate
        if not 0.5 <= arrival < np.inf:  # else every echo lands on lag 1, or none fits
            raise ConfigurationError(
                f"the first echo must arrive 0.5 or more (finite) samples in, got {arrival:.3g}",
                "length_m", "speed_of_sound", "sample_rate")

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def first_arrival(self) -> int:
        """One-way travel time in samples."""
        return int(np.floor(self.length_m / self.speed_of_sound * self.sample_rate + 0.5))


def _bandpass_fir(numtaps: int, left: float, right: float) -> np.ndarray:
    """Hamming-windowed band-pass FIR, band edges in units of Nyquist.

    The operations and their order are scipy.signal.firwin's for
    (numtaps, [left, right], pass_zero=False), so the taps are bit for bit
    firwin's; restating them here keeps scipy out of the package.
    At numtaps 1 the Hamming formula gives 0.08 where firwin's window is 1,
    but the band-centre scale turns the lone tap into 1.0 either way.
    """
    m = np.arange(numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    h = right * np.sinc(right * m) - left * np.sinc(left * m)
    h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, numtaps))
    return h / np.sum(h * np.cos(np.pi * m * (0.5 * (left + right))))


def make_tube_kernel(p: TubeParams, rng: np.random.Generator | None = None,
                     dt: float | None = None) -> Kernel:
    """Synthesize the scalar tube impulse response (1 x 1 kernel).

    Echoes arrive at d0*(2j+1) samples with amplitude rho^j (each extra round
    trip adds 2*d0 and one reflection).  rng, when given, jitters echo
    amplitudes (+-10%) and delays (+-2 samples) to avoid an artificially
    regular response.  Tap 0 is forced to zero.

    dt defaults to the physical sample period 1/sample_rate; pass dt=1.0 to
    work in normalized per-sample time units (mask values and learning rates
    are plain samplewise quantities under that convention).  The kernel's
    transfer gain is dt-invariant (L1 normalization target loop_gain).
    """
    if dt is None:
        dt = p.dt
    d0 = p.first_arrival
    pad = (p.filter_taps - 1) // 2 if p.passband is not None else 0
    # the jitter moves an echo at most 2 samples earlier, so a kernel too short
    # for the last echo is known before the loop, however many echoes are asked
    last = d0 * (2 * p.n_echoes - 1) - (2 if rng is not None else 0)
    delays, amps = [], []
    for j in range(p.n_echoes if last + pad < p.kernel_len else 0):
        delay = d0 * (2 * j + 1)
        amp = p.reflection_coeff ** j
        if rng is not None:
            delay += int(rng.integers(-2, 3))
            amp *= float(1.0 + 0.1 * rng.uniform(-1.0, 1.0))
        delays.append(max(1, delay))
        amps.append(amp)

    last = max(delays, default=last)
    if last + pad >= p.kernel_len:
        raise ConfigurationError(
            f"kernel_len {p.kernel_len} too short for the last of {p.n_echoes} echoes, at "
            f"{last} samples (+{pad} filter tail)", "n_echoes", "kernel_len", "filter_taps")

    train = np.zeros(p.kernel_len)
    for d, a in zip(delays, amps):
        train[d] += a / dt  # unit-weight discrete impulse scaled by the echo gain

    if p.passband is not None:
        lo, hi = p.passband
        nyq = p.sample_rate / 2.0
        if not (0.0 < lo < hi < nyq):
            raise ConfigurationError(f"passband {p.passband} invalid for fs {p.sample_rate}",
                                     "passband", "sample_rate")
        fir = _bandpass_fir(p.filter_taps, lo / nyq, hi / nyq)
        # zero-phase placement: each impulse becomes a band-limited wavelet
        # centered on its echo; the front edge moves up by (taps-1)/2 samples
        full = np.convolve(train, fir)
        taps = full[pad : pad + p.kernel_len]
    else:
        taps = train

    taps[0] = 0.0
    l1 = dt * float(np.sum(np.abs(taps)))
    if l1 > 0.0:
        taps = taps * (p.loop_gain / l1)
    return Kernel(taps[:, None, None], dt)


def make_acoustic_system(kernel: Kernel, period: int | None = None):
    """Acoustic plant a = f(W * (s + a)), o = a, with a mask-set template.

    Maps onto the general plant as W_sa = W_aa = W, W_ao = delta, W_so = 0.
    With W in both places, forward runs one recursion on s + a and backward
    reads W^T e_a off the adjoint recursion's feedback sums: no open product.
    The default masking period keeps 40 instances per second (1000 samples at
    40 kHz).  Returns (system, zeroed MaskSet of matching shape).
    """
    if kernel.rows != 1 or kernel.cols != 1:
        raise DimensionError("the acoustic plant is scalar; kernel must be 1 x 1")
    if period is None:
        period = int(np.floor(1.0 / (40.0 * kernel.dt) + 0.5))
        if period < 1:
            raise ConfigurationError(
                "cannot derive the 40-instances-per-second mask period from "
                f"dt={kernel.dt}; pass period explicitly for normalized time units")
    system = PhysicalSystem(
        w_sa=kernel,
        w_aa=kernel,
        w_so=Kernel.zero(1, 1, kernel.dt),
        w_ao=Kernel.delta(np.eye(1), kernel.dt),
        f=Nonlinearity("rectifier"),
    )
    return system, MaskSet.zeros(1, 1, 1, 1, period, kernel.dt)


@dataclass(frozen=True)
class OpticalParams:
    """Delay-network of optical neurons: a(t) = clip(W a(t-D) + s(t))."""

    n_nodes: int = 20
    delay_samples: int = 109
    snr_db: float = 18.0
    weight_bound: float = 2.0
    backward_clip: bool = True
    backward_error_scale: float = 0.5
    backward_normalize_peak: float = 0.5  # fraction of the clip range
    dt: float = 1.0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {self.n_nodes}", "n_nodes")
        if not (0.0 <= self.weight_bound < np.inf):
            raise ConfigurationError(
                f"weight_bound must be non-negative and finite, got {self.weight_bound}",
                "weight_bound")
        if self.delay_samples < 1:
            raise ConfigurationError("delay must be at least one sample", "delay_samples")
        # W at lags 0..delay, and the identity w_sa and w_ao beside the zero w_so
        _bound_taps(self.n_nodes ** 2 * (self.delay_samples + 4), "n_nodes", "delay_samples")
        NoiseModel(self.snr_db)  # checks snr_db even when the noise is switched off
        if not (0.0 < self.backward_error_scale <= 1.0):
            raise ConfigurationError("backward_error_scale must lie in (0, 1]",
                                     "backward_error_scale")


def random_optical_weights(p: OpticalParams, rng: np.random.Generator,
                           scale: float = 0.5) -> np.ndarray:
    """Random mixing matrix with spectral-radius-ish scaling, inside the bound."""
    if not np.isfinite(scale):
        raise ConfigurationError(f"weight scale must be finite, got {scale}", "scale")
    W = rng.standard_normal((p.n_nodes, p.n_nodes)) * (scale / np.sqrt(p.n_nodes))
    return np.clip(W, -p.weight_bound, p.weight_bound)


def make_optical_system(p: OpticalParams, W: np.ndarray | None = None,
                        rng: np.random.Generator | None = None,
                        noise: bool = True) -> PhysicalSystem:
    """Build the optical plant; W defaults to a random draw from rng."""
    if W is None:
        if rng is None:
            raise ConfigurationError("need either W or an rng to draw it")
        W = random_optical_weights(p, rng)
    W = np.asarray(W, dtype=np.float64)
    if W.shape != (p.n_nodes, p.n_nodes):
        raise DimensionError(f"W must be {p.n_nodes} x {p.n_nodes}, got {W.shape}")
    if np.max(np.abs(W)) > p.weight_bound:
        raise ConstraintError(
            f"|W| entries must stay within {p.weight_bound} (intensity split range)")
    eye = np.eye(p.n_nodes)
    return PhysicalSystem(
        w_sa=Kernel.delta(eye, p.dt),
        w_aa=Kernel.delta(W, p.dt, lag=p.delay_samples),
        w_so=Kernel.zero(p.n_nodes, p.n_nodes, p.dt),
        w_ao=Kernel.delta(eye, p.dt),
        f=Nonlinearity("clip", -1.0, 1.0),
        noise=NoiseModel(p.snr_db, on_forward=True, on_backward=True) if noise else None,
        backward_path=BackwardPath(
            normalize_peak=p.backward_normalize_peak,
            scale=p.backward_error_scale,
            clip=p.backward_clip,
        ),
    )
