from dataclasses import replace

import numpy as np
import pytest

from echotrain.errors import ConfigurationError, ConstraintError, DimensionError
from echotrain.models import (
    OpticalParams,
    TubeParams,
    _bandpass_fir,
    make_acoustic_system,
    make_optical_system,
    make_tube_kernel,
    random_optical_weights,
)
from echotrain.signal import Signal
from echotrain.system import NoiseModel, forward


# ---------------------------------------------------------------- tube kernel

def test_tube_kernel_single_impulse_at_first_arrival():
    p = TubeParams(reflection_coeff=1e-9, n_echoes=3, passband=None)
    k = make_tube_kernel(p)
    w = k.taps[:, 0, 0]
    assert p.first_arrival == 700  # 6 / 343 * 40000 = 699.7 rounded
    assert int(np.argmax(np.abs(w))) == 700
    assert w[0] == 0.0
    # everything except the later (vanishing) echoes is concentrated there
    assert abs(w[700]) * p.dt == pytest.approx(p.loop_gain, rel=1e-6)


def test_tube_kernel_resonance_comb_spacing():
    p = TubeParams(reflection_coeff=0.7, n_echoes=3, passband=None, kernel_len=4200)
    k = make_tube_kernel(p)
    w = k.taps[:, 0, 0]
    nfft = 1 << 17
    spec = np.abs(np.fft.rfft(w, nfft)) ** 2
    freqs = np.fft.rfftfreq(nfft, d=p.dt)
    # local maxima of the echo-train comb, limited to the analysis band
    band = freqs < 2000.0
    s, f = spec[band], freqs[band]
    peaks = [i for i in range(1, len(s) - 1)
             if s[i] > s[i - 1] and s[i] > s[i + 1] and s[i] > 0.5 * s.max()]
    spacings = np.diff(f[peaks])
    expected = p.speed_of_sound / (2.0 * p.length_m)  # ~28.6 Hz
    assert np.median(spacings) == pytest.approx(expected, rel=0.02)


def test_tube_kernel_tap0_zero_with_filter_and_jitter():
    rng = np.random.default_rng(5)
    k = make_tube_kernel(TubeParams(), rng)
    assert k.taps[0, 0, 0] == 0.0
    assert k.nonzero_lags()[0] >= 1


def test_tube_kernel_length_validation():
    with pytest.raises(ConfigurationError):
        make_tube_kernel(TubeParams(kernel_len=800))  # last echo at 3500
    # more echoes than the kernel holds fail before any echo is drawn
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(ConfigurationError, match="too short"):
        make_tube_kernel(TubeParams(n_echoes=10_000), rng)
    assert rng.bit_generator.state == state


def test_tube_kernel_l1_normalization():
    k = make_tube_kernel(TubeParams())
    l1 = k.dt * np.sum(np.abs(k.taps))
    assert l1 == pytest.approx(0.8, rel=1e-9)


# the defaults, the 40 kHz config and the desk configs
BUNDLED_TUBES = [TubeParams(), TubeParams(passband=(80.0, 8000.0)),
                 TubeParams(sample_rate=8000.0, kernel_len=900)]
FIR_CASES = [(p.filter_taps, p.sample_rate, *p.passband) for p in BUNDLED_TUBES] + [
    (1, 2000.0, 100.0, 900.0),
    (2, 2000.0, 100.0, 900.0),
    (64, 44100.0, 300.0, 3400.0),
    (65, 44100.0, 300.0, 3400.0),
    (11, 2000.0, 100.0, 900.0),  # small_tube below
    (101, 40000.0, 1e-3, 15.0),  # band next to 0 Hz
    (100, 40000.0, 19990.0, 19999.999),  # band next to Nyquist
    (257, 8000.0, 1e-6, 3999.9999),  # both edges at the rims
]


@pytest.mark.parametrize("numtaps, fs, lo, hi", FIR_CASES)
def test_bandpass_fir_is_firwin_bit_for_bit(numtaps, fs, lo, hi):
    from scipy.signal import firwin  # test-only: the package does not import scipy.signal

    nyq = fs / 2.0
    fir = _bandpass_fir(numtaps, lo / nyq, hi / nyq)
    assert fir.tobytes() == firwin(numtaps, [lo, hi], pass_zero=False, fs=fs).tobytes()
    if numtaps == 1:
        # firwin's window is ones(1) and the Hamming formula gives 0.08, but the
        # band-centre scale makes the lone tap exactly 1 either way
        assert fir.tolist() == [1.0]


# ------------------------------------------------------------- acoustic plant

def small_tube(fs=2000.0, kernel_len=40):
    return TubeParams(length_m=0.5, speed_of_sound=343.0, reflection_coeff=0.5,
                      n_echoes=3, passband=(100.0, 900.0), kernel_len=kernel_len,
                      sample_rate=fs, filter_taps=11)


def test_acoustic_system_matches_direct_scalar_recursion():
    rng = np.random.default_rng(0)
    k = make_tube_kernel(small_tube())
    sys, _ = make_acoustic_system(k)
    n = 200
    s = Signal(rng.standard_normal((1, n)), k.dt)
    tr = forward(sys, s)

    w = k.taps[:, 0, 0]
    a = np.zeros(n)
    for i in range(n):
        pre = 0.0
        for lag in range(len(w)):
            j = i - lag
            if j >= 0:
                pre += w[lag] * (s.samples[0, j] + a[j])
        a[i] = max(0.0, k.dt * pre)
    err = np.max(np.abs(tr.a.samples[0] - a))
    assert err < 1e-10
    np.testing.assert_allclose(tr.o.samples, tr.a.samples, atol=0)  # o == a


def test_acoustic_zero_kernel_silent():
    from echotrain.signal import Kernel

    k = Kernel(np.zeros((5, 1, 1)), 1.0 / 40000.0)
    sys, _ = make_acoustic_system(k)
    s = Signal(np.random.default_rng(1).standard_normal((1, 50)), k.dt)
    tr = forward(sys, s)
    assert np.all(tr.o.samples == 0.0)


def test_acoustic_default_period_is_40_per_second():
    k = make_tube_kernel(TubeParams())
    _, masks = make_acoustic_system(k)
    assert masks.period == 1000
    assert masks.period * k.dt == pytest.approx(1.0 / 40.0)
    k8 = make_tube_kernel(small_tube(fs=8000.0, kernel_len=80))
    _, masks8 = make_acoustic_system(k8)
    assert masks8.period == 200


def test_acoustic_rejects_nonscalar_kernel():
    from echotrain.signal import Kernel

    with pytest.raises(DimensionError):
        make_acoustic_system(Kernel(np.zeros((3, 2, 2)), 0.1))


# -------------------------------------------------------------- optical plant

def test_optical_zero_weights_passthrough():
    p = OpticalParams(n_nodes=3, delay_samples=4)
    sys = make_optical_system(p, W=np.zeros((3, 3)), noise=False)
    rng = np.random.default_rng(2)
    s = Signal(0.9 * rng.uniform(-1, 1, (3, 30)), p.dt)
    tr = forward(sys, s)
    np.testing.assert_allclose(tr.a.samples, s.samples, atol=1e-14)
    np.testing.assert_allclose(tr.o.samples, s.samples, atol=1e-14)


def test_optical_matches_discrete_recurrence():
    p = OpticalParams(n_nodes=4, delay_samples=5)
    rng = np.random.default_rng(3)
    W = random_optical_weights(p, rng, scale=0.8)
    sys = make_optical_system(p, W=W, noise=False)
    n = 60
    s = Signal(rng.uniform(-1.2, 1.2, (4, n)), p.dt)
    tr = forward(sys, s)
    a = np.zeros((4, n))
    for i in range(n):
        pre = s.samples[:, i].copy()
        if i - 5 >= 0:
            pre += W @ a[:, i - 5]
        a[:, i] = np.clip(pre, -1.0, 1.0)
    np.testing.assert_allclose(tr.a.samples, a, atol=1e-12)


def test_optical_update_straddles_mask_boundary_by_nine():
    # D = 109 with period 100: a perturbation in instance i lands 9 samples
    # into instance i+1
    p = OpticalParams(n_nodes=2, delay_samples=109)
    rng = np.random.default_rng(4)
    W = random_optical_weights(p, rng, scale=0.9)
    sys = make_optical_system(p, W=W, noise=False)
    P, n = 100, 400
    base = Signal(0.1 * rng.standard_normal((2, n)), p.dt)
    tr0 = forward(sys, base)
    u = 50  # segment clock position inside instance 1
    j = 1 * P + u
    pert = base.samples.copy()
    pert[0, j] += 0.05
    tr1 = forward(sys, Signal(pert, p.dt))
    diff = np.any(tr1.a.samples != tr0.a.samples, axis=0)
    changed = np.flatnonzero(diff)
    # immediate feedthrough at j, first feedback response exactly at j + 109
    assert changed[0] == j
    later = changed[changed > j]
    assert later[0] == j + 109
    assert (j + 109) // P == 2 and (j + 109) % P == u + 9


def test_optical_gradients_match_fd_with_distortion_off():
    from echotrain.gradients import pipeline_cost, pipeline_gradients, relative_error
    from echotrain.masking import MaskSet, decode_outputs, encode_inputs
    from oracles import fd_gradient

    p = OpticalParams(n_nodes=3, delay_samples=4, backward_clip=False,
                      backward_error_scale=1.0, backward_normalize_peak=None)
    rng = np.random.default_rng(6)
    W = random_optical_weights(p, rng, scale=0.6)
    sys = make_optical_system(p, W=W, noise=False)
    # small-signal masks keep the clip inactive (locally linear)
    masks = MaskSet(
        m=0.05 * rng.standard_normal((3, 2, 6)),
        u=rng.standard_normal((2, 3, 6)),
        s_b=np.zeros((3, 6)),
        y_b=np.zeros(2),
        period=6,
        dt=p.dt,
    )
    xs = rng.standard_normal((5, 2))
    targets = 0.1 * rng.standard_normal((5, 2))
    bundle = pipeline_gradients(sys, masks, xs, targets)

    def loss_m(flat):
        pm = replace(masks, m=flat.reshape(masks.m.shape))
        return pipeline_cost(decode_outputs(forward(sys, encode_inputs(xs, pm)).o, pm), targets)

    fd = fd_gradient(loss_m, masks.m.ravel(), eps=1e-5)
    assert relative_error(bundle["m"], fd) < 1e-5

    # trainable mixing matrix: the w_aa tap at lag D
    def loss_w(flat):
        taps = sys.w_aa.taps.copy()
        taps[4] = flat.reshape(3, 3)
        o = forward(sys.with_kernel("w_aa", taps), encode_inputs(xs, masks)).o
        return pipeline_cost(decode_outputs(o, masks), targets)

    fd_w = fd_gradient(loss_w, sys.w_aa.taps[4].ravel(), eps=1e-5)
    assert relative_error(bundle["w_aa"][4], fd_w) < 1e-5


def test_optical_weight_bound_enforced():
    p = OpticalParams(n_nodes=2, delay_samples=3)
    W = np.array([[0.0, 2.5], [0.0, 0.0]])
    with pytest.raises(ConstraintError):
        make_optical_system(p, W=W, noise=False)


# -------------------------------------------------------------------- noise

def optical_traces(s, noise_seed, snr_db=18.0):
    """Clean and measured forward traces of one optical plant driven by s."""
    p = OpticalParams(n_nodes=s.shape[0], delay_samples=7, snr_db=snr_db)
    W = random_optical_weights(p, np.random.default_rng(1))
    x = Signal(s, p.dt)
    clean = forward(make_optical_system(p, W=W, noise=False), x)
    noisy = forward(make_optical_system(p, W=W), x, np.random.default_rng(noise_seed))
    return clean, noisy


@pytest.mark.parametrize("snr_db", [np.inf, np.nan, 300.5, -1e300])
def test_noise_rejects_an_unusable_snr(snr_db):
    with pytest.raises(ConfigurationError, match="snr_db"):
        NoiseModel(snr_db)
    with pytest.raises(ConfigurationError, match="snr_db"):
        OpticalParams(snr_db=snr_db)


def test_noise_zero_power_signal_unchanged():
    clean, noisy = optical_traces(np.zeros((2, 50)), noise_seed=10)
    for got, want in ((noisy.a, clean.a), (noisy.o, clean.o)):
        np.testing.assert_array_equal(want.samples, 0.0)
        np.testing.assert_array_equal(got.samples, want.samples)


def test_noise_empirical_snr_within_half_db():
    s = np.random.default_rng(11).standard_normal((4, 250_000))
    clean, noisy = optical_traces(s, noise_seed=12)
    for got, want in ((noisy.a, clean.a), (noisy.o, clean.o)):
        noise = got.samples - want.samples
        snr = 10.0 * np.log10(np.mean(want.samples ** 2) / np.mean(noise ** 2))
        assert abs(snr - 18.0) < 0.5


def test_noise_seed_reproducible():
    s = np.random.default_rng(13).standard_normal((2, 100))
    (_, n1), (_, n2) = optical_traces(s, 99, 10.0), optical_traces(s, 99, 10.0)
    np.testing.assert_array_equal(n1.a.samples, n2.a.samples)
    np.testing.assert_array_equal(n1.o.samples, n2.o.samples)
