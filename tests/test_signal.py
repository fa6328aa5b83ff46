from dataclasses import replace

import numpy as np
import pytest

from echotrain import signal as signal_mod
from echotrain.errors import ConfigurationError, DimensionError, LengthError, NumericError
from echotrain.signal import (
    Kernel,
    _fft_pays,
    _partitioned_convolve,
    Signal,
    adjoint_convolve,
    concat_segments,
    convolve,
    inner,
    signal_from_csv,
    signal_to_csv,
    split_segments,
    time_reverse,
)

from oracles import adjoint_direct, conv_direct


def rand_signal(rng, channels, n, dt=0.1):
    return Signal(rng.standard_normal((channels, n)), dt)


def rand_kernel(rng, rows, cols, L, dt=0.1):
    return Kernel(rng.standard_normal((L, rows, cols)), dt)


def test_identity_kernel_passthrough():
    dt = 0.25
    rng = np.random.default_rng(0)
    x = rand_signal(rng, 3, 17, dt)
    k = Kernel.delta(np.eye(3), dt)
    y = convolve(k, x)
    np.testing.assert_allclose(y.samples, x.samples, rtol=0, atol=1e-14)


def test_pure_delay_kernel():
    dt = 0.5
    rng = np.random.default_rng(1)
    x = rand_signal(rng, 2, 12, dt)
    d = 4
    k = Kernel.delta(np.eye(2), dt, lag=d)
    y = convolve(k, x)
    np.testing.assert_allclose(y.samples[:, d:], x.samples[:, :-d], atol=1e-14)
    assert np.all(y.samples[:, :d] == 0.0)


def test_convolve_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    k = rand_kernel(rng, 2, 3, 5, dt=0.2)
    x = rand_signal(rng, 3, 20, dt=0.2)
    y = convolve(k, x)
    expect = conv_direct(k.taps, 0.2, x.samples)
    np.testing.assert_allclose(y.samples, expect, rtol=1e-13, atol=1e-14)
    assert y.channels == 2 and y.n_samples == 20


def test_convolve_scalar_fast_path_matches_oracle():
    rng = np.random.default_rng(3)
    k = rand_kernel(rng, 1, 1, 9, dt=0.01)
    x = rand_signal(rng, 1, 40, dt=0.01)
    y = convolve(k, x)
    expect = conv_direct(k.taps, 0.01, x.samples)
    np.testing.assert_allclose(y.samples, expect, rtol=1e-12, atol=1e-15)


def test_convolve_shape_and_dt_errors():
    rng = np.random.default_rng(4)
    k = rand_kernel(rng, 2, 3, 4, dt=0.1)
    with pytest.raises(DimensionError):
        convolve(k, rand_signal(rng, 2, 10, dt=0.1))
    with pytest.raises(ConfigurationError):
        convolve(k, rand_signal(rng, 3, 10, dt=0.2))


def test_adjoint_identity_and_delay():
    dt = 0.3
    rng = np.random.default_rng(5)
    e = rand_signal(rng, 2, 15, dt)
    ident = Kernel.delta(np.eye(2), dt)
    np.testing.assert_allclose(adjoint_convolve(ident, e).samples, e.samples, atol=1e-14)
    d = 3
    k = Kernel.delta(np.eye(2), dt, lag=d)
    r = adjoint_convolve(k, e)
    np.testing.assert_allclose(r.samples[:, :-d], e.samples[:, d:], atol=1e-14)
    assert np.all(r.samples[:, -d:] == 0.0)


def test_adjoint_matches_double_loop_oracle():
    rng = np.random.default_rng(6)
    k = rand_kernel(rng, 4, 2, 6, dt=0.15)
    e = rand_signal(rng, 4, 25, dt=0.15)
    r = adjoint_convolve(k, e)
    expect = adjoint_direct(k.taps, 0.15, e.samples)
    np.testing.assert_allclose(r.samples, expect, rtol=1e-13, atol=1e-14)
    assert r.channels == 2


@pytest.mark.parametrize("seed", range(8))
def test_adjoint_inner_product_identity(seed):
    rng = np.random.default_rng(100 + seed)
    rows, cols = rng.integers(1, 5, size=2)
    L = int(rng.integers(1, 8))
    n = int(rng.integers(L, 40))
    dt = float(rng.uniform(0.01, 2.0))
    k = rand_kernel(rng, rows, cols, L, dt)
    x = rand_signal(rng, cols, n, dt)
    y = rand_signal(rng, rows, n, dt)
    lhs = inner(convolve(k, x), y)
    rhs = inner(x, adjoint_convolve(k, y))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)


def test_convolve_linearity():
    rng = np.random.default_rng(7)
    k = rand_kernel(rng, 3, 2, 4)
    x = rand_signal(rng, 2, 18)
    z = rand_signal(rng, 2, 18)
    a, b = 1.7, -0.4
    combo = Signal(a * x.samples + b * z.samples, x.dt)
    lhs = convolve(k, combo).samples
    rhs = a * convolve(k, x).samples + b * convolve(k, z).samples
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_causality_by_perturbation():
    rng = np.random.default_rng(8)
    k = rand_kernel(rng, 2, 2, 5)
    x = rand_signal(rng, 2, 20)
    y0 = convolve(k, x).samples
    j = 11
    pert = x.samples.copy()
    pert[:, j] += 1.0
    y1 = convolve(k, Signal(pert, x.dt)).samples
    assert np.all(y1[:, :j] == y0[:, :j])
    assert np.any(y1[:, j:] != y0[:, j:])


def test_adjoint_equals_reversed_convolution_of_transposed_taps():
    rng = np.random.default_rng(9)
    k = rand_kernel(rng, 3, 2, 6, dt=0.7)
    e = rand_signal(rng, 3, 23, dt=0.7)
    direct = adjoint_convolve(k, e)
    kt = Kernel(k.taps.transpose(0, 2, 1), k.dt)
    via_reverse = time_reverse(convolve(kt, time_reverse(e)))
    err = np.linalg.norm(direct.samples - via_reverse.samples)
    assert err <= 1e-12 * max(np.linalg.norm(direct.samples), 1.0)


def test_time_reverse_examples():
    s = Signal([[1.0, 2.0, 3.0]], dt=1.0)
    np.testing.assert_array_equal(time_reverse(s).samples, [[3.0, 2.0, 1.0]])
    empty = Signal.zeros(2, 0, 1.0)
    assert time_reverse(empty).n_samples == 0
    rng = np.random.default_rng(10)
    x = rand_signal(rng, 3, 13)
    np.testing.assert_array_equal(time_reverse(time_reverse(x)).samples, x.samples)


def test_split_segments_and_roundtrip():
    rng = np.random.default_rng(11)
    x = rand_signal(rng, 2, 10)
    segs = split_segments(x, 5)
    assert len(segs) == 2
    assert all(s.n_samples == 5 for s in segs)
    np.testing.assert_array_equal(segs[0].samples, x.samples[:, :5])
    np.testing.assert_array_equal(concat_segments(segs).samples, x.samples)
    with pytest.raises(LengthError):
        split_segments(x, 3)


def test_signal_validation():
    from echotrain.errors import NumericError

    with pytest.raises(NumericError):
        Signal(np.array([[np.nan, 1.0]]), 0.1)
    with pytest.raises(ConfigurationError):
        Signal(np.zeros((1, 4)), -1.0)
    with pytest.raises(DimensionError):
        Signal(np.zeros((0, 4)), 0.1)
    with pytest.raises(DimensionError):
        Kernel(np.zeros((0, 2, 2)), 0.1)


def fresh_lags(taps):
    return np.flatnonzero(np.any(taps != 0, axis=(1, 2)))


def test_kernel_live_lags_are_cached_read_only_and_follow_the_taps():
    rng = np.random.default_rng(12)
    taps = rng.standard_normal((9, 2, 3))
    taps[[0, 3, 4, 5, 8]] = 0.0
    taps[5, 1, 2] = -0.0  # a negative zero is not a live tap
    k = Kernel(taps, 0.1)
    np.testing.assert_array_equal(k.nonzero_lags(), fresh_lags(taps))
    np.testing.assert_array_equal(k.nonzero_lags(), [1, 2, 6, 7])
    assert k.first_nonzero_lag() == 1
    with pytest.raises(ValueError):
        k.nonzero_lags()[0] = 0
    moved = replace(k, taps=np.roll(taps, 2, axis=0))
    np.testing.assert_array_equal(moved.nonzero_lags(), fresh_lags(moved.taps))
    assert Kernel.zero(2, 2, 0.1, length=4).nonzero_lags().size == 0


def test_signal_immutable():
    x = Signal.zeros(1, 4, 0.1)
    with pytest.raises(ValueError):
        x.samples[0, 0] = 1.0


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    x = rand_signal(rng, 3, 9, dt=2.5e-5)
    path = tmp_path / "sig.csv"
    signal_to_csv(x, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,ch0,ch1,ch2"
    back = signal_from_csv(path)
    np.testing.assert_array_equal(back.samples, x.samples)
    assert back.dt == pytest.approx(x.dt, rel=1e-12)


def test_kernel_csv_export(tmp_path):
    from echotrain.signal import kernel_to_csv

    rng = np.random.default_rng(13)
    k = rand_kernel(rng, 2, 3, 4)
    path = tmp_path / "kernel.csv"
    kernel_to_csv(k, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lag," + ",".join(
        f"w_{r}_{c}" for r in range(2) for c in range(3))
    assert len(lines) == 5
    row1 = [float(v) for v in lines[2].split(",")]
    assert row1[0] == 1.0
    np.testing.assert_allclose(row1[1:], k.taps[1].ravel())


# ---------------------------------------------------------------------------
# partitioned FFT engine for long scalar kernels.  Oracle comparisons force
# the engine onto small sizes (crossover 0); the plain tests run real sizes
# above the crossover


@pytest.fixture
def fft_everywhere(monkeypatch):
    monkeypatch.setattr(signal_mod, "_FFT_MIN_BLOCK_MACS", 0)


def sparse_scalar_taps(rng, L, spans):
    """Scalar taps of length L, nonzero only on the given [lo, hi) spans."""
    w = np.zeros(L)
    for lo, hi in spans:
        w[lo:hi] = rng.standard_normal(hi - lo)
    return w


def test_convolve_fft_path_matches_oracle(fft_everywhere):
    rng = np.random.default_rng(20)
    L, n, dt = 240, 701, 0.05  # n is not a multiple of the block (2L)
    k = Kernel.from_taps(sparse_scalar_taps(rng, L, [(3, 40), (150, 200)]), dt)
    x = rand_signal(rng, 1, n, dt)
    y = convolve(k, x).samples
    expect = conv_direct(k.taps, dt, x.samples)
    np.testing.assert_allclose(y, expect, rtol=0, atol=1e-12 * np.max(np.abs(expect)))
    assert np.all(y[:, :3] == 0.0)  # before the first live tap: exact zeros


def test_adjoint_convolve_fft_path_matches_oracle(fft_everywhere):
    rng = np.random.default_rng(21)
    L, n, dt = 240, 701, 0.05
    k = Kernel.from_taps(sparse_scalar_taps(rng, L, [(5, 10), (120, 239)]), dt)
    e = rand_signal(rng, 1, n, dt)
    r = adjoint_convolve(k, e).samples
    expect = adjoint_direct(k.taps, dt, e.samples)
    np.testing.assert_allclose(r, expect, rtol=0, atol=1e-12 * np.max(np.abs(expect)))
    assert np.all(r[:, -5:] == 0.0)


def test_fft_path_matches_direct_path_above_crossover(monkeypatch):
    rng = np.random.default_rng(23)
    L, n, dt = 4200, 30_001, 1.0
    assert _fft_pays(L, 2 * L, n)
    k = Kernel.from_taps(sparse_scalar_taps(rng, L, [(652, 753), (2050, 2151)]), dt)
    x = rand_signal(rng, 1, n, dt)
    fast = convolve(k, x).samples, adjoint_convolve(k, x).samples
    monkeypatch.setattr(signal_mod, "_FFT_MIN_BLOCK_MACS", np.inf)
    slow = convolve(k, x).samples, adjoint_convolve(k, x).samples
    for f, d in zip(fast, slow):
        np.testing.assert_allclose(f, d, rtol=0, atol=1e-12 * np.max(np.abs(d)))


@pytest.mark.parametrize("seed", range(4))
def test_fft_path_adjoint_inner_product_identity(seed):
    rng = np.random.default_rng(200 + seed)
    L = int(rng.integers(800, 3000))
    n = int(rng.integers(2 * L, 6 * L))
    dt = float(rng.uniform(0.01, 2.0))
    assert _fft_pays(L, 2 * L, n)
    k = Kernel.from_taps(sparse_scalar_taps(rng, L, [(1, L // 5), (L // 2, L)]), dt)
    x = rand_signal(rng, 1, n, dt)
    y = rand_signal(rng, 1, n, dt)
    lhs = inner(convolve(k, x), y)
    rhs = inner(x, adjoint_convolve(k, y))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("L, block, n", [
    (50, 64, 30),    # n shorter than the block
    (20, 64, 300),   # kernel shorter than the block: one partition
    (97, 16, 333),   # many partitions, ragged last block
    (40, 8, 8),      # a single full block
])
def test_partitioned_convolve_edge_cases(L, block, n):
    rng = np.random.default_rng(L + block + n)
    w = sparse_scalar_taps(rng, L, [(0, 5), (L // 2, L)])
    x = rng.standard_normal(n)
    expect = np.convolve(x, w)[:n]
    np.testing.assert_allclose(_partitioned_convolve(w, x, block), expect,
                               rtol=0, atol=1e-12 * np.max(np.abs(expect)))


def test_partitioned_convolve_all_zero_kernel():
    x = np.random.default_rng(22).standard_normal(100)
    assert np.all(_partitioned_convolve(np.zeros(40), x, 16) == 0.0)


@pytest.mark.parametrize("L, live", [
    (1, None),   # all-zero single tap (the acoustic plant's w_so)
    (1, 0),      # unit delta at lag 0 (the acoustic plant's w_ao)
    (6, None),   # all-zero, several taps
    (7, 3),      # one live tap behind a delay
    (80, 70),    # one live tap beyond the trace: no output at all
])
def test_trivial_scalar_kernels_skip_np_convolve(monkeypatch, L, live):
    # at most one live tap: the lag-sparse loop, one product per sample, which
    # matches the oracles and is bit for bit what np.convolve gave
    rng = np.random.default_rng(L)
    n, dt = 60, 0.3
    w = np.zeros(L)
    if live is not None:
        w[live] = rng.standard_normal()
    k = Kernel.from_taps(w, dt)
    x, e = rand_signal(rng, 1, n, dt), rand_signal(rng, 1, n, dt)
    via_np = (dt * np.convolve(x.samples[0], w)[:n],
              dt * np.convolve(e.samples[0], w[::-1])[L - 1 : L - 1 + n])

    def no_convolve(*args, **kwargs):
        raise AssertionError("np.convolve called for a trivial scalar kernel")

    monkeypatch.setattr(np, "convolve", no_convolve)
    y, r = convolve(k, x).samples, adjoint_convolve(k, e).samples
    np.testing.assert_allclose(y, conv_direct(k.taps, dt, x.samples), rtol=0, atol=1e-14)
    np.testing.assert_allclose(r, adjoint_direct(k.taps, dt, e.samples), rtol=0, atol=1e-14)
    assert np.array_equal(y[0], via_np[0]) and np.array_equal(r[0], via_np[1])


def test_public_signal_copies_its_input():
    arr = np.arange(10.0).reshape(2, 5)
    sig = Signal(arr, 1.0)
    arr[0, 0] = 99.0
    assert sig.samples[0, 0] == 0.0
    assert arr.flags.writeable
    assert not sig.samples.flags.writeable


def test_internal_constructor_keeps_checks_without_copying():
    arr = np.ones((2, 4))
    sig = Signal._own(arr, 0.5)
    assert sig.samples is arr and not arr.flags.writeable and sig.dt == 0.5
    with pytest.raises(DimensionError):
        Signal._own(np.ones(4), 1.0)
    with pytest.raises(DimensionError):
        Signal._own(np.ones((0, 4)), 1.0)
    with pytest.raises(NumericError):
        Signal._own(np.array([[1.0, np.inf]]), 1.0)
    with pytest.raises(ConfigurationError):
        Signal._own(np.ones((1, 4)), 0.0)


@pytest.mark.parametrize("shape", [(1, 1), (2, 3)])
def test_convolution_outputs_are_read_only(shape):
    rng = np.random.default_rng(3)
    k = rand_kernel(rng, *shape, L=4)
    for out in (convolve(k, rand_signal(rng, shape[1], 30)),
                adjoint_convolve(k, rand_signal(rng, shape[0], 30))):
        assert not out.samples.flags.writeable
        with pytest.raises(ValueError):
            out.samples[0, 0] = 1.0
