import numpy as np
import pytest

from echotrain import signal as signal_mod
from echotrain.errors import ConfigurationError, DimensionError
from echotrain.signal import Kernel, Signal, _fft_pays, inner
from echotrain.system import (
    BackwardPath,
    NoiseModel,
    Nonlinearity,
    PhysicalSystem,
    apply_nonlinearity,
    backward,
    forward,
)

from oracles import (
    fd_gradient,
    nonlinearity_naive,
    plant_backward_naive,
    plant_forward_naive,
    rel_err,
)

NONLINEARITIES = {"rectifier": Nonlinearity.rectifier(), "clip": Nonlinearity.clip(-1.0, 1.0),
                  "identity": Nonlinearity.identity()}


def rand_system(rng, n_in=2, n_state=3, n_out=2, L=4, dt=0.1, kind="rectifier",
                scale=0.4, noise=None, backward_path=None):
    def k(rows, cols):
        taps = scale * rng.standard_normal((L, rows, cols))
        return taps

    aa = k(n_state, n_state)
    aa[0] = 0.0
    return PhysicalSystem(
        w_sa=Kernel(k(n_state, n_in), dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel(k(n_out, n_in), dt),
        w_ao=Kernel(k(n_out, n_state), dt),
        f=NONLINEARITIES[kind],
        noise=noise,
        backward_path=backward_path,
    )


def naive_f(nl):
    return lambda x: apply_nonlinearity(nl, x)


def test_apply_nonlinearity_examples():
    v, j = apply_nonlinearity(Nonlinearity.rectifier(), np.array([2.0, -1.0, 0.0]))
    np.testing.assert_array_equal(v, [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(j, [1.0, 0.0, 0.0])

    v, j = apply_nonlinearity(Nonlinearity.clip(-1, 1), np.array([0.5, 1.5, -3.0]))
    np.testing.assert_array_equal(v, [0.5, 1.0, -1.0])
    np.testing.assert_array_equal(j, [1.0, 0.0, 0.0])

    x = np.array([-2.0, 0.0, 7.0])
    v, j = apply_nonlinearity(Nonlinearity.identity(), x)
    np.testing.assert_array_equal(v, x)
    np.testing.assert_array_equal(j, [1.0, 1.0, 1.0])


def test_strict_causality_invariant_enforced():
    rng = np.random.default_rng(0)
    sys = rand_system(rng)
    bad_aa = sys.w_aa.taps.copy()
    bad_aa[0, 0, 0] = 0.5
    with pytest.raises(ConfigurationError):
        PhysicalSystem(sys.w_sa, Kernel(bad_aa, sys.dt), sys.w_so, sys.w_ao, sys.f)


def test_forward_zero_input_rectifier():
    rng = np.random.default_rng(1)
    sys = rand_system(rng, kind="rectifier")
    tr = forward(sys, Signal.zeros(2, 30, sys.dt))
    assert np.all(tr.a.samples == 0.0)
    assert np.all(tr.o.samples == 0.0)


def test_forward_one_hidden_layer_reduction():
    # delta kernels, no feedback, f applied to W_s s: o[i] == W_a f(W_s s[i])
    rng = np.random.default_rng(2)
    dt = 0.05
    W_s = rng.standard_normal((3, 2))
    W_a = rng.standard_normal((2, 3))
    sys = PhysicalSystem(
        w_sa=Kernel.delta(W_s, dt),
        w_aa=Kernel.zero(3, 3, dt),
        w_so=Kernel.zero(2, 2, dt),
        w_ao=Kernel.delta(W_a, dt),
        f=Nonlinearity.identity(),
    )
    s = Signal(rng.standard_normal((2, 10)), dt)
    tr = forward(sys, s)
    np.testing.assert_allclose(tr.o.samples, W_a @ (W_s @ s.samples), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("kind", ["rectifier", "identity", "clip"])
def test_forward_matches_naive_recursion(kind):
    rng = np.random.default_rng(3)
    sys = rand_system(rng, n_in=2, n_state=3, n_out=2, L=4, dt=0.3, kind=kind, scale=0.8)
    s = Signal(rng.standard_normal((2, 30)), sys.dt)
    tr = forward(sys, s)
    a, o, jac = plant_forward_naive(
        sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps,
        sys.dt, naive_f(sys.f), s.samples)
    np.testing.assert_allclose(tr.a.samples, a, rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(tr.o.samples, o, rtol=1e-11, atol=1e-12)
    np.testing.assert_array_equal(tr.jac, jac)


def test_forward_blocked_equals_naive_with_long_gap_kernel():
    # feedback kernel with a long leading zero span exercises the block stepping
    rng = np.random.default_rng(4)
    dt = 1.0
    L, gap = 13, 7
    aa = np.zeros((L, 2, 2))
    aa[gap:] = 0.5 * rng.standard_normal((L - gap, 2, 2))
    sys = PhysicalSystem(
        w_sa=Kernel.delta(np.eye(2), dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel.zero(2, 2, dt),
        w_ao=Kernel.delta(np.eye(2), dt),
        f=Nonlinearity.rectifier(),
    )
    s = Signal(rng.standard_normal((2, 50)), dt)
    tr = forward(sys, s)
    a, o, _ = plant_forward_naive(
        sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps,
        dt, naive_f(sys.f), s.samples)
    np.testing.assert_allclose(tr.a.samples, a, rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(tr.o.samples, o, rtol=1e-11, atol=1e-12)


def test_backward_zero_error_gives_zero():
    rng = np.random.default_rng(5)
    sys = rand_system(rng)
    s = Signal(rng.standard_normal((2, 25)), sys.dt)
    tr = forward(sys, s)
    bw = backward(sys, tr, Signal.zeros(2, 25, sys.dt))
    assert np.all(bw.e_a.samples == 0.0)
    assert np.all(bw.e_s.samples == 0.0)


def test_backward_matches_naive_recursion():
    rng = np.random.default_rng(6)
    sys = rand_system(rng, kind="clip", scale=0.7)
    s = Signal(rng.standard_normal((2, 40)), sys.dt)
    tr = forward(sys, s)
    e_o = Signal(rng.standard_normal((2, 40)), sys.dt)
    bw = backward(sys, tr, e_o)
    e_a, e_s = plant_backward_naive(
        sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps,
        sys.dt, tr.jac, e_o.samples)
    np.testing.assert_allclose(bw.e_a.samples, e_a, rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(bw.e_s.samples, e_s, rtol=1e-11, atol=1e-12)


def test_backward_linear_case_factorizes():
    # f = identity, W_aa = 0: e_s = adj(w_sa, adj(w_ao, e_o)) + adj(w_so, e_o)
    from echotrain.signal import adjoint_convolve

    rng = np.random.default_rng(7)
    dt = 0.2
    sys = PhysicalSystem(
        w_sa=Kernel(rng.standard_normal((3, 3, 2)), dt),
        w_aa=Kernel.zero(3, 3, dt),
        w_so=Kernel(rng.standard_normal((2, 2, 2)), dt),
        w_ao=Kernel(rng.standard_normal((3, 2, 3)), dt),
        f=Nonlinearity.identity(),
    )
    s = Signal(rng.standard_normal((2, 20)), dt)
    tr = forward(sys, s)
    e_o = Signal(rng.standard_normal((2, 20)), dt)
    bw = backward(sys, tr, e_o)
    expect = (adjoint_convolve(sys.w_sa, adjoint_convolve(sys.w_ao, e_o)).samples
              + adjoint_convolve(sys.w_so, e_o).samples)
    np.testing.assert_allclose(bw.e_s.samples, expect, rtol=1e-12, atol=1e-13)


def test_input_gradient_matches_finite_differences():
    # quadratic cost on o; e_s carries dC/ds[j] = dt * e_s[j]
    rng = np.random.default_rng(8)
    sys = rand_system(rng, n_in=2, n_state=3, n_out=2, L=3, dt=0.4, kind="rectifier")
    n = 30
    s0 = rng.standard_normal((2, n))
    target = rng.standard_normal((2, n))

    def cost_of(s_flat):
        s = Signal(s_flat.reshape(2, n), sys.dt)
        o = forward(sys, s).o.samples
        return 0.5 * float(np.sum((o - target) ** 2))

    tr = forward(sys, Signal(s0, sys.dt))
    # gradient density of the quadratic cost w.r.t. o
    e_o = Signal((tr.o.samples - target) / sys.dt, sys.dt)
    bw = backward(sys, tr, e_o)
    grad = sys.dt * bw.e_s.samples
    fd = fd_gradient(cost_of, s0.ravel(), eps=1e-5)
    assert rel_err(grad.ravel(), fd) < 1e-6


def test_adjoint_consistency_of_linear_maps():
    # noise off, f identity: <F s, y> == <s, F^T y> with F: s -> o
    for seed in range(5):
        rng = np.random.default_rng(50 + seed)
        sys = rand_system(rng, kind="identity", scale=0.5, dt=float(rng.uniform(0.05, 1.5)))
        n = 35
        s = Signal(rng.standard_normal((2, n)), sys.dt)
        y = Signal(rng.standard_normal((2, n)), sys.dt)
        tr = forward(sys, s)
        bw = backward(sys, tr, y)
        lhs = inner(tr.o, y)
        rhs = inner(s, bw.e_s)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-12)


def test_strict_causality_by_perturbation():
    rng = np.random.default_rng(9)
    sys = rand_system(rng)
    n = 25
    s0 = rng.standard_normal((2, n))
    tr0 = forward(sys, Signal(s0, sys.dt))
    j = 13
    s1 = s0.copy()
    s1[:, j] += 0.5
    tr1 = forward(sys, Signal(s1, sys.dt))
    assert np.all(tr1.a.samples[:, :j] == tr0.a.samples[:, :j])
    assert np.all(tr1.o.samples[:, :j] == tr0.o.samples[:, :j])


def test_determinism_with_noise_seed():
    rng_sys = np.random.default_rng(10)
    sys = rand_system(rng_sys, noise=NoiseModel(18.0, on_forward=True, on_backward=True))
    s = Signal(np.random.default_rng(11).standard_normal((2, 40)), sys.dt)
    t1 = forward(sys, s, np.random.default_rng(77))
    t2 = forward(sys, s, np.random.default_rng(77))
    np.testing.assert_array_equal(t1.a.samples, t2.a.samples)
    np.testing.assert_array_equal(t1.o.samples, t2.o.samples)
    e_o = Signal(np.random.default_rng(12).standard_normal((2, 40)), sys.dt)
    b1 = backward(sys, t1, e_o, np.random.default_rng(78))
    b2 = backward(sys, t2, e_o, np.random.default_rng(78))
    np.testing.assert_array_equal(b1.e_s.samples, b2.e_s.samples)


def test_noise_requires_rng():
    rng = np.random.default_rng(13)
    sys = rand_system(rng, noise=NoiseModel(18.0))
    with pytest.raises(ConfigurationError):
        forward(sys, Signal.zeros(2, 5, sys.dt).__class__(np.ones((2, 5)), sys.dt))


def test_backward_path_normalize_and_scale():
    rng = np.random.default_rng(14)
    sys = rand_system(rng, kind="identity",
                      backward_path=BackwardPath(normalize_peak=0.5, scale=0.5))
    s = Signal(rng.standard_normal((2, 20)), sys.dt)
    tr = forward(sys, s)
    e_o = Signal(rng.standard_normal((2, 20)), sys.dt)
    bw_plain = backward(
        PhysicalSystem(sys.w_sa, sys.w_aa, sys.w_so, sys.w_ao, sys.f), tr, e_o)
    bw_dist = backward(sys, tr, e_o)
    # normalize + scale is a positive rescaling of e_o; e_s scales identically
    factor = 0.5 * 0.5 / np.max(np.abs(e_o.samples))
    np.testing.assert_allclose(bw_dist.e_s.samples, factor * bw_plain.e_s.samples,
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("peak", [-0.5, 0.0, float("nan"), float("inf")])
def test_backward_path_rejects_a_bad_normalize_peak(peak):
    # a negative peak would flip the injected error, a NaN one poison it
    with pytest.raises(ConfigurationError, match="normalize_peak"):
        BackwardPath(normalize_peak=peak)


def test_backward_length_mismatch_errors():
    rng = np.random.default_rng(15)
    sys = rand_system(rng)
    s = Signal(rng.standard_normal((2, 20)), sys.dt)
    tr = forward(sys, s)
    with pytest.raises(DimensionError):
        backward(sys, tr, Signal.zeros(2, 19, sys.dt))
    with pytest.raises(DimensionError):
        backward(sys, tr, Signal.zeros(3, 20, sys.dt))


# ---------------------------------------------------------------------------
# the forward gate and its Jacobian on every recursion branch; kink
# points: at lo and hi (clip) and at +-0 (rectifier origin) the
# Jacobian is 0; the values must be the textbook ones bit for bit
EDGES = np.array([-1.0, 1.0, -0.0, 0.0, -3.0, 3.0, 0.25, -0.25, 5e-324, -5e-324])


def same_bits(x, y):
    return x.shape == y.shape and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("kind", NONLINEARITIES)
def test_apply_nonlinearity_at_kinks_matches_textbook_bits(kind):
    v, j = apply_nonlinearity(NONLINEARITIES[kind], EDGES)
    v_ref, j_ref = nonlinearity_naive(kind)(EDGES)
    assert same_bits(v, v_ref) and same_bits(j, j_ref)
    if kind != "identity":
        kinks = [0, 1] if kind == "clip" else [2, 3]
        assert np.all(j[kinks] == 0.0)


def edge_plant(rng, kind, n_state, L, first, dt=1.0):
    """w_sa is the identity at lag 0 and dt = 1, so before the first live
    feedback lag the pre-activation is the input sample itself."""
    aa = np.zeros((L, n_state, n_state))
    aa[first:] = rng.standard_normal((L - first, n_state, n_state))
    aa *= 0.8 / (dt * np.sum(np.abs(aa)))
    return PhysicalSystem(
        w_sa=Kernel.delta(np.eye(n_state), dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel(rng.standard_normal((2, 2, n_state)), dt),
        w_ao=Kernel(rng.standard_normal((3, 2, n_state)), dt),
        f=NONLINEARITIES[kind],
    )


@pytest.mark.parametrize("kind", NONLINEARITIES)
@pytest.mark.parametrize("branch", ["matrix", "scalar_direct", "fft"])
def test_forward_gate_and_jacobian_match_naive_on_every_branch(monkeypatch, kind, branch):
    rng = np.random.default_rng(40)
    n_state, L, first, n = {"matrix": (3, 20, 12, 90), "scalar_direct": (1, 40, 12, 101),
                            "fft": (1, 60, 12, 130)}[branch]
    monkeypatch.setattr(signal_mod, "_FFT_MIN_BLOCK_MACS", 0 if branch == "fft" else np.inf)
    sys = edge_plant(rng, kind, n_state, L, first)
    x = rng.standard_normal((n_state, n))
    x[:, : EDGES.size] = EDGES  # the first block has no feedback yet
    tr = forward(sys, Signal(x, sys.dt))
    taps = (sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps)
    a, o, jac = plant_forward_naive(*taps, sys.dt, nonlinearity_naive(kind), x)
    np.testing.assert_array_equal(tr.jac, jac)
    np.testing.assert_allclose(tr.a.samples, a, rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(tr.o.samples, o, rtol=1e-11, atol=1e-12)
    # the drive adds the (zero) feedback, so the first block sees x + 0.0
    pre = x[:, :first] + 0.0
    a_ref, jac_ref = nonlinearity_naive(kind)(pre)
    assert same_bits(tr.a.samples[:, :first], a_ref)
    assert same_bits(tr.jac[:, :first], jac_ref)
    if kind != "identity":
        kinks = [0, 1] if kind == "clip" else [2, 3]
        assert np.all(tr.jac[:, kinks] == 0.0)


# ---------------------------------------------------------------------------
# the direct recursion gathers every live lag's window of past state in one
# product per block; these geometries cover its edges: (n_state, kernel
# length, live lags, n), every n off a multiple of the block (first live lag)
GATHER_CASES = {
    "multi_lag_matrix": (3, 16, (2, 3, 5, 9, 15), 97),
    "echo_sparse_scalar": (1, 200, (*range(30, 40), *range(90, 100), *range(170, 180)), 603),
    "lags_at_and_beyond_n": (2, 60, (3, 7, 40, 55), 40),
    "single_lag_optical": (4, 12, (11,), 50),
    "all_zero_feedback": (3, 8, (), 30),
}


@pytest.mark.parametrize("case", GATHER_CASES)
def test_direct_recursion_matches_naive_forward_and_transposed(case):
    n_state, L, lags, n = GATHER_CASES[case]
    rng, dt = np.random.default_rng(50), 0.7
    aa = np.zeros((L, n_state, n_state))
    aa[list(lags)] = rng.standard_normal((len(lags), n_state, n_state))
    if lags:
        aa *= 0.8 / (dt * np.sum(np.abs(aa[[k for k in lags if k < n]])))  # loop gain 0.8
    assert not _fft_pays(L, lags[0] if lags else n, n)
    sys = PhysicalSystem(
        w_sa=Kernel(rng.standard_normal((2, n_state, 2)), dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel(rng.standard_normal((3, 2, 2)), dt),
        w_ao=Kernel(rng.standard_normal((2, 2, n_state)), dt),
        f=Nonlinearity.clip(-1.0, 1.0),
    )
    s = Signal(rng.standard_normal((2, n)), dt)
    e_o = Signal(rng.standard_normal((2, n)), dt)
    tr = forward(sys, s)
    bw = backward(sys, tr, e_o)
    taps = (sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps)
    a, o, jac = plant_forward_naive(*taps, dt, naive_f(sys.f), s.samples)
    e_a, e_s = plant_backward_naive(*taps, dt, jac, e_o.samples)
    np.testing.assert_array_equal(tr.jac, jac)
    for fast, slow in ((tr.a, a), (tr.o, o), (bw.e_a, e_a), (bw.e_s, e_s)):
        np.testing.assert_allclose(fast.samples, slow, rtol=0,
                                   atol=1e-12 * np.max(np.abs(slow)))


# ---------------------------------------------------------------------------
# scalar plant with a long, sparse feedback kernel: the partitioned FFT path.
# Oracle comparisons force the engine onto small sizes (crossover 0)


@pytest.fixture
def fft_everywhere(monkeypatch):
    monkeypatch.setattr(signal_mod, "_FFT_MIN_BLOCK_MACS", 0)


def long_sparse_scalar_system(rng, kind, first=96, L=600, dt=0.5):
    """Feedback taps live on [first, first + 40) and [L - 140, L - 80): with
    blocks of `first` taps the partitions between them are all zero."""
    aa = np.zeros((L, 1, 1))
    aa[first : first + 40, 0, 0] = rng.standard_normal(40)
    aa[L - 140 : L - 80, 0, 0] = rng.standard_normal(60)
    aa *= 0.8 / (dt * np.sum(np.abs(aa)))  # loop gain 0.8: a stable plant
    return PhysicalSystem(
        w_sa=Kernel(rng.standard_normal((2, 1, 1)), dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel(rng.standard_normal((1, 1, 1)), dt),
        w_ao=Kernel(rng.standard_normal((2, 1, 1)), dt),
        f=NONLINEARITIES[kind],
    )


@pytest.mark.parametrize("kind", ["rectifier", "clip"])
def test_long_scalar_feedback_fft_path_matches_naive(fft_everywhere, kind):
    rng = np.random.default_rng(30)
    sys = long_sparse_scalar_system(rng, kind)
    n = 700  # not a multiple of the 96-sample block
    assert sys.w_aa.first_nonzero_lag() == 96
    s = Signal(rng.standard_normal((1, n)), sys.dt)
    tr = forward(sys, s)
    taps = (sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps)
    a, o, jac = plant_forward_naive(*taps, sys.dt, naive_f(sys.f), s.samples)
    np.testing.assert_array_equal(tr.jac, jac)
    np.testing.assert_allclose(tr.a.samples, a, rtol=0, atol=1e-11 * np.max(np.abs(a)))
    np.testing.assert_allclose(tr.o.samples, o, rtol=0, atol=1e-11 * np.max(np.abs(o)))

    e_o = Signal(rng.standard_normal((1, n)), sys.dt)
    bw = backward(sys, tr, e_o)
    e_a, e_s = plant_backward_naive(*taps, sys.dt, tr.jac, e_o.samples)
    np.testing.assert_allclose(bw.e_a.samples, e_a, rtol=0, atol=1e-11 * np.max(np.abs(e_a)))
    np.testing.assert_allclose(bw.e_s.samples, e_s, rtol=0, atol=1e-11 * np.max(np.abs(e_s)))


def test_long_scalar_plant_all_zero_feedback(fft_everywhere):
    rng = np.random.default_rng(32)
    sys = long_sparse_scalar_system(rng, "rectifier")
    sys = PhysicalSystem(sys.w_aa, Kernel.zero(1, 1, sys.dt, length=600), sys.w_so,
                         sys.w_ao, sys.f)
    n = 700
    s = Signal(rng.standard_normal((1, n)), sys.dt)
    tr = forward(sys, s)
    taps = (sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps)
    a, o, jac = plant_forward_naive(*taps, sys.dt, naive_f(sys.f), s.samples)
    np.testing.assert_array_equal(tr.jac, jac)
    np.testing.assert_allclose(tr.o.samples, o, rtol=0, atol=1e-11 * np.max(np.abs(o)))


def test_long_scalar_plant_fft_matches_direct_above_crossover(monkeypatch):
    # 40 kHz tube geometry: first live lag 652, 4200 taps
    rng = np.random.default_rng(33)
    sys = long_sparse_scalar_system(rng, "rectifier", first=652, L=4200, dt=1.0)
    sys = PhysicalSystem(sys.w_aa, sys.w_aa, sys.w_so, sys.w_ao, sys.f)
    n = 10_001
    assert _fft_pays(4200, 652, n)
    s = Signal(rng.standard_normal((1, n)), sys.dt)
    e_o = Signal(rng.standard_normal((1, n)), sys.dt)
    tr = forward(sys, s)
    bw = backward(sys, tr, e_o)
    monkeypatch.setattr(signal_mod, "_FFT_MIN_BLOCK_MACS", np.inf)
    tr_d = forward(sys, s)
    bw_d = backward(sys, tr_d, e_o)
    np.testing.assert_array_equal(tr.jac, tr_d.jac)
    for fast, slow in ((tr.a, tr_d.a), (tr.o, tr_d.o), (bw.e_a, bw_d.e_a), (bw.e_s, bw_d.e_s)):
        np.testing.assert_allclose(fast.samples, slow.samples, rtol=0,
                                   atol=1e-12 * np.max(np.abs(slow.samples)))


def test_long_scalar_plant_adjoint_identity_on_fft_path():
    # f identity: o is linear in s and backward is its adjoint
    rng = np.random.default_rng(31)
    sys = long_sparse_scalar_system(rng, "identity", first=652, L=4200)
    sys = PhysicalSystem(sys.w_aa, sys.w_aa, sys.w_so, sys.w_ao, sys.f)
    n = 20 * 652 + 7
    assert _fft_pays(4200, 652, n)
    s = Signal(rng.standard_normal((1, n)), sys.dt)
    y = Signal(rng.standard_normal((1, n)), sys.dt)
    tr = forward(sys, s)
    lhs = inner(tr.o, y)
    rhs = inner(s, backward(sys, tr, y).e_s)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("noise", [None, NoiseModel(18.0, on_forward=True, on_backward=True)])
def test_plant_traces_are_read_only(noise):
    rng = np.random.default_rng(15)
    sys = rand_system(rng, kind="clip", noise=noise,
                      backward_path=BackwardPath(normalize_peak=0.5, scale=0.5, clip=True))
    s = Signal(rng.standard_normal((2, 30)), sys.dt)
    tr = forward(sys, s, np.random.default_rng(1))
    bw = backward(sys, tr, Signal(rng.standard_normal((2, 30)), sys.dt),
                  np.random.default_rng(2))
    for sig in (tr.a, tr.o, bw.e_a, bw.e_s, bw.e_o):
        assert not sig.samples.flags.writeable
        assert sig.samples.flags.c_contiguous


def test_measurement_noise_is_added_to_the_clean_trace():
    # the noisy trace is the clean one plus the draws, bit for bit
    rng = np.random.default_rng(16)
    noise = NoiseModel(10.0, on_forward=True, on_backward=True)
    sys = rand_system(rng, noise=noise)
    clean_sys = PhysicalSystem(sys.w_sa, sys.w_aa, sys.w_so, sys.w_ao, sys.f)
    s = Signal(rng.standard_normal((2, 40)), sys.dt)
    e_o = Signal(rng.standard_normal((2, 40)), sys.dt)
    clean, noisy = forward(clean_sys, s), forward(sys, s, np.random.default_rng(5))
    draws = np.random.default_rng(5)
    for got, x in ((noisy.a, clean.a), (noisy.o, clean.o)):
        n = draws.normal(0.0, noise.std_for(x.samples), x.samples.shape)
        assert np.array_equal(got.samples, x.samples + n)
    clean_bw = backward(clean_sys, noisy, e_o)
    noisy_bw = backward(sys, noisy, e_o, np.random.default_rng(6))
    draws = np.random.default_rng(6)
    for got, x in ((noisy_bw.e_a, clean_bw.e_a), (noisy_bw.e_s, clean_bw.e_s)):
        n = draws.normal(0.0, noise.std_for(x.samples), x.samples.shape)
        assert np.array_equal(got.samples, x.samples + n)
