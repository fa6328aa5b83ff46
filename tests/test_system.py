import numpy as np
import pytest

from echotrain import system as system_mod
from echotrain.cli import ConfigFile, build_experiment, bundled_config_names, resolve_config_path
from echotrain.errors import ConfigurationError, DimensionError
from echotrain.signal import Kernel, Signal, convolve, inner
from echotrain.system import (
    BackwardPath,
    NoiseModel,
    Nonlinearity,
    PhysicalSystem,
    _activate,
    _causal_feedback,
    _jacobian,
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
    return nonlinearity_naive(nl.kind, nl.lo, nl.hi)


def gate(nl, x):
    """(f(x), jac) as forward computes them: the value, then the Jacobian read off it."""
    v = _activate(nl, x)
    return v, _jacobian(nl, v)


def test_activation_and_jacobian_examples():
    v, j = gate(Nonlinearity.rectifier(), np.array([2.0, -1.0, 0.0]))
    np.testing.assert_array_equal(v, [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(j, [1.0, 0.0, 0.0])

    v, j = gate(Nonlinearity.clip(-1, 1), np.array([0.5, 1.5, -3.0]))
    np.testing.assert_array_equal(v, [0.5, 1.0, -1.0])
    np.testing.assert_array_equal(j, [1.0, 0.0, 0.0])

    x = np.array([-2.0, 0.0, 7.0])
    v, j = gate(Nonlinearity.identity(), x)
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
    tr = forward(sys, Signal(np.zeros((2, 30)), sys.dt))
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
    bw = backward(sys, tr, Signal(np.zeros((2, 25)), sys.dt))
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
        forward(sys, Signal(np.ones((2, 5)), sys.dt))


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
        backward(sys, tr, Signal(np.zeros((2, 19)), sys.dt))
    with pytest.raises(DimensionError):
        backward(sys, tr, Signal(np.zeros((3, 20)), sys.dt))


# ---------------------------------------------------------------------------
# the forward gate and its Jacobian on every recursion branch; kink
# points: at lo and hi (clip) and at +-0 (rectifier origin) the
# Jacobian is 0; the values must be the textbook ones bit for bit
EDGES = np.array([-1.0, 1.0, -0.0, 0.0, -3.0, 3.0, 0.25, -0.25, 5e-324, -5e-324])


def same_bits(x, y):
    return x.shape == y.shape and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("kind", NONLINEARITIES)
def test_activation_at_kinks_matches_textbook_bits(kind):
    v, j = gate(NONLINEARITIES[kind], EDGES)
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
    monkeypatch.setattr(system_mod, "_FFT_MIN_FEEDBACK_MACS", 0 if branch == "fft" else np.inf)
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
    assert (lags[0] if lags else n) * len(lags) < system_mod._FFT_MIN_FEEDBACK_MACS
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
# the batch axis: P recursions share one block loop and one stacked product
# per block; taps or a gate's drive may have P = 1 and serve every item


@pytest.mark.parametrize("lags", [[3, 4, 7, 11], [5]])  # n = 97 is no multiple of the block
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("n_state", [1, 3])
@pytest.mark.parametrize("taps_batch,drive_batch", [(5, 5), (1, 5), (5, 1)])
def test_batched_recursion_items_equal_their_own_recursion_bit_for_bit(
        lags, transpose, n_state, taps_batch, drive_batch):
    rng, dt, L, n = np.random.default_rng(60), 0.6, 12, 97
    taps = np.zeros((taps_batch, L, n_state, n_state))
    taps[:, lags] = rng.standard_normal((taps_batch, len(lags), n_state, n_state))
    taps *= 0.8 / (dt * np.sum(np.abs(taps), axis=(1, 2, 3), keepdims=True))
    if transpose:  # the orientation backward passes: W[k].T per lag
        taps = taps.transpose(0, 1, 3, 2)
    drive = rng.standard_normal((drive_batch, n_state, n))
    jac = (rng.random((n_state, n)) > 0.3).astype(np.float64)

    def gate(drive):  # the drive plus feedback, clipped, then a recorded Jacobian window
        return lambda fb, t0, t1: jac[:, t0:t1] * np.minimum(
            np.maximum(drive[:, :, t0:t1] + fb, -1.0), 1.0)

    batch = max(taps_batch, drive_batch)
    batched = _causal_feedback(taps, dt, batch, n, gate(drive))
    assert batched.shape == (batch, n_state, n)
    for p in range(batch):
        alone = _causal_feedback(taps[p % taps_batch][None], dt, 1, n,
                                 gate(drive[p % drive_batch][None]))
        assert same_bits(batched[p], alone[0])


def test_batched_recursion_with_differing_live_lags_matches_naive():
    # the union of the items' live lags sets the block: 2 here, for every item
    rng, dt, L, n, n_state = np.random.default_rng(61), 0.5, 10, 53, 2
    items = []
    for lags in [(2, 5), (3, 7, 9), (6,), ()]:
        aa = np.zeros((L, n_state, n_state))
        aa[list(lags)] = rng.standard_normal((len(lags), n_state, n_state))
        if lags:
            aa *= 0.8 / (dt * np.sum(np.abs(aa)))
        items.append((rng.standard_normal((2, n_state, 2)), aa, rng.standard_normal((2, n))))
    drive = np.stack([convolve(Kernel(w_sa, dt), Signal(s, dt)).samples for w_sa, _, s in items])
    a = _causal_feedback(np.stack([aa for _, aa, _ in items]), dt, len(items), n,
                         lambda fb, t0, t1: np.minimum(np.maximum(drive[:, :, t0:t1] + fb, -1.0),
                                                       1.0))
    for a_p, (w_sa, aa, s) in zip(a, items):
        ref, _, _ = plant_forward_naive(w_sa, aa, np.zeros((1, 1, 2)), np.zeros((1, 1, n_state)),
                                        dt, nonlinearity_naive("clip"), s)
        np.testing.assert_allclose(a_p, ref, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(ref))))


def test_feedback_path_follows_block_times_live_lags(monkeypatch):
    # the crossover counts live lags: the echo-sparse desk tube stays direct,
    # the 40 kHz tube and a dense kernel take the engine
    engine, blocks = system_mod._partitioned_convolve, []

    def spy(*args, **kwargs):
        blocks.append(args[2])
        return engine(*args, **kwargs)

    monkeypatch.setattr(system_mod, "_partitioned_convolve", spy)
    one = Kernel(np.ones((1, 1, 1)), 1.0)

    def path(w_aa, n):
        blocks.clear()
        plant = PhysicalSystem(one, Kernel(w_aa, 1.0), Kernel.zero(1, 1, 1.0), one,
                               Nonlinearity.rectifier())
        forward(plant, Signal(np.random.default_rng(0).standard_normal((1, n)), 1.0))
        return "fft" if blocks else "direct"

    def tube(name):
        return build_experiment(ConfigFile.parse(resolve_config_path(name))).system.w_aa.taps

    desk, khz40 = tube("acoustic_delay_task"), tube("acoustic_delay_task_40khz")
    dense = np.zeros((2000, 1, 1))
    dense[200:] = 1e-4
    for w_aa, n, block, live, want in ((desk, 2000, 92, 303, "direct"),
                                       (khz40, 8000, 652, 303, "fft"),
                                       (dense, 4000, 200, 1800, "fft")):
        lags = np.flatnonzero(w_aa)
        assert (lags[0], lags.size) == (block, live)
        assert path(w_aa, n) == want


# ---------------------------------------------------------------------------
# scalar plant with a long, sparse feedback kernel: the partitioned FFT path.
# Oracle comparisons force the engine onto small sizes (crossover 0)


@pytest.fixture
def fft_everywhere(monkeypatch):
    monkeypatch.setattr(system_mod, "_FFT_MIN_FEEDBACK_MACS", 0)


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
@pytest.mark.parametrize("n", [
    700,  # ragged last block: n is not a multiple of the 96-sample block
    192,  # two full blocks
    96,   # one block: no live lag below n, so the block is the whole trace
    50,   # n shorter than the first live lag: one block of n samples
])
def test_long_scalar_feedback_fft_path_matches_naive(monkeypatch, kind, n):
    rng = np.random.default_rng(30)
    sys = long_sparse_scalar_system(rng, kind)
    assert sys.w_aa.nonzero_lags()[0] == 96
    blocks = on_path(monkeypatch, "engine")
    s = Signal(rng.standard_normal((1, n)), sys.dt)
    tr = forward(sys, s)
    taps = (sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps)
    a, o, jac = plant_forward_naive(*taps, sys.dt, naive_f(sys.f), s.samples)
    np.testing.assert_array_equal(tr.jac, jac)
    np.testing.assert_allclose(tr.a.samples, a, rtol=0, atol=1e-11 * np.max(np.abs(a)))
    np.testing.assert_allclose(tr.o.samples, o, rtol=0, atol=1e-11 * np.max(np.abs(o)))

    e_o = Signal(rng.standard_normal((1, n)), sys.dt)
    bw = backward(sys, tr, e_o)
    assert blocks == [min(n, 96)] * 2
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
    assert 652 * sys.w_aa.nonzero_lags().size >= system_mod._FFT_MIN_FEEDBACK_MACS
    s = Signal(rng.standard_normal((1, n)), sys.dt)
    e_o = Signal(rng.standard_normal((1, n)), sys.dt)
    tr = forward(sys, s)
    bw = backward(sys, tr, e_o)
    monkeypatch.setattr(system_mod, "_FFT_MIN_FEEDBACK_MACS", np.inf)
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
    assert 652 * sys.w_aa.nonzero_lags().size >= system_mod._FFT_MIN_FEEDBACK_MACS
    s = Signal(rng.standard_normal((1, n)), sys.dt)
    y = Signal(rng.standard_normal((1, n)), sys.dt)
    tr = forward(sys, s)
    lhs = inner(tr.o, y)
    rhs = inner(s, backward(sys, tr, y).e_s)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_engine_transform_length_is_scipy_next_fast_len():
    # _fast_len is the engine's rounding of a transform length up to pocketfft's
    # fast sizes; scipy is a test-only reference
    from scipy.fft import next_fast_len

    assert [system_mod._fast_len(n) for n in range(1, 20_001)] == \
        [next_fast_len(n, real=True) for n in range(1, 20_001)]


# ---------------------------------------------------------------------------
# one tube kernel as both W_sa and W_aa (the acoustic loop): forward runs one
# recursion on s + a, backward reads W_sa^T e_a off the adjoint recursion's
# own feedback sums.  "engine" forces the partitioned FFT engine onto small sizes


def shared_tube_system(rng, kind, n_state=1, first=7, L=60, dt=0.5, noise=None,
                       backward_path=None):
    """W_sa = W_aa = three echo bands of 8 taps from `first` on; random W_so, W_ao."""
    taps = np.zeros((L, n_state, n_state))
    for start in (first, 3 * first + 2, 5 * first + 5):
        taps[start : start + 8] = rng.standard_normal((8, n_state, n_state))
    taps *= 0.8 / (dt * np.sum(np.abs(taps)))  # loop gain below 0.8: a stable plant
    tube = Kernel(taps, dt)
    return PhysicalSystem(tube, tube, Kernel(rng.standard_normal((2, n_state, n_state)), dt),
                          Kernel(rng.standard_normal((2, n_state, n_state)), dt),
                          NONLINEARITIES[kind], noise, backward_path)


def on_path(monkeypatch, path):
    """Force the engine or keep the direct path; returns the list of engine blocks run."""
    engine, blocks = system_mod._partitioned_convolve, []

    def spy(*args, **kwargs):
        blocks.append(args[2])
        return engine(*args, **kwargs)

    monkeypatch.setattr(system_mod, "_partitioned_convolve", spy)
    if path == "engine":
        monkeypatch.setattr(system_mod, "_FFT_MIN_FEEDBACK_MACS", 0)
    return blocks


SHARED_TUBE_CASES = [(1, "direct"), (1, "engine"), (2, "direct")]  # (n_state, path)


@pytest.mark.parametrize("kind", ["rectifier", "clip"])
@pytest.mark.parametrize("n_state,path", SHARED_TUBE_CASES)
def test_shared_tube_plant_matches_naive(monkeypatch, kind, n_state, path):
    rng = np.random.default_rng(70)
    sys = shared_tube_system(rng, kind, n_state)
    blocks = on_path(monkeypatch, path)
    n = 20 * 7 + 3  # not a multiple of the 7-sample block
    s = Signal(rng.standard_normal((n_state, n)), sys.dt)
    e_o = Signal(rng.standard_normal((n_state, n)), sys.dt)
    tr = forward(sys, s)
    bw = backward(sys, tr, e_o)
    assert blocks == ([7, 7] if path == "engine" else [])
    taps = (sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps)
    a, o, jac = plant_forward_naive(*taps, sys.dt, naive_f(sys.f), s.samples)
    e_a, e_s = plant_backward_naive(*taps, sys.dt, jac, e_o.samples)
    np.testing.assert_array_equal(tr.jac, jac)
    for fast, slow in ((tr.a, a), (tr.o, o), (bw.e_a, e_a), (bw.e_s, e_s)):
        np.testing.assert_allclose(fast.samples, slow, rtol=0,
                                   atol=1e-12 * np.max(np.abs(slow)))


@pytest.mark.parametrize("n_state,path", SHARED_TUBE_CASES)
def test_shared_tube_plant_with_backward_clip_and_noise_matches_naive(monkeypatch, n_state,
                                                                       path):
    # the measured traces are the oracle's clean ones plus the same draws
    rng = np.random.default_rng(71)
    sys = shared_tube_system(rng, "clip", n_state,
                             noise=NoiseModel(20.0, on_forward=True, on_backward=True),
                             backward_path=BackwardPath(clip=True))
    on_path(monkeypatch, path)
    n = 20 * 7 + 3
    s = Signal(10.0 * rng.standard_normal((n_state, n)), sys.dt)  # drives the clip
    e_o = Signal(3.0 * rng.standard_normal((n_state, n)), sys.dt)
    tr = forward(sys, s, np.random.default_rng(5))
    bw = backward(sys, tr, e_o, np.random.default_rng(6))
    taps = (sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps)
    a, o, jac = plant_forward_naive(*taps, sys.dt, naive_f(sys.f), s.samples)
    e_a, e_s = plant_backward_naive(*taps, sys.dt, jac, e_o.samples, clip=(-1.0, 1.0))
    assert 0.0 < np.mean(jac) < 1.0 and np.max(np.abs(e_a)) == 1.0  # both clips bite
    np.testing.assert_array_equal(tr.jac, jac)
    for seed, pairs in ((5, ((tr.a, a), (tr.o, o))), (6, ((bw.e_a, e_a), (bw.e_s, e_s)))):
        draws = np.random.default_rng(seed)
        for got, clean in pairs:
            want = clean + draws.normal(0.0, sys.noise.std_for(clean), clean.shape)
            np.testing.assert_allclose(got.samples, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("n_state,path", SHARED_TUBE_CASES)
def test_shared_tube_adjoint_identity(monkeypatch, n_state, path):
    # f identity: o is linear in s and backward is its adjoint
    rng = np.random.default_rng(72)
    sys = shared_tube_system(rng, "identity", n_state)
    on_path(monkeypatch, path)
    n = 20 * 7 + 3
    s = Signal(rng.standard_normal((n_state, n)), sys.dt)
    y = Signal(rng.standard_normal((n_state, n)), sys.dt)
    lhs = inner(forward(sys, s).o, y)
    rhs = inner(s, backward(sys, forward(sys, s), y).e_s)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


# The engine transforms N = _fast_len(B + span) points, span = 1 + the largest
# offset of a live tap within its partition (lag mod B).  Each geometry gives
# another N: (block B, live runs as (first lag, taps), N)
ENGINE_GEOMETRIES = {
    "first_taps_only": (24, ((24, 1), (48, 1), (96, 1), (120, 1)), 25),  # span 1
    "last_tap_reached": (7, ((7, 3), (20, 1), (29, 2)), 15),  # span 7 = B: _fast_len(2B)
    "mid_partition_runs": (40, ((40, 6), (126, 6), (212, 6)), 60),  # offsets 0, 6, 12: span 18
}


def transform_lengths(monkeypatch):
    """Record the engine's transform length of every call."""
    fast_len, lengths = system_mod._fast_len, []

    def spy(n):
        lengths.append(fast_len(n))
        return lengths[-1]

    monkeypatch.setattr(system_mod, "_fast_len", spy)
    return lengths


@pytest.mark.parametrize("trace", ["multiple", "ragged", "below_block"])
@pytest.mark.parametrize("geometry", ENGINE_GEOMETRIES)
def test_engine_transform_length_follows_live_span(monkeypatch, geometry, trace):
    # one tube as W_sa and W_aa: forward's gate emits s + a, backward's records
    # the sums; ragged and below-block traces end on a short block
    block, runs, nfft = ENGINE_GEOMETRIES[geometry]
    n = {"multiple": 10 * block, "ragged": 10 * block + 3, "below_block": block - 5}[trace]
    if n < block:  # no tap is live: the block is the trace, the span 1
        nfft = system_mod._fast_len(n + 1)
    rng, dt = np.random.default_rng(73), 0.5
    taps = np.zeros((runs[-1][0] + runs[-1][1], 1, 1))
    for first, width in runs:
        taps[first : first + width] = rng.standard_normal((width, 1, 1))
    taps *= 0.8 / (dt * np.sum(np.abs(taps)))  # loop gain 0.8: a stable plant
    tube = Kernel(taps, dt)
    sys = PhysicalSystem(tube, tube, Kernel(rng.standard_normal((2, 1, 1)), dt),
                         Kernel(rng.standard_normal((2, 1, 1)), dt), NONLINEARITIES["clip"])
    blocks, lengths = on_path(monkeypatch, "engine"), transform_lengths(monkeypatch)
    s = Signal(2.0 * rng.standard_normal((1, n)), dt)
    e_o = Signal(rng.standard_normal((1, n)), dt)
    tr = forward(sys, s)
    bw = backward(sys, tr, e_o)
    assert (blocks, lengths) == ([min(n, block)] * 2, [nfft] * 2)
    taps = (sys.w_sa.taps, sys.w_aa.taps, sys.w_so.taps, sys.w_ao.taps)
    a, o, jac = plant_forward_naive(*taps, dt, naive_f(sys.f), s.samples)
    e_a, e_s = plant_backward_naive(*taps, dt, jac, e_o.samples)
    np.testing.assert_array_equal(tr.jac, jac)
    for fast, slow in ((tr.a, a), (tr.o, o), (bw.e_a, e_a), (bw.e_s, e_s)):
        np.testing.assert_allclose(fast.samples, slow, rtol=0,
                                   atol=1e-11 * np.max(np.abs(slow)))


@pytest.mark.parametrize("trace", ["multiple", "ragged", "below_block"])
def test_engine_transforms_no_window_after_the_last_block(monkeypatch, trace):
    # one rfft for the partition spectra, then one per block that a later block
    # reads: the last block's window reaches past the trace and is not transformed
    block, runs, _ = ENGINE_GEOMETRIES["mid_partition_runs"]
    n = {"multiple": 10 * block, "ragged": 10 * block + 3, "below_block": block - 5}[trace]
    w = np.zeros(runs[-1][0] + runs[-1][1])
    for first, width in runs:
        w[first : first + width] = 0.01
    rfft, calls = np.fft.rfft, []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    drive = np.random.default_rng(75).standard_normal(n)
    system_mod._partitioned_convolve(w, n, block, lambda fb, t0, t1: fb + drive[t0:t1])
    assert len(calls) == 1 + (-(-n // block) - 1)


def test_bundled_40khz_tube_engine_matches_direct(monkeypatch):
    # the tube's three echo runs of 101 taps sit at partition offsets 0, 96
    # and 188 of B = 652: span 289, so the engine transforms 960 points
    plant = build_experiment(ConfigFile.parse(
        resolve_config_path("acoustic_delay_task_40khz"))).system
    assert plant.w_aa.nonzero_lags()[0] == 652
    rng, n = np.random.default_rng(74), 12 * 652 + 5
    s = Signal(rng.standard_normal((1, n)), plant.dt)
    e_o = Signal(rng.standard_normal((1, n)), plant.dt)
    lengths = transform_lengths(monkeypatch)
    tr = forward(plant, s)
    bw = backward(plant, tr, e_o)
    assert lengths == [960, 960]
    monkeypatch.setattr(system_mod, "_FFT_MIN_FEEDBACK_MACS", np.inf)
    tr_d = forward(plant, s)
    bw_d = backward(plant, tr_d, e_o)
    assert lengths == [960, 960]  # the direct path makes no transform
    np.testing.assert_array_equal(tr.jac, tr_d.jac)
    for fast, slow in ((tr.a, tr_d.a), (tr.o, tr_d.o), (bw.e_a, bw_d.e_a), (bw.e_s, bw_d.e_s)):
        np.testing.assert_allclose(fast.samples, slow.samples, rtol=0,
                                   atol=1e-12 * np.max(np.abs(slow.samples)))


def test_bundled_plants_take_their_path(monkeypatch):
    # acoustic configs: one recursion on s + a and no open W_sa product either
    # way; the optical plant's W_sa is no W_aa and keeps both open products
    seen = []

    def spy(fn, tag):
        def call(*args, **kwargs):
            seen.append((tag, args[0]))
            return fn(*args, **kwargs)
        return call

    for name in ("_causal_feedback", "convolve", "adjoint_convolve"):
        monkeypatch.setattr(system_mod, name, spy(getattr(system_mod, name), name))
    for name in bundled_config_names():
        cfg = ConfigFile.parse(resolve_config_path(name))
        plant = build_experiment(cfg).system
        seen.clear()
        n = 2 * plant.w_aa.length
        s = Signal(np.random.default_rng(0).standard_normal((plant.n_inputs, n)), plant.dt)
        tr = forward(plant, s, np.random.default_rng(1))
        backward(plant, tr, Signal(np.ones((plant.n_outputs, n)), plant.dt),
                 np.random.default_rng(2))
        recursions = [tag for tag, _ in seen if tag == "_causal_feedback"]
        open_sa = [tag for tag, kern in seen if tag != "_causal_feedback" and kern is plant.w_sa]
        acoustic = cfg.values["plant.kind"][0] == "acoustic"
        assert (len(recursions), open_sa) == (2, [] if acoustic else
                                              ["convolve", "adjoint_convolve"])
        # open products run one product per live lag; a scalar kernel with
        # several live lags would pay that per tap where an FFT would not
        dense = [(tag, kern.nonzero_lags().size) for tag, kern in seen
                 if tag != "_causal_feedback" and kern.rows == kern.cols == 1
                 and kern.nonzero_lags().size > 1]
        assert dense == [], name


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
