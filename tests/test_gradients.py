import numpy as np
import pytest

from echotrain.errors import NumericError
from echotrain.gradients import (
    ALL_BLOCKS,
    KERNEL_BLOCKS,
    OUTPUT_SIDE,
    GradCheckConfig,
    finite_difference_gradient,
    grad_check,
    kernel_gradients,
    pipeline_cost,
    pipeline_gradients,
    random_toy_pipeline,
    relative_error,
)
from echotrain.masking import decode_outputs, encode_inputs, encode_output_errors
from echotrain.signal import Kernel, Signal
from echotrain.system import Nonlinearity, PhysicalSystem, backward, forward

from oracles import fd_gradient, rel_err


def test_zero_error_gives_zero_kernel_gradients():
    rng = np.random.default_rng(0)
    dt = 0.2
    aa = 0.3 * rng.standard_normal((3, 2, 2))
    aa[0] = 0.0
    sys = PhysicalSystem(
        w_sa=Kernel(0.3 * rng.standard_normal((3, 2, 2)), dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel(0.3 * rng.standard_normal((3, 1, 2)), dt),
        w_ao=Kernel(0.3 * rng.standard_normal((3, 1, 2)), dt),
        f=Nonlinearity.rectifier(),
    )
    s = Signal(rng.standard_normal((2, 20)), dt)
    tr = forward(sys, s)
    bw = backward(sys, tr, Signal.zeros(1, 20, dt))
    g = kernel_gradients(sys, tr, bw, s)
    for name in ("w_sa", "w_aa", "w_so", "w_ao"):
        assert np.all(g[name] == 0.0)


def test_single_tap_identity_system_collapse():
    # dt = 1, single-tap w_so, no state path: d_w_so[0] = sum_i e_o[i] s[i]^T
    rng = np.random.default_rng(1)
    dt = 1.0
    sys = PhysicalSystem(
        w_sa=Kernel.zero(1, 2, dt),
        w_aa=Kernel.zero(1, 1, dt),
        w_so=Kernel(rng.standard_normal((1, 2, 2)), dt),
        w_ao=Kernel.zero(2, 1, dt),
        f=Nonlinearity.identity(),
    )
    s = Signal(rng.standard_normal((2, 15)), dt)
    tr = forward(sys, s)
    e_o = Signal(rng.standard_normal((2, 15)), dt)
    bw = backward(sys, tr, e_o)
    g = kernel_gradients(sys, tr, bw, s)
    np.testing.assert_allclose(g["w_so"][0], e_o.samples @ s.samples.T, rtol=1e-13)


def test_kernel_gradients_match_fd_on_random_system():
    rng = np.random.default_rng(2)
    cfg = GradCheckConfig(n_systems=1, kink_margin=1e-3)
    sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
    bundle = pipeline_gradients(sys, masks, xs, targets)
    for name in ("w_sa", "w_aa", "w_so", "w_ao"):
        kern = getattr(sys, name)
        lag0 = 1 if name == "w_aa" else 0  # tap 0 of w_aa is pinned to zero

        def loss(flat, _n=name, _full=kern.taps, _lag0=lag0):
            taps = _full.copy()
            taps[_lag0:] = flat.reshape(taps[_lag0:].shape)
            return pipeline_cost(sys.with_kernel(_n, taps), masks, xs, targets)

        fd = fd_gradient(loss, kern.taps[lag0:].ravel(), eps=1e-5)
        assert rel_err(bundle[name][lag0:].ravel(), fd) < 1e-5, name


def test_finite_difference_on_quadratic_and_linear():
    theta = np.array([1.0, -2.0, 3.5])
    g = finite_difference_gradient(lambda t: 0.5 * float(t @ t), theta, eps=1e-5)
    np.testing.assert_allclose(g, theta, atol=1e-9)

    c = np.array([2.0, 0.0, -1.0])
    g = finite_difference_gradient(lambda t: float(c @ t), theta, eps=1e-5)
    np.testing.assert_allclose(g, c, atol=1e-10)


def test_finite_difference_threads_match_serial():
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(12)
    A = rng.standard_normal((12, 12))

    def loss(t):
        return float(t @ A @ t)

    serial = finite_difference_gradient(loss, theta)
    parallel = finite_difference_gradient(loss, theta, threads=4)
    np.testing.assert_array_equal(serial, parallel)


def test_finite_difference_nonfinite_loss_raises():
    with pytest.raises(NumericError):
        finite_difference_gradient(lambda t: float("nan"), np.zeros(2))


def test_grad_check_identity_nonlinearity_very_tight():
    cfg = GradCheckConfig(n_systems=2, nonlinearities=("identity",))
    report = grad_check(cfg, seed=42)
    assert report.passed
    assert max(err for _, err, _ in report.entries) < 1e-8


def test_grad_check_rectifier_passes():
    cfg = GradCheckConfig(n_systems=3, nonlinearities=("rectifier",))
    report = grad_check(cfg, seed=7)
    assert report.passed
    assert max(err for _, err, _ in report.entries) < 1e-5


def test_grad_check_default_seed_4_draw_is_stable():
    # seed 4 once drew an exploding identity plant (cost ~5e21) on which
    # central differences failed; the loop-gain bound keeps it stable
    assert grad_check(GradCheckConfig(n_systems=1), 4).passed


def test_toy_draws_bound_the_loop_gain():
    cfg = GradCheckConfig()
    rng = np.random.default_rng(0)
    for _ in range(20):
        sys, _, _, _ = random_toy_pipeline(cfg, rng)
        gain = sys.dt * np.sum(np.linalg.norm(sys.w_aa.taps, ord=2, axis=(1, 2)))
        assert gain <= 0.9 + 1e-12


def test_grad_check_broken_adjoint_fails():
    cfg = GradCheckConfig(n_systems=2)
    report = grad_check(cfg, seed=11, break_adjoint=True)
    assert not report.passed


def test_cost_from_the_recorded_state_is_the_full_forward_cost_bit_for_bit():
    cfg = GradCheckConfig()
    rng = np.random.default_rng(5)
    for _ in range(10):
        sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
        a = forward(sys, encode_inputs(xs, masks)).a
        assert pipeline_cost(sys, masks, xs, targets, a) == pipeline_cost(sys, masks, xs, targets)
        # an output-side change keeps the state: w_so, w_ao, u and y_b all moved
        moved = sys.with_kernel("w_so", 1.5 * sys.w_so.taps).with_kernel(
            "w_ao", sys.w_ao.taps - 0.1)
        masks2 = masks.replace(u=-masks.u, y_b=masks.y_b + 0.2)
        assert (pipeline_cost(moved, masks2, xs, targets, a)
                == pipeline_cost(moved, masks2, xs, targets))


@pytest.mark.parametrize("seed", range(20))
def test_output_side_probes_on_the_recorded_state_equal_full_forward_ones(seed):
    # the first toy grad_check(GradCheckConfig(), seed) audits
    cfg = GradCheckConfig()
    sys, masks, xs, targets = random_toy_pipeline(cfg, np.random.default_rng(seed))
    a = forward(sys, encode_inputs(xs, masks)).a
    for name in OUTPUT_SIDE:
        if name in KERNEL_BLOCKS:
            ref = getattr(sys, name).taps

            def loss(flat, state, _name=name, _shape=ref.shape):
                return pipeline_cost(sys.with_kernel(_name, flat.reshape(_shape)),
                                     masks, xs, targets, state)
        else:
            ref = getattr(masks, name)

            def loss(flat, state, _name=name, _shape=ref.shape):
                return pipeline_cost(sys, masks.replace(**{_name: flat.reshape(_shape)}),
                                     xs, targets, state)

        reused = finite_difference_gradient(lambda t: loss(t, a), ref.ravel(), cfg.eps)
        full = finite_difference_gradient(lambda t: loss(t, None), ref.ravel(), cfg.eps)
        np.testing.assert_array_equal(reused, full)


def test_report_csv_roundtrip(tmp_path):
    # the format gradcheck --out writes: a header, then one row per block that
    # parses back to its entry
    cfg = GradCheckConfig(n_systems=1, nonlinearities=("identity",))
    report = grad_check(cfg, seed=3)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    header, *rows = path.read_text().splitlines()
    assert header == "block,max_rel_err,pass"
    parsed = [(block, float(err), bool(int(ok)))
              for block, err, ok in (row.split(",") for row in rows)]
    assert parsed == report.entries
    assert [block for block, _, _ in parsed] == list(ALL_BLOCKS)


def test_batch_gradient_linearity():
    # gradient of a summed cost == sum of per-instance-cost gradients
    rng = np.random.default_rng(4)
    cfg = GradCheckConfig(n_systems=1, instances=4, nonlinearities=("identity",))
    sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
    # batch encoded jointly vs instances encoded alone: feedback spans segment
    # boundaries, so compare through per-instance error masking instead
    full = pipeline_gradients(sys, masks, xs, targets)
    acc = None
    s = None
    from echotrain.masking import (decode_outputs, encode_inputs,
                                   encode_output_errors, input_mask_gradient,
                                   output_mask_gradient)

    s = encode_inputs(xs, masks)
    tr = forward(sys, s)
    ys = decode_outputs(tr.o, masks)
    for i in range(len(xs)):
        errs = np.zeros_like(ys)
        errs[i] = ys[i] - targets[i]
        e_o = encode_output_errors(errs, masks)
        bw = backward(sys, tr, e_o)
        g = kernel_gradients(sys, tr, bw, s)
        g["m"], g["s_b"] = input_mask_gradient(bw.e_s, xs)
        g["u"], g["y_b"] = output_mask_gradient(errs, tr.o)
        acc = g if acc is None else {k: acc[k] + v for k, v in g.items()}
    for name, arr in full.items():
        assert relative_error(arr, acc[name]) < 1e-12, name


def test_kernel_gradients_lag_restriction():
    # a dict of lags computes only those lags, each the same product as the
    # full computation; kernel names alone still give every lag
    rng = np.random.default_rng(5)
    cfg = GradCheckConfig(n_systems=1, kernel_len=6)
    sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
    s = encode_inputs(xs, masks)
    tr = forward(sys, s)
    errs = decode_outputs(tr.o, masks) - targets
    bw = backward(sys, tr, encode_output_errors(errs, masks))
    full = kernel_gradients(sys, tr, bw, s)
    assert all(name in full for name in KERNEL_BLOCKS)
    part = kernel_gradients(sys, tr, bw, s, blocks={"w_sa": np.array([1, 4]),
                                                    "w_aa": np.array([0, 2]),
                                                    "w_ao": np.array([], dtype=int)})
    assert "w_so" not in part
    for name, lags in (("w_sa", [1, 4]), ("w_aa", [2]), ("w_ao", [])):
        got, want = part[name], full[name]
        assert got.shape == want.shape
        assert np.array_equal(got[lags], want[lags])
        rest = np.setdiff1d(np.arange(want.shape[0]), lags)
        assert np.all(got[rest] == 0.0)
