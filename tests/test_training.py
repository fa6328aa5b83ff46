import copy
import platform
from dataclasses import replace

import numpy as np
import pytest

from echotrain.cli import ConfigFile, build_experiment, resolve_config_path
from echotrain.errors import ConfigurationError
from echotrain.gradients import (
    KERNEL_BLOCKS,
    MASK_BLOCKS,
    GradCheckConfig,
    kernel_gradients,
    pipeline_gradients,
    random_toy_pipeline,
    relative_error,
)
from echotrain.masking import (
    MaskSet,
    decode_outputs,
    encode_inputs,
    encode_output_errors,
    init_masks,
)
from echotrain.models import OpticalParams, make_optical_system
from echotrain.signal import Kernel
from echotrain.system import Nonlinearity, PhysicalSystem, backward, forward
from echotrain.training import (
    TrainConfig,
    _batch_gradients,
    apply_update,
    delayed_copy_task,
    mse_cost,
    normalize_gradient,
    softmax_ce_cost,
    synthetic_label_task,
    train,
    variable_delay_task,
    window_means,
)

from oracles import fd_gradient, rel_err


def test_mse_cost_examples():
    pred = np.array([[1.0], [2.0]])
    mask = np.array([True, True])
    cost, errs = mse_cost(pred, pred, mask)
    assert cost == 0.0 and np.all(errs == 0.0)

    pred = np.array([[3.0]])
    target = np.array([[1.0]])
    cost, errs = mse_cost(pred, target, np.array([True]))
    assert cost == 2.0
    np.testing.assert_array_equal(errs, [[2.0]])


def test_mse_cost_errs_match_fd():
    rng = np.random.default_rng(0)
    pred = rng.standard_normal((6, 2))
    target = rng.standard_normal((6, 2))
    mask = np.array([True, True, False, True, True, True])
    _, errs = mse_cost(pred, target, mask)
    fd = fd_gradient(lambda p: mse_cost(p.reshape(6, 2), target, mask)[0],
                     pred.ravel(), eps=1e-6)
    assert rel_err(errs.ravel(), fd) < 1e-8


def test_softmax_ce_examples():
    K = 5
    logits = np.zeros((3, K))
    onehot = np.eye(K)[:3]
    mask = np.ones(3, dtype=bool)
    cost, errs = softmax_ce_cost(logits, onehot, mask)
    assert cost == pytest.approx(np.log(K), rel=1e-12)
    np.testing.assert_allclose(errs.sum(axis=1), 0.0, atol=1e-15)


def test_softmax_ce_errs_match_fd():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((5, 3))
    onehot = np.eye(3)[rng.integers(0, 3, 5)]
    mask = np.array([True, False, True, True, True])
    _, errs = softmax_ce_cost(logits, onehot, mask)
    fd = fd_gradient(lambda p: softmax_ce_cost(p.reshape(5, 3), onehot, mask)[0],
                     logits.ravel(), eps=1e-6)
    assert rel_err(errs.ravel(), fd) < 1e-6


def test_normalize_gradient_examples():
    np.testing.assert_allclose(normalize_gradient(np.array([3.0, 4.0])), [0.6, 0.8])
    z = normalize_gradient(np.zeros((2, 2)))
    assert np.all(z == 0.0)
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 4, 5))
    assert np.linalg.norm(normalize_gradient(g)) == pytest.approx(1.0, rel=1e-12)


def identity_delay_plant(P, dt=1.0):
    """Identity plant whose kernel delays the input by one mask period, so a
    one-instance-delayed copy is exactly representable by the masks."""
    taps = np.zeros((P + 1, 1, 1))
    taps[P, 0, 0] = 1.0 / dt
    return PhysicalSystem(
        w_sa=Kernel(taps, dt),
        w_aa=Kernel.zero(1, 1, dt),
        w_so=Kernel.zero(1, 1, dt),
        w_ao=Kernel.delta(np.eye(1), dt),
        f=Nonlinearity.identity(),
    )


def zero_mask_template(P, dt=1.0):
    return MaskSet(m=np.zeros((1, 1, P)), u=np.zeros((1, 1, P)),
                   s_b=np.zeros((1, P)), y_b=np.zeros(1), period=P, dt=dt)


def test_lr0_zero_keeps_parameters():
    P = 6
    sys = identity_delay_plant(P)
    cfg = TrainConfig(iterations=5, batch_len=10, lr0=0.0, seed=3)
    rng = np.random.default_rng(3)
    log, sys2, masks2 = train(sys, zero_mask_template(P), delayed_copy_task(), cfg, rng)
    # masks are freshly initialized then never moved
    ref = np.random.default_rng(3)
    from echotrain.masking import init_masks
    data_rng_burn = None
    masks_ref = init_masks(1, 1, 1, 1, P, 1.0, cfg.init_std_input_mask,
                           cfg.init_std_output_mask, ref)
    np.testing.assert_array_equal(masks2.m, masks_ref.m)
    np.testing.assert_array_equal(masks2.u, masks_ref.u)
    np.testing.assert_array_equal(sys2.w_sa.taps, sys.w_sa.taps)


def test_identity_plant_learns_delayed_copy():
    # linear plant, delay inside the kernel support: mask SGD should reach
    # NRMSE < 0.1 within 500 iterations, and the trained input mask admits an
    # exact least-squares readout (closed-form oracle check)
    P = 8
    sys = identity_delay_plant(P)
    task = delayed_copy_task(1)
    cfg = TrainConfig(iterations=500, batch_len=50, lr0=0.25, seed=5,
                      trainable=("m", "u"))
    log, sys2, masks2 = train(sys, zero_mask_template(P), task, cfg)
    assert log.metrics[-1] < 0.1

    # oracle: with the trained input mask fixed, solve the output mask by
    # least squares on fresh data; the residual NRMSE is ~0 (task is linear)
    rng = np.random.default_rng(99)
    data = task.sample(300, rng)
    s = encode_inputs(data.inputs, masks2)
    o = forward(sys2, s).o
    segs = o.samples.reshape(1, 300, P).transpose(1, 0, 2).reshape(300, P)
    X = np.hstack([segs * o.dt, np.ones((300, 1))])
    valid = data.cost_mask
    sol, *_ = np.linalg.lstsq(X[valid], data.targets[valid, 0], rcond=None)
    resid = X[valid] @ sol - data.targets[valid, 0]
    assert np.sqrt(np.mean(resid**2)) / np.std(data.targets[valid, 0]) < 1e-6


def test_one_step_descends_on_fixed_batch():
    # noise off, small normalized step: cost on the same batch does not increase
    rng = np.random.default_rng(7)
    descended = 0
    for trial in range(20):
        cfg_toy = GradCheckConfig(n_systems=1)
        sys, masks, xs, targets = random_toy_pipeline(cfg_toy, rng)

        def batch_cost(sy, mk):
            ys = decode_outputs(forward(sy, encode_inputs(xs, mk)).o, mk)
            return 0.5 * float(np.sum((ys - targets) ** 2))

        bundle = pipeline_gradients(sys, masks, xs, targets)
        c0 = batch_cost(sys, masks)
        from echotrain.training import apply_update
        cfg = TrainConfig(iterations=1, lr0=1.0, trainable=tuple(
            n for n, _ in bundle.items()))
        sys2, masks2 = apply_update(sys, masks, bundle, 1e-4, cfg)
        c1 = batch_cost(sys2, masks2)
        assert c1 <= c0 + 1e-12
        descended += int(c1 < c0)
    assert descended >= 19  # strictly lower except exact-zero-gradient corner cases


def test_error_scale_invariance_after_normalization():
    # gradients from e_o and 100 e_o normalize to the same update direction
    rng = np.random.default_rng(8)
    cfg_toy = GradCheckConfig(n_systems=1)
    sys, masks, xs, targets = random_toy_pipeline(cfg_toy, rng)
    g1 = pipeline_gradients(sys, masks, xs, targets)
    g2 = pipeline_gradients(sys, masks, xs, 0.0 * targets)  # errs scale freely
    # direct check on the backward linearity: scale errs by hand
    from echotrain.masking import encode_output_errors, input_mask_gradient
    from echotrain.system import backward

    s = encode_inputs(xs, masks)
    tr = forward(sys, s)
    ys = decode_outputs(tr.o, masks)
    errs = ys - targets
    for c in (1.0, 100.0):
        e_o = encode_output_errors(c * errs, masks)
        bw = backward(sys, tr, e_o)
        dm, _ = input_mask_gradient(bw.e_s, xs)
        if c == 1.0:
            ref = normalize_gradient(dm)
        else:
            got = normalize_gradient(dm)
    assert relative_error(ref, got) < 1e-10


def test_train_determinism_same_seed():
    P = 6
    sys = identity_delay_plant(P)
    task = variable_delay_task()
    cfg = TrainConfig(iterations=20, batch_len=30, lr0=0.25, seed=11)
    log1, _, m1 = train(sys, zero_mask_template(P), task, cfg)
    log2, _, m2 = train(sys, zero_mask_template(P), task, cfg)
    assert np.array_equal(log1.costs, log2.costs)
    assert np.array_equal(log1.metrics, log2.metrics, equal_nan=True)
    np.testing.assert_array_equal(m1.m, m2.m)
    np.testing.assert_array_equal(m1.u, m2.u)


def test_training_log_csv(tmp_path):
    from echotrain.training import TrainingLog

    log = TrainingLog()
    log.append(0, 1.5, 0.9, 0.25, 0.1)
    log.append(1, 1.2, 0.8, 0.24, 0.2)
    p1 = tmp_path / "log.csv"
    log.to_csv(p1)
    text = p1.read_text().splitlines()
    assert text[0] == "iter,cost,metric,lr"
    assert len(text) == 3
    p2 = tmp_path / "timing.csv"
    log.to_csv(p2, include_seconds=True)
    assert p2.read_text().splitlines()[0] == "iter,cost,metric,lr,seconds"


def test_window_means():
    v = np.arange(10.0)
    np.testing.assert_array_equal(window_means(v, 5), [2.0, 7.0])
    assert len(window_means(v, 3)) == 3


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(iterations=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(trainable=("m", "nope"))
    with pytest.raises(ConfigurationError):
        TrainConfig(noise_repeats=0)
    for bad in (0, -5):
        with pytest.raises(ConfigurationError, match="batch_len"):
            TrainConfig(batch_len=bad)


def test_delayed_copy_rejects_a_negative_delay():
    with pytest.raises(ConfigurationError, match="delay >= 0"):
        delayed_copy_task(-2)
    assert delayed_copy_task(0).sample(5, np.random.default_rng(0)).cost_mask.all()


def test_optical_weight_projection_during_training():
    from echotrain.models import OpticalParams, make_optical_system

    p = OpticalParams(n_nodes=3, delay_samples=2)
    rng = np.random.default_rng(12)
    W = np.full((3, 3), 1.99)
    sys = make_optical_system(p, W=W, noise=False)
    task = variable_delay_task()
    # dims: task is scalar but plant has 3 channels; masks adapt
    template = MaskSet(m=np.zeros((3, 1, 4)), u=np.zeros((1, 3, 4)),
                       s_b=np.zeros((3, 4)), y_b=np.zeros(1), period=4, dt=1.0)
    cfg = TrainConfig(iterations=8, batch_len=16, lr0=0.5, seed=13,
                      trainable=("m", "u", "w_aa"), w_aa_gain_bound=2.0)
    _, sys2, _ = train(sys, template, task, cfg)
    gains = sys2.w_aa.taps * sys2.dt
    assert np.max(np.abs(gains)) <= 2.0 + 1e-12
    assert np.all(sys2.w_aa.taps[0] == 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_raises_with_log_intact():
    from echotrain.errors import DivergenceError

    # identity feedback with gain 10 explodes within ~100 samples; the trace
    # constructor's finiteness check (kept on the no-copy internal path)
    # surfaces it as a DivergenceError carrying the log
    dt = 1.0
    aa = np.zeros((2, 1, 1))
    aa[1, 0, 0] = 10.0
    sys = PhysicalSystem(
        w_sa=Kernel.delta(np.eye(1), dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel.zero(1, 1, dt),
        w_ao=Kernel.delta(np.eye(1), dt),
        f=Nonlinearity.identity(),
    )
    cfg = TrainConfig(iterations=5, batch_len=20, lr0=0.25, seed=1)
    with pytest.raises(DivergenceError, match="iteration 0: .*non-finite") as excinfo:
        train(sys, zero_mask_template(10), variable_delay_task(), cfg)
    assert excinfo.value.log is not None


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_iterations_reuse_freed_memory():
    # once train() has run, a 40 kHz iteration (100 000-sample traces) maps no
    # fresh pages; with glibc's default trimming each one faults about 3500
    import resource

    exp = build_experiment(ConfigFile.parse(resolve_config_path("acoustic_delay_task_40khz")))
    cfg = replace(exp.train_cfg, iterations=2)
    train(exp.system, exp.template, exp.task, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(exp.system, exp.template, exp.task, cfg)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_batch_gradients_compute_live_lags_only():
    # the training pass asks for the tap gradient at the live lag alone; there
    # it is the very same product as the full computation, elsewhere zero
    p = OpticalParams(n_nodes=6, delay_samples=13, dt=1.0)
    system = make_optical_system(p, rng=np.random.default_rng(0))
    task = synthetic_label_task(n_classes=3, input_dim=4)
    masks = MaskSet(m=0.3 * np.ones((6, 4, 10)), u=0.2 * np.ones((3, 6, 10)),
                    s_b=np.zeros((6, 10)), y_b=np.zeros(3), period=10, dt=1.0)
    data = task.sample(40, np.random.default_rng(1))
    _, _, bundle = _batch_gradients(system, masks, task, data, ("w_aa", "m"),
                                    np.random.default_rng(2))

    rng = np.random.default_rng(2)  # the same noise draws, in the same order
    s = encode_inputs(data.inputs, masks)
    tr = forward(system, s, rng)
    _, errs = task.cost(decode_outputs(tr.o, masks), data)
    bw = backward(system, tr, encode_output_errors(errs, masks), rng)
    full = kernel_gradients(system, tr, bw, s)["w_aa"]

    live = system.w_aa.nonzero_lags()
    assert list(live) == [13]
    assert np.array_equal(bundle["w_aa"][live], full[live])
    assert np.any(full[:13] != 0.0)  # the structural lags do carry gradient...
    dead = np.ones(full.shape[0], dtype=bool)
    dead[live] = False
    assert np.all(bundle["w_aa"][dead] == 0.0)  # ...which training does not compute
    assert "w_sa" not in bundle and "u" not in bundle


def test_optical_iteration_memory_peak():
    # one optical_labels iteration holds each 20 x 10 000 trace once: the
    # traced peak stays below 17 MB (about ten such traces)
    import tracemalloc

    exp = build_experiment(ConfigFile.parse(resolve_config_path("optical_labels")))
    cfg = replace(exp.train_cfg, iterations=1)
    rng = np.random.default_rng(0)
    _, system, masks = train(exp.system, exp.template, exp.task, cfg, rng)  # warm-up
    tracemalloc.start()
    try:
        train(system, masks, exp.task, replace(cfg, init_masks=False), rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17e6, f"traced peak {peak / 1e6:.1f} MB"


def same_blocks(sys_a, masks_a, sys_b, masks_b):
    return (all(np.array_equal(getattr(sys_a, k).taps, getattr(sys_b, k).taps)
                for k in KERNEL_BLOCKS)
            and all(np.array_equal(getattr(masks_a, k), getattr(masks_b, k)) for k in MASK_BLOCKS))


@pytest.mark.parametrize("name", ["toy_delay_smoke", "optical_labels"])
def test_noise_free_repeats_train_as_one_measurement_bit_for_bit(name):
    # without noise both measurements of a batch give the same g: g + g
    # normalizes to g / |g| exactly, and the mean of two equal costs is the cost
    exp = build_experiment(ConfigFile.parse(resolve_config_path(name)))
    plant = replace(exp.system, noise=None)
    (log1, sys1, masks1), (log2, sys2, masks2) = (
        train(plant, exp.template, exp.task, replace(exp.train_cfg, iterations=10,
                                                     noise_repeats=repeats),
              np.random.default_rng(exp.seed)) for repeats in (1, 2))
    assert np.array_equal(log1.costs, log2.costs)
    assert np.array_equal(log1.metrics, log2.metrics)
    assert same_blocks(sys1, masks1, sys2, masks2)


def test_noisy_repeats_update_by_the_sum_of_measurements_drawn_in_turn():
    # one optical_labels iteration with noise_repeats = 2: the masks, then the
    # batch, then two noisy measurements of it, all from the one generator
    exp = build_experiment(ConfigFile.parse(resolve_config_path("optical_labels")))
    cfg = replace(exp.train_cfg, iterations=1, noise_repeats=2)
    assert exp.system.noise is not None and cfg.init_masks
    rng = np.random.default_rng(exp.seed)
    ref = copy.deepcopy(rng)
    log, system, masks = train(exp.system, exp.template, exp.task, cfg, rng)

    t = exp.template
    start = init_masks(t.n_in, exp.task.dim_x, t.n_out, exp.task.dim_y, t.period, t.dt,
                       cfg.init_std_input_mask, cfg.init_std_output_mask, ref)
    data = exp.task.sample(cfg.batch_len, ref)
    (c1, _, g1), (c2, _, g2) = (_batch_gradients(exp.system, start, exp.task, data,
                                                 cfg.trainable, ref) for _ in range(2))
    assert not np.array_equal(g1["m"], g2["m"])  # two measurements, two noise draws
    want = apply_update(exp.system, start, {k: g1[k] + g2[k] for k in g1}, cfg.lr(0), cfg)
    assert log.costs[0] == (c1 + c2) / 2
    assert same_blocks(system, masks, *want)
    assert rng.bit_generator.state == ref.bit_generator.state
