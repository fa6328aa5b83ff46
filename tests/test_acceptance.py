"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to watch) and enforcing its runtime budget.

The two end-to-end training criteria (4, 5) carry the `slow` marker; their
four bundled runs start at the session's first test, in one pool of two worker
processes at a lower scheduling priority (tests/conftest.py), and the two
tests run last.  Each budget counts from the runs' submit to their children's
exit.  The full suite including them is the shipping gate.
"""

import time

import numpy as np
import pytest
from scipy.stats import binomtest

from echotrain.cli import main as cli_main
from echotrain.gradients import (
    GradCheckConfig,
    grad_check,
    random_toy_pipeline,
    relative_error,
)
from echotrain.masking import (
    MaskSet,
    decode_outputs,
    encode_inputs,
    encode_output_errors,
    input_mask_gradient,
)
from echotrain.models import OpticalParams, make_optical_system, random_optical_weights
from echotrain.serialize import load_system
from echotrain.signal import Kernel, Signal, adjoint_convolve, convolve, inner
from echotrain.system import backward, forward
from echotrain.training import (
    normalize_gradient,
    synthetic_label_task,
    window_means,
)

from test_reductions import mlp_reduction_error, rnn_reduction_errors


def report(n, name, ok, detail=""):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def test_criterion_1_adjoint_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240601)
    worst = 0.0
    for _ in range(1000):
        rows, cols = rng.integers(1, 6, size=2)
        L = int(rng.integers(1, 10))
        n = int(rng.integers(1, 60))
        dt = float(rng.uniform(0.01, 2.0))
        k = Kernel(rng.standard_normal((L, rows, cols)), dt)
        x = Signal(rng.standard_normal((cols, n)), dt)
        y = Signal(rng.standard_normal((rows, n)), dt)
        lhs = inner(convolve(k, x), y)
        rhs = inner(x, adjoint_convolve(k, y))
        denom = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / denom)
    elapsed = time.perf_counter() - t0
    report(1, "adjoint identity (1000 pairs)",
           worst < 1e-10 and elapsed < 10.0,
           f"max_rel_err={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_2_gradient_oracle_suite():
    t0 = time.perf_counter()
    cfg = GradCheckConfig(n_systems=20)
    rep = grad_check(cfg, seed=20240602)
    elapsed = time.perf_counter() - t0
    worst = max(err for _, err, _ in rep.entries)
    report(2, "gradient oracle (8 blocks, 20 systems)",
           rep.passed and elapsed < 120.0,
           f"max_rel_err={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_3_reduction_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240603)
    mlp_err = mlp_reduction_error(50, rng)
    fwd_err, grad_err = rnn_reduction_errors(50, rng)
    elapsed = time.perf_counter() - t0
    ok = mlp_err < 1e-8 and fwd_err < 1e-8 and grad_err < 1e-8 and elapsed < 60.0
    report(3, "MLP/RNN reduction equivalence (50 each)", ok,
           f"mlp={mlp_err:.1e} rnn_fwd={fwd_err:.1e} rnn_grad={grad_err:.1e} "
           f"elapsed={elapsed:.1f}s")


def read_log_metrics(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,cost,metric,lr"
    return np.array([float(ln.split(",")[2]) for ln in lines[1:]])


def read_final_metric(path):
    for line in path.read_text().splitlines():
        if line.startswith("final_metric="):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"no final_metric in {path}")


def finished(runs):
    """(config name -> output dir, seconds from submit until the last of the
    runs exited) of a test's bundled runs (conftest.bundled_runs)."""
    done = {name: run.result() for name, run in runs.items()}
    return ({name: out for name, (out, _) in done.items()},
            max(seconds for _, seconds in done.values()))


@pytest.mark.slow
def test_criterion_4_acoustic_delay_reproduction(bundled_runs):
    outs, elapsed = finished(bundled_runs["test_criterion_4_acoustic_delay_reproduction"])

    full = read_final_metric(outs["acoustic_delay_task"] / "summary.txt")
    m_in = read_final_metric(outs["acoustic_delay_input_only"] / "summary.txt")
    m_out = read_final_metric(outs["acoustic_delay_output_only"] / "summary.txt")

    # every run's trend improves over 200-iteration windows
    trends_ok = True
    for name, out in outs.items():
        wm = window_means(read_log_metrics(out / "log.csv"), 200)
        trends_ok = trends_ok and wm[-1] < wm[0]

    ok = (full <= 0.35 and m_in <= 0.6 and full < m_in and full < m_out
          and trends_ok and elapsed < 900.0)
    report(4, "acoustic delay task (desk scale)", ok,
           f"full={full:.3f} input_only={m_in:.3f} output_only={m_out:.3f} "
           f"trends_ok={trends_ok} elapsed={elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_5_optical_plant_properties(bundled_runs):
    outs, run_s = finished(bundled_runs["test_criterion_5_optical_plant_properties"])
    t0 = time.perf_counter()
    out = outs["optical_labels"]
    metrics = read_log_metrics(out / "log.csv")
    wm = window_means(metrics, 200)
    monotone = bool(np.all(np.diff(wm) <= 1e-12))

    # reload the trained plant from its archive and test on fresh data
    system, masks = load_system(out / "system.txt")
    task = synthetic_label_task(n_classes=4, input_dim=8, window=3)
    data = task.sample(600, np.random.default_rng(777))
    s = encode_inputs(data.inputs, masks)
    tr = forward(system, s, np.random.default_rng(778))
    ys = decode_outputs(tr.o, masks)
    pred = np.argmax(ys, axis=1)
    true = np.argmax(data.targets, axis=1)
    m = int(data.cost_mask.sum())
    k = int(np.sum(pred[data.cost_mask] != true[data.cost_mask]))
    fer = k / m
    pval = binomtest(k, m, 1.0 - 1.0 / 4.0, alternative="less").pvalue
    elapsed = run_s + time.perf_counter() - t0

    ok = pval < 0.01 and monotone and elapsed < 1200.0
    report(5, "optical plant training properties", ok,
           f"fer={fer:.3f} (chance 0.75) p={pval:.1e} "
           f"windows={np.array2string(wm, precision=3)} elapsed={elapsed:.0f}s")


def test_criterion_6_noise_averaging_law():
    t0 = time.perf_counter()
    p = OpticalParams(n_nodes=4, delay_samples=6, snr_db=18.0,
                      backward_clip=False, backward_error_scale=1.0,
                      backward_normalize_peak=None)
    rng = np.random.default_rng(20240606)
    W = random_optical_weights(p, rng, scale=0.6)
    system = make_optical_system(p, W=W, noise=True)
    period, n_inst, dim_x, dim_y = 12, 10, 2, 2
    masks = MaskSet(m=0.2 * rng.standard_normal((4, dim_x, period)),
                    u=rng.standard_normal((dim_y, 4, period)),
                    s_b=np.zeros((4, period)), y_b=np.zeros(dim_y),
                    period=period, dt=1.0)
    xs = rng.standard_normal((n_inst, dim_x))
    targets = 0.2 * rng.standard_normal((n_inst, dim_y))
    s = encode_inputs(xs, masks)

    def one_noisy_gradient(noise_rng):
        tr = forward(system, s, noise_rng)
        ys = decode_outputs(tr.o, masks)
        e_o = encode_output_errors(ys - targets, masks)
        bw = backward(system, tr, e_o, noise_rng)
        dm, _ = input_mask_gradient(bw.e_s, xs)
        return dm.ravel()

    trials = 80
    variances = {}
    noise_rng = np.random.default_rng(20240607)
    for R in (1, 4, 16, 64):
        ests = np.array([
            np.mean([one_noisy_gradient(noise_rng) for _ in range(R)], axis=0)
            for _ in range(trials)])
        variances[R] = float(np.sum(np.var(ests, axis=0, ddof=1)))
    ratios = {R: variances[1] / (R * variances[R]) for R in (4, 16, 64)}
    elapsed = time.perf_counter() - t0
    ok = all(1.0 / 1.5 <= r <= 1.5 for r in ratios.values()) and elapsed < 300.0
    report(6, "noise averaging follows 1/R",
           ok,
           "V1/(R*VR)=" + ", ".join(f"{R}:{r:.2f}" for R, r in ratios.items())
           + f" elapsed={elapsed:.0f}s")


def test_criterion_7_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["run", "--config", "toy_delay_smoke", "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", "toy_delay_smoke", "--out", str(out2)]) == 0
    same = (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()
    report(7, "same seed, byte-identical log.csv", same)


def test_criterion_8_error_scale_invariance():
    rng = np.random.default_rng(20240608)
    cfg = GradCheckConfig(n_systems=1)
    sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
    s = encode_inputs(xs, masks)
    tr = forward(sys, s)
    ys = decode_outputs(tr.o, masks)
    errs = ys - targets
    worst = 0.0
    grads_ref = None
    for c in (1.0, 100.0):
        e_o = encode_output_errors(c * errs, masks)
        bw = backward(sys, tr, e_o)
        from echotrain.gradients import kernel_gradients
        from echotrain.masking import output_mask_gradient

        bundle = kernel_gradients(sys, tr, bw, s)
        bundle["m"], bundle["s_b"] = input_mask_gradient(bw.e_s, xs)
        bundle["u"], bundle["y_b"] = (c * g for g in output_mask_gradient(errs, tr.o))
        normed = {name: normalize_gradient(g) for name, g in bundle.items()}
        if grads_ref is None:
            grads_ref = normed
        else:
            worst = max(relative_error(grads_ref[name], normed[name])
                        for name in normed)
    report(8, "error-scale invariance after normalization",
           worst < 1e-10, f"max_rel_err={worst:.2e}")
