import numpy as np
import pytest

from echotrain.gradients import kernel_gradients, relative_error
from echotrain.reductions import (
    DenseNet,
    DenseRNN,
    _dense_mlp_reference,
    build_mlp_system,
    build_rnn_system,
    mlp_settled_output,
    rnn_input_signal,
    rnn_state_trajectory,
)
from echotrain.signal import Kernel, Signal
from echotrain.system import Nonlinearity, backward, forward

from oracles import dense_mlp_forward, dense_rnn_bptt, dense_rnn_forward


def relu(x):
    return np.maximum(0.0, x)


def test_single_hidden_layer_identity_is_matrix_product():
    rng = np.random.default_rng(0)
    W0 = rng.standard_normal((4, 3))
    W1 = rng.standard_normal((2, 4))
    net = DenseNet((W0, W1), Nonlinearity.identity())
    x = rng.standard_normal(3)
    out = mlp_settled_output(net, x)
    np.testing.assert_allclose(out, W1 @ W0 @ x, rtol=1e-12, atol=1e-13)


def test_three_layer_rectifier_matches_dense_oracle():
    rng = np.random.default_rng(1)
    sizes = [3, 5, 4, 3, 2]
    ws = [rng.standard_normal((sizes[i + 1], sizes[i])) for i in range(4)]
    net = DenseNet(tuple(ws), Nonlinearity.rectifier())
    x = rng.standard_normal(3)
    out = mlp_settled_output(net, x)
    expect = dense_mlp_forward(ws, relu, x)
    assert np.max(np.abs(out - expect)) < 1e-10


def test_mlp_settling_time_by_perturbation():
    # depth L: a step change in the held input reaches the output exactly at
    # sample i0 + L (settled after L+1 samples including the step sample)
    rng = np.random.default_rng(2)
    L = 3
    sizes = [2, 3, 3, 3, 2]
    ws = [rng.standard_normal((sizes[i + 1], sizes[i])) for i in range(L + 1)]
    net = DenseNet(tuple(ws), Nonlinearity.identity())
    sys = build_mlp_system(net)
    n, i0 = 12, 5
    x0, x1 = rng.standard_normal(2), rng.standard_normal(2)
    s = np.tile(x0[:, None], (1, n))
    s[:, i0:] = x1[:, None]
    tr = forward(sys, Signal(s, 1.0))
    base = forward(sys, Signal(np.tile(x0[:, None], (1, n)), 1.0))
    diff = np.flatnonzero(np.any(tr.o.samples != base.o.samples, axis=0))
    assert diff[0] == i0 + L
    np.testing.assert_allclose(tr.o.samples[:, -1], _dense_mlp_reference(net.weights, net.activation, x1),
                               rtol=1e-12)


def test_mlp_forward_equivalence_many_instances():
    rng = np.random.default_rng(3)
    for _ in range(10):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 6)) for _ in range(depth + 2)]
        ws = [rng.standard_normal((sizes[i + 1], sizes[i])) for i in range(depth + 1)]
        kind = rng.choice(["rectifier", "identity"])
        net = DenseNet(tuple(ws), Nonlinearity(kind))
        x = rng.standard_normal(sizes[0])
        act = relu if kind == "rectifier" else (lambda v: v)
        expect = dense_mlp_forward(ws, act, x)
        assert np.max(np.abs(mlp_settled_output(net, x) - expect)) < 1e-10


def test_rnn_without_feedback_is_per_step_map():
    rng = np.random.default_rng(4)
    rnn = DenseRNN(rng.standard_normal((3, 2)), np.zeros((3, 3)),
                   rng.standard_normal((2, 3)), Nonlinearity.rectifier())
    xs = rng.standard_normal((7, 2))
    _, os_ = rnn_state_trajectory(rnn, xs)
    for k, x in enumerate(xs):
        np.testing.assert_allclose(os_[k], rnn.w_o @ relu(rnn.w_s @ x), rtol=1e-12)


@pytest.mark.parametrize("period", [1, 3])
def test_rnn_trajectory_matches_dense_oracle(period):
    rng = np.random.default_rng(5)
    n_units, dim = 4, 2
    rnn = DenseRNN(rng.standard_normal((n_units, dim)),
                   0.6 * rng.standard_normal((n_units, n_units)),
                   rng.standard_normal((2, n_units)),
                   Nonlinearity.rectifier(), period=period)
    xs = rng.standard_normal((30, dim))
    states, outputs = rnn_state_trajectory(rnn, xs)
    hs, os_ = dense_rnn_forward(rnn.w_s, rnn.w_a, rnn.w_o, relu, xs)
    assert np.max(np.abs(states - hs)) < 1e-10
    assert np.max(np.abs(outputs - os_)) < 1e-10


def rnn_physical_bptt(rnn, xs, targets, dt=1.0):
    """Physical-backprop gradients of 0.5 sum_k |o_k - t_k|^2 via the plant."""
    sys = build_rnn_system(rnn, dt)
    s = rnn_input_signal(rnn, xs, dt)
    tr = forward(sys, s)
    P = rnn.period
    idx = np.arange(len(xs)) * P
    # density convention: e_o[sample] = (dC/do[sample]) / dt
    e = np.zeros_like(tr.o.samples)
    e[:, idx] = (tr.o.samples[:, idx] - np.asarray(targets).T) / dt
    bw = backward(sys, tr, Signal(e, dt))
    g = kernel_gradients(sys, tr, bw, s)
    # tap gradient -> dense weight gradient: tap = W/dt, so dW = d_tap/dt
    return (g.d_w_sa[0] / dt, g.d_w_aa[P] / dt, g.d_w_ao[0] / dt)


def test_rnn_bptt_gradients_match_dense_oracle():
    rng = np.random.default_rng(6)
    n_units, dim, T = 4, 2, 12
    rnn = DenseRNN(rng.standard_normal((n_units, dim)),
                   0.5 * rng.standard_normal((n_units, n_units)),
                   rng.standard_normal((2, n_units)),
                   Nonlinearity.rectifier(), period=1)
    xs = rng.standard_normal((T, dim))
    targets = rng.standard_normal((T, 2))
    dW_s, dW_a, dW_o = rnn_physical_bptt(rnn, xs, targets)

    hs, os_ = dense_rnn_forward(rnn.w_s, rnn.w_a, rnn.w_o, relu, xs)
    e_os = os_ - targets
    act_jac = (hs > 0).astype(float)
    eW_s, eW_a, eW_o = dense_rnn_bptt(rnn.w_s, rnn.w_a, rnn.w_o, act_jac, xs, e_os, hs)
    assert relative_error(dW_s, eW_s) < 1e-8
    assert relative_error(dW_a, eW_a) < 1e-8
    assert relative_error(dW_o, eW_o) < 1e-8


def test_rnn_gradients_with_nonunit_dt_and_period():
    # the dt bookkeeping (tap = W/dt, density errors) must cancel exactly
    rng = np.random.default_rng(7)
    rnn = DenseRNN(rng.standard_normal((3, 2)),
                   0.5 * rng.standard_normal((3, 3)),
                   rng.standard_normal((1, 3)),
                   Nonlinearity.rectifier(), period=2)
    xs = rng.standard_normal((8, 2))
    targets = rng.standard_normal((8, 1))
    dW_s, dW_a, dW_o = rnn_physical_bptt(rnn, xs, targets, dt=0.25)
    hs, os_ = dense_rnn_forward(rnn.w_s, rnn.w_a, rnn.w_o, relu, xs)
    act_jac = (hs > 0).astype(float)
    eW_s, eW_a, eW_o = dense_rnn_bptt(rnn.w_s, rnn.w_a, rnn.w_o, act_jac, xs,
                                      os_ - targets, hs)
    assert relative_error(dW_s, eW_s) < 1e-8
    assert relative_error(dW_a, eW_a) < 1e-8
    assert relative_error(dW_o, eW_o) < 1e-8


def test_equivalence_survives_inert_zero_taps():
    rng = np.random.default_rng(8)
    rnn = DenseRNN(rng.standard_normal((3, 2)),
                   0.5 * rng.standard_normal((3, 3)),
                   rng.standard_normal((2, 3)),
                   Nonlinearity.rectifier())
    xs = rng.standard_normal((10, 2))
    sys = build_rnn_system(rnn)

    def padded(kern, extra):
        taps = np.concatenate([kern.taps, np.zeros((extra, kern.rows, kern.cols))])
        return Kernel(taps, kern.dt)

    from echotrain.system import PhysicalSystem

    sys_pad = PhysicalSystem(
        w_sa=padded(sys.w_sa, 3), w_aa=padded(sys.w_aa, 3),
        w_so=padded(sys.w_so, 3), w_ao=padded(sys.w_ao, 3), f=sys.f)
    s = rnn_input_signal(rnn, xs)
    t1 = forward(sys, s)
    t2 = forward(sys_pad, s)
    np.testing.assert_array_equal(t1.a.samples, t2.a.samples)
    np.testing.assert_array_equal(t1.o.samples, t2.o.samples)
