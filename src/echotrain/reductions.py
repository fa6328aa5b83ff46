"""Constructive reductions: delta-kernel plants that reproduce dense
feedforward networks and discrete recurrent networks exactly.

The continuous idealization uses instantaneous delta kernels; strict causality
forbids an instantaneous self-loop, so delta feedback is realized one sample
late (tap value I/dt at lag 1).  Held inputs then settle layer by layer: a
depth-L network's output is valid from sample L onward (hold the input for at
least L+1 samples).  Input and output feedthrough paths keep lag 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .signal import Kernel, Signal
from .system import Nonlinearity, PhysicalSystem, forward


@dataclass(frozen=True)
class DenseNet:
    """Feedforward chain o = W_L f(W_{L-1} f(... f(W_0 x)))."""

    weights: tuple  # W_0 .. W_L
    activation: Nonlinearity

    def __post_init__(self):
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        if len(ws) < 2:
            raise ConfigurationError("need at least W_0 and W_1 (one hidden layer)")
        for a, b in zip(ws, ws[1:]):
            if b.shape[1] != a.shape[0]:
                raise DimensionError(f"layer chain mismatch: {a.shape} -> {b.shape}")
        object.__setattr__(self, "weights", ws)

    @property
    def depth(self) -> int:
        return len(self.weights) - 1  # number of hidden layers


@dataclass(frozen=True)
class DenseRNN:
    """h_k = f(W_s x_k + W_a h_{k-1}), o_k = W_o h_k."""

    w_s: np.ndarray
    w_a: np.ndarray
    w_o: np.ndarray
    activation: Nonlinearity
    period: int = 1  # samples per state update

    def __post_init__(self):
        w_s = np.asarray(self.w_s, dtype=np.float64)
        w_a = np.asarray(self.w_a, dtype=np.float64)
        w_o = np.asarray(self.w_o, dtype=np.float64)
        if w_a.shape[0] != w_a.shape[1]:
            raise DimensionError("W_a must be square")
        if w_s.shape[0] != w_a.shape[0] or w_o.shape[1] != w_a.shape[0]:
            raise DimensionError("RNN weight shapes inconsistent")
        if self.period < 1:
            raise ConfigurationError("period must be at least one sample")
        object.__setattr__(self, "w_s", w_s)
        object.__setattr__(self, "w_a", w_a)
        object.__setattr__(self, "w_o", w_o)


def build_mlp_system(net: DenseNet, dt: float = 1.0) -> PhysicalSystem:
    """Stacked-state plant equivalent to the dense chain under held inputs.

    The state concatenates all hidden layers; the block-subdiagonal feedback
    shifts activations down one layer per sample:

        W_sa = [W_0; 0; ...]            (lag 1)
        W_aa = blocks W_j on the subdiagonal  (lag 1)
        W_ao = [0 ... 0 W_L]            (lag 0)

    After L+1 samples of a held input the output equals the dense chain's.
    """
    ws = net.weights
    L = net.depth
    sizes = [w.shape[0] for w in ws[:-1]]  # hidden layer widths
    n_state = sum(sizes)
    n_in = ws[0].shape[1]
    n_out = ws[-1].shape[0]

    w_s = np.zeros((n_state, n_in))
    w_s[: sizes[0]] = ws[0]
    w_a = np.zeros((n_state, n_state))
    row = sizes[0]
    col = 0
    for j in range(1, L):
        w_a[row : row + sizes[j], col : col + sizes[j - 1]] = ws[j]
        row += sizes[j]
        col += sizes[j - 1]
    w_ao = np.zeros((n_out, n_state))
    w_ao[:, n_state - sizes[-1] :] = ws[-1]

    sa = np.zeros((2, n_state, n_in))
    sa[1] = w_s / dt
    aa = np.zeros((2, n_state, n_state))
    aa[1] = w_a / dt
    return PhysicalSystem(
        w_sa=Kernel(sa, dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel.zero(n_out, n_in, dt),
        w_ao=Kernel.delta(w_ao, dt),
        f=net.activation,
    )


def mlp_settled_output(net: DenseNet, x: np.ndarray, dt: float = 1.0,
                       hold: int | None = None) -> np.ndarray:
    """Drive the stacked plant with a held input and read the settled output."""
    sys = build_mlp_system(net, dt)
    hold = (net.depth + 1) if hold is None else hold
    s = Signal(np.tile(np.asarray(x, dtype=np.float64)[:, None], (1, hold)), dt)
    tr = forward(sys, s)
    return tr.o.samples[:, -1]


def build_rnn_system(rnn: DenseRNN, dt: float = 1.0) -> PhysicalSystem:
    """Plant with W_aa = delta(t - period) W_a: one state update per period.

    Inputs must be piecewise constant over each period; the state at sample
    k*period equals the dense RNN state after k+1 updates from h_{-1} = 0.
    """
    return PhysicalSystem(
        w_sa=Kernel.delta(rnn.w_s, dt),
        w_aa=Kernel.delta(rnn.w_a, dt, lag=rnn.period),
        w_so=Kernel.zero(rnn.w_o.shape[0], rnn.w_s.shape[1], dt),
        w_ao=Kernel.delta(rnn.w_o, dt),
        f=rnn.activation,
    )


def rnn_input_signal(rnn: DenseRNN, xs: np.ndarray, dt: float = 1.0) -> Signal:
    """Hold each sequence element for one period."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    return Signal(np.repeat(xs.T, rnn.period, axis=1), dt)


def rnn_state_trajectory(rnn: DenseRNN, xs: np.ndarray, dt: float = 1.0):
    """(states, outputs) of the plant sampled once per period."""
    sys = build_rnn_system(rnn, dt)
    s = rnn_input_signal(rnn, xs, dt)
    tr = forward(sys, s)
    idx = np.arange(len(np.atleast_2d(xs))) * rnn.period
    return tr.a.samples[:, idx].T, tr.o.samples[:, idx].T


# --------------------------------------------------------------------------
# equivalence suites (randomized checks against independent dense math)


def _dense_mlp_reference(weights, f: Nonlinearity, x):
    from .system import apply_nonlinearity

    h = np.asarray(x, dtype=np.float64)
    for W in weights[:-1]:
        h, _ = apply_nonlinearity(f, W @ h)
    return weights[-1] @ h


def mlp_equivalence_suite(instances: int, rng: np.random.Generator,
                          max_depth: int = 4, max_width: int = 6) -> float:
    """Max |settled plant output - dense forward| over random nets."""
    worst = 0.0
    for _ in range(instances):
        depth = int(rng.integers(1, max_depth + 1))
        sizes = [int(rng.integers(1, max_width + 1)) for _ in range(depth + 2)]
        ws = tuple(rng.standard_normal((sizes[i + 1], sizes[i]))
                   for i in range(depth + 1))
        kind = "rectifier" if rng.random() < 0.7 else "identity"
        net = DenseNet(ws, Nonlinearity(kind))
        x = rng.standard_normal(sizes[0])
        expect = _dense_mlp_reference(ws, net.activation, x)
        got = mlp_settled_output(net, x)
        worst = max(worst, float(np.max(np.abs(got - expect))) if expect.size else 0.0)
    return worst


def _dense_rnn_reference(rnn: DenseRNN, xs, e_os=None):
    """Dense forward (and BPTT when e_os given), independent of the plant."""
    from .system import apply_nonlinearity

    T = len(xs)
    n = rnn.w_a.shape[0]
    hs = np.zeros((T, n))
    jacs = np.zeros((T, n))
    h = np.zeros(n)
    for k in range(T):
        h, j = apply_nonlinearity(rnn.activation, rnn.w_s @ xs[k] + rnn.w_a @ h)
        hs[k], jacs[k] = h, j
    os_ = hs @ rnn.w_o.T
    if e_os is None:
        return hs, os_, None
    dW_s = np.zeros_like(rnn.w_s)
    dW_a = np.zeros_like(rnn.w_a)
    dW_o = np.zeros_like(rnn.w_o)
    g_next = np.zeros(n)
    for k in reversed(range(T)):
        g = jacs[k] * (rnn.w_o.T @ e_os[k] + rnn.w_a.T @ g_next)
        dW_o += np.outer(e_os[k], hs[k])
        dW_s += np.outer(g, xs[k])
        dW_a += np.outer(g, hs[k - 1] if k else np.zeros(n))
        g_next = g
    return hs, os_, (dW_s, dW_a, dW_o)


def rnn_equivalence_suite(instances: int, rng: np.random.Generator,
                          max_units: int = 6, max_len: int = 40):
    """(max forward err, max gradient err) of the plant vs dense RNN + BPTT."""
    from .gradients import kernel_gradients
    from .system import backward

    worst_fwd, worst_grad = 0.0, 0.0
    for _ in range(instances):
        n_units = int(rng.integers(1, max_units + 1))
        dim = int(rng.integers(1, 4))
        dim_o = int(rng.integers(1, 4))
        T = int(rng.integers(3, max_len + 1))
        period = int(rng.integers(1, 4))
        rnn = DenseRNN(rng.standard_normal((n_units, dim)),
                       (0.8 / np.sqrt(n_units)) * rng.standard_normal((n_units, n_units)),
                       rng.standard_normal((dim_o, n_units)),
                       Nonlinearity.rectifier(), period=period)
        xs = rng.standard_normal((T, dim))
        targets = rng.standard_normal((T, dim_o))

        states, outputs = rnn_state_trajectory(rnn, xs)
        hs, os_, _ = _dense_rnn_reference(rnn, xs)
        worst_fwd = max(worst_fwd, float(np.max(np.abs(states - hs))),
                        float(np.max(np.abs(outputs - os_))))

        sys = build_rnn_system(rnn)
        s = rnn_input_signal(rnn, xs)
        tr = forward(sys, s)
        idx = np.arange(T) * period
        e_os = tr.o.samples[:, idx].T - targets
        e = np.zeros_like(tr.o.samples)
        e[:, idx] = e_os.T  # dt = 1: density == per-sample gradient
        bw = backward(sys, tr, Signal(e, 1.0))
        g = kernel_gradients(sys, tr, bw, s)
        _, _, dense = _dense_rnn_reference(rnn, xs, e_os)
        for got, want in zip((g.d_w_sa[0], g.d_w_aa[period], g.d_w_ao[0]), dense):
            denom = max(float(np.linalg.norm(want)), 1e-12)
            worst_grad = max(worst_grad, float(np.linalg.norm(got - want)) / denom)
    return worst_fwd, worst_grad
