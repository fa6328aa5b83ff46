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
        for name in ("w_s", "w_a", "w_o"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        w_s, w_a, w_o = self.w_s, self.w_a, self.w_o
        if w_a.shape[0] != w_a.shape[1]:
            raise DimensionError("W_a must be square")
        if w_s.shape[0] != w_a.shape[0] or w_o.shape[1] != w_a.shape[0]:
            raise DimensionError("RNN weight shapes inconsistent")
        if self.period < 1:
            raise ConfigurationError("period must be at least one sample")


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


def mlp_settled_output(net: DenseNet, x: np.ndarray, dt: float = 1.0) -> np.ndarray:
    """Drive the stacked plant with an input held for depth + 1 samples and
    read the settled output."""
    sys = build_mlp_system(net, dt)
    s = Signal(np.tile(np.asarray(x, dtype=np.float64)[:, None], (1, net.depth + 1)), dt)
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
