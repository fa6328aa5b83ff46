"""Independent brute-force oracles the tests check the library against.

Everything here is written as plain double loops / textbook recursions on raw
arrays, deliberately sharing no code with the package.
"""

import numpy as np


def conv_direct(taps, dt, x):
    """y[i] = dt * sum_k W[k] x[i-k], double loop.  taps (L,r,c), x (c,n)."""
    L = len(taps)
    rows = taps[0].shape[0]
    n = x.shape[1]
    y = np.zeros((rows, n))
    for i in range(n):
        for k in range(L):
            j = i - k
            if 0 <= j < n:
                y[:, i] += taps[k] @ x[:, j]
    return dt * y


def adjoint_direct(taps, dt, e):
    """r[i] = dt * sum_k W[k].T e[i+k], double loop."""
    L = len(taps)
    cols = taps[0].shape[1]
    n = e.shape[1]
    r = np.zeros((cols, n))
    for i in range(n):
        for k in range(L):
            j = i + k
            if 0 <= j < n:
                r[:, i] += taps[k].T @ e[:, j]
    return dt * r


def nonlinearity_naive(kind, lo=-1.0, hi=1.0):
    """x -> (f(x), jac) by the textbook definitions: the Jacobian is 0 at the
    rectifier origin and at the clip bounds."""
    def f(x):
        x = np.asarray(x, dtype=np.float64)
        if kind == "identity":
            return x.copy(), np.ones_like(x)
        if kind == "rectifier":
            jac = (x > 0.0).astype(np.float64)
            return x * jac, jac
        jac = ((x > lo) & (x < hi)).astype(np.float64)
        return np.clip(x, lo, hi), jac
    return f


def plant_forward_naive(w_sa, w_aa, w_so, w_ao, dt, f, s):
    """Sample-by-sample recursion for the full plant; f maps vector -> (value, jac)."""
    n = s.shape[1]
    n_state = w_sa[0].shape[0]
    n_out = w_so[0].shape[0]
    a = np.zeros((n_state, n))
    jac = np.zeros((n_state, n))
    o = np.zeros((n_out, n))
    for i in range(n):
        x = np.zeros(n_state)
        for k in range(len(w_sa)):
            if 0 <= i - k < n:
                x += w_sa[k] @ s[:, i - k]
        for k in range(len(w_aa)):
            if 0 <= i - k < n:
                x += w_aa[k] @ a[:, i - k]
        a[:, i], jac[:, i] = f(dt * x)
        y = np.zeros(n_out)
        for k in range(len(w_so)):
            if 0 <= i - k < n:
                y += w_so[k] @ s[:, i - k]
        for k in range(len(w_ao)):
            if 0 <= i - k < n:
                y += w_ao[k] @ a[:, i - k]
        o[:, i] = dt * y
    return a, o, jac


def plant_backward_naive(w_sa, w_aa, w_so, w_ao, dt, jac, e_o):
    """Anti-causal recursion with transposed taps, double loop."""
    n = e_o.shape[1]
    n_state = w_sa[0].shape[0]
    n_in = w_sa[0].shape[1]
    e_a = np.zeros((n_state, n))
    for i in reversed(range(n)):
        acc = np.zeros(n_state)
        for k in range(len(w_ao)):
            if i + k < n:
                acc += w_ao[k].T @ e_o[:, i + k]
        for k in range(len(w_aa)):
            if i + k < n:
                acc += w_aa[k].T @ e_a[:, i + k]
        e_a[:, i] = jac[:, i] * (dt * acc)
    e_s = np.zeros((n_in, n))
    for i in range(n):
        acc = np.zeros(n_in)
        for k in range(len(w_sa)):
            if i + k < n:
                acc += w_sa[k].T @ e_a[:, i + k]
        for k in range(len(w_so)):
            if i + k < n:
                acc += w_so[k].T @ e_o[:, i + k]
        e_s[:, i] = dt * acc
    return e_a, e_s


def fd_gradient(loss, theta, eps=1e-5):
    """Central finite differences of a scalar loss over a flat parameter vector."""
    theta = np.asarray(theta, dtype=np.float64)
    g = np.zeros_like(theta)
    for j in range(theta.size):
        tp = theta.copy()
        tp[j] += eps
        tm = theta.copy()
        tm[j] -= eps
        g[j] = (loss(tp) - loss(tm)) / (2.0 * eps)
    return g


def rel_err(g1, g2):
    g1 = np.asarray(g1, dtype=np.float64).ravel()
    g2 = np.asarray(g2, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(g1), np.linalg.norm(g2), 1e-12)
    return float(np.linalg.norm(g1 - g2) / denom)


def dense_mlp_forward(weights, act, x):
    """Plain chain o = W_L f(W_{L-1} f(... f(W_0 x)))."""
    h = np.asarray(x, dtype=np.float64)
    for W in weights[:-1]:
        h = act(W @ h)
    return weights[-1] @ h


def dense_rnn_forward(w_s, w_a, w_o, act, xs):
    """h_k = f(W_s x_k + W_a h_{k-1}), o_k = W_o h_k, h_{-1} = 0."""
    h = np.zeros(w_a.shape[0])
    hs, os_ = [], []
    for x in xs:
        h = act(w_s @ x + w_a @ h)
        hs.append(h.copy())
        os_.append(w_o @ h)
    return np.array(hs), np.array(os_)


def dense_rnn_bptt(w_s, w_a, w_o, act_jac, xs, e_os, hs):
    """Textbook BPTT.  e_os[k] = dC/do_k.  act_jac gives the recorded diagonal
    Jacobian at step k (binary for rectifier).  Returns (dW_s, dW_a, dW_o)."""
    T = len(xs)
    dW_s = np.zeros_like(w_s)
    dW_a = np.zeros_like(w_a)
    dW_o = np.zeros_like(w_o)
    g_next = np.zeros(w_a.shape[0])
    for k in reversed(range(T)):
        dh = w_o.T @ e_os[k] + w_a.T @ g_next
        g = act_jac[k] * dh
        dW_o += np.outer(e_os[k], hs[k])
        dW_s += np.outer(g, xs[k])
        h_prev = hs[k - 1] if k > 0 else np.zeros(w_a.shape[0])
        dW_a += np.outer(g, h_prev)
        g_next = g
    return dW_s, dW_a, dW_o
