"""Loop-level model of one training iteration, the reference for the per-op gate.

It restates the plant equations as direct sums over the live lags,

    x[i] = (W_sa * s)[i] + dt * sum_k W_aa[k] a[i-k],   a[i] = f(x[i])
    o[i] = (W_so * s)[i] + (W_ao * a)[i]

and the adjoint run backwards in time, with the mask codec, the costs, the
gradients and the normalized update written out directly.  It shares no
numerical code with the package: only the task's batch sampler and the
plant/mask containers are taken from it.  Random draws follow the training
loop's order (batch, forward noise on a then o, backward noise on e_a then
e_s), so the same generator state gives the same trajectory, up to rounding.
"""

from __future__ import annotations

import numpy as np

KERNELS = ("w_sa", "w_aa", "w_so", "w_ao")


def _live(taps):
    return np.flatnonzero(np.any(taps != 0.0, axis=(1, 2)))


def _conv(taps, dt, x):
    """y[:, i] = dt * sum_k W[k] @ x[:, i-k], one live lag at a time."""
    n = x.shape[1]
    y = np.zeros((taps.shape[1], n))
    for k in _live(taps):
        if k < n:
            y[:, k:] += taps[k] @ x[:, : n - k]
    return dt * y


def _adj(taps, dt, e):
    """r[:, i] = dt * sum_k W[k].T @ e[:, i+k]."""
    n = e.shape[1]
    r = np.zeros((taps.shape[2], n))
    for k in _live(taps):
        if k < n:
            r[:, : n - k] += taps[k].T @ e[:, k:]
    return dt * r


def _nonlinearity(f, x):
    """(f(x), jac) elementwise; jac is 0 at the kinks."""
    if f.kind == "identity":
        return x, np.ones_like(x)
    if f.kind == "rectifier":
        jac = (x > 0.0).astype(np.float64)
        return x * jac, jac
    jac = ((x > f.lo) & (x < f.hi)).astype(np.float64)
    return np.minimum(np.maximum(x, f.lo), f.hi), jac


def _noise_std(x, snr_db):
    return float(np.sqrt(np.mean(np.square(x)) / 10.0 ** (snr_db / 10.0)))


def forward(system, s):
    """Plant run; returns clean (a, jac, o).

    Samples less than the first live lag apart do not feed each other, so each
    such block is solved at once, as a direct sum over the live lags."""
    dt, f = system.dt, system.f
    w = system.w_aa.taps
    lags = _live(w)
    drive = _conv(system.w_sa.taps, dt, s)
    n = drive.shape[1]
    block = int(lags[0]) if lags.size else n
    a = np.zeros(drive.shape)
    jac = np.zeros(drive.shape)
    for t0 in range(0, n, block):
        t1 = min(n, t0 + block)
        x = drive[:, t0:t1].copy()
        for k in lags:  # x[i] += dt * W[k] @ a[i - k] for i - k >= 0
            if k >= t1:
                break
            lo = max(t0, k)
            x[:, lo - t0:] += dt * (w[k] @ a[:, lo - k:t1 - k])
        a[:, t0:t1], jac[:, t0:t1] = _nonlinearity(f, x)
    o = _conv(system.w_so.taps, dt, s) + _conv(system.w_ao.taps, dt, a)
    return a, jac, o


def backward(system, jac, e_o):
    """Adjoint run from the last block to the first; returns (e_a, e_s)."""
    dt, f = system.dt, system.f
    w = system.w_aa.taps
    lags = _live(w)
    bp = system.backward_path
    clip = bp is not None and bp.clip and f.kind == "clip"
    drive = _adj(system.w_ao.taps, dt, e_o)
    n = drive.shape[1]
    block = int(lags[0]) if lags.size else n
    e_a = np.zeros(drive.shape)
    for t1 in range(n, 0, -block):
        t0 = max(0, t1 - block)
        x = drive[:, t0:t1].copy()
        for k in lags:  # x[i] += dt * W[k].T @ e_a[i + k] for i + k < n
            if t0 + k >= n:
                break
            hi = min(t1, n - k)
            x[:, :hi - t0] += dt * (w[k].T @ e_a[:, t0 + k:hi + k])
        if clip:
            x = np.minimum(np.maximum(x, f.lo), f.hi)
        e_a[:, t0:t1] = jac[:, t0:t1] * x
    e_s = _adj(system.w_sa.taps, dt, e_a) + _adj(system.w_so.taps, dt, e_o)
    return e_a, e_s


def _cost(kind, pred, targets, mask):
    count = int(mask.sum())
    if kind == "regression":
        diff = np.where(mask[:, None], pred - targets, 0.0)
        return 0.5 * float(np.sum(diff ** 2)) / count, diff / count
    z = pred - pred.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    logp = np.log(p)
    cost = -float(np.sum(targets[mask] * logp[mask])) / count
    return cost, np.where(mask[:, None], p - targets, 0.0) / count


def _step(g):
    norm = float(np.linalg.norm(g))
    return g if norm == 0.0 else g / norm


def replay(system, masks, task, cfg, rng, n_ops):
    """Costs of the first n_ops iterations of train(system, masks, task, cfg, rng)."""
    dt = system.dt
    P = masks.period
    mask = {"m": masks.m, "s_b": masks.s_b, "u": masks.u, "y_b": masks.y_b}
    if cfg.init_masks:
        mask["m"] = cfg.init_std_input_mask * rng.standard_normal((masks.n_in, task.dim_x, P))
        mask["u"] = cfg.init_std_output_mask * rng.standard_normal((task.dim_y, masks.n_out, P))
        mask["s_b"], mask["y_b"] = np.zeros((masks.n_in, P)), np.zeros(task.dim_y)
    taps = {name: getattr(system, name).taps.copy() for name in KERNELS}
    noise = system.noise
    bp = system.backward_path
    costs = []
    for it in range(n_ops):
        data = task.sample(cfg.batch_len, rng)
        xs = data.inputs
        n_inst = len(xs)
        m, u, s_b, y_b = mask["m"], mask["u"], mask["s_b"], mask["y_b"]
        plant = system
        for name in KERNELS:
            plant = plant.with_kernel(name, taps[name])

        s = np.concatenate([s_b + np.einsum("rct,c->rt", m, xs[i]) for i in range(n_inst)],
                           axis=1)
        a, jac, o = forward(plant, s)
        if noise is not None and noise.on_forward:
            a = a + rng.normal(0.0, _noise_std(a, noise.snr_db), a.shape)
            o = o + rng.normal(0.0, _noise_std(o, noise.snr_db), o.shape)
        o_seg = [o[:, i * P:(i + 1) * P] for i in range(n_inst)]
        ys = np.array([y_b + dt * np.einsum("dct,ct->d", u, seg) for seg in o_seg])
        cost, errs = _cost(task.kind, ys, data.targets, data.cost_mask)
        costs.append(cost)

        e_o = np.concatenate([np.einsum("dct,d->ct", u, errs[i]) for i in range(n_inst)],
                             axis=1)
        if bp is not None and bp.normalize_peak is not None:
            peak = float(np.max(np.abs(e_o)))
            if peak > 0.0:
                e_o = e_o * (bp.normalize_peak / peak)
        if bp is not None and bp.scale != 1.0:
            e_o = e_o * bp.scale
        e_a, e_s = backward(plant, jac, e_o)
        if noise is not None and noise.on_backward:
            e_a = e_a + rng.normal(0.0, _noise_std(e_a, noise.snr_db), e_a.shape)
            e_s = e_s + rng.normal(0.0, _noise_std(e_s, noise.snr_db), e_s.shape)

        lr = cfg.lr0 * (1.0 - it / cfg.iterations)
        pairs = {"w_sa": (e_a, s), "w_aa": (e_a, a), "w_so": (e_o, s), "w_ao": (e_o, a)}
        for name in KERNELS:
            if name not in cfg.trainable:
                continue
            dst, src = pairs[name]
            live = _live(taps[name])
            if live.size == 0:
                continue
            g = np.zeros_like(taps[name])
            for k in live:  # the update keeps live lags only
                g[k] = dt * dt * (dst[:, k:] @ src[:, : s.shape[1] - k].T)
            new = taps[name] - lr * _step(g)
            if name == "w_aa":
                new[0] = 0.0
                if cfg.w_aa_gain_bound is not None:
                    bound = cfg.w_aa_gain_bound / dt
                    new = np.clip(new, -bound, bound)
            taps[name] = new
        es_seg = [e_s[:, i * P:(i + 1) * P] for i in range(n_inst)]
        grads = {
            "m": dt * sum(np.einsum("rt,c->rct", es_seg[i], xs[i]) for i in range(n_inst)),
            "s_b": dt * sum(es_seg),
            "u": dt * sum(np.einsum("d,ct->dct", errs[i], o_seg[i]) for i in range(n_inst)),
            "y_b": errs.sum(axis=0),
        }
        for name, g in grads.items():
            if name in cfg.trainable:
                mask[name] = mask[name] - lr * _step(g)
    return costs
