"""Kernel-parameter gradients and the finite-difference oracle that audits
every gradient path in the package.

With error signals as gradient densities (dC/d(sample) = dt * e[sample]) the
exact discrete gradient of a kernel tap picks up dt twice: once as the tap's
weight inside the convolution sum, once converting the density back to a
per-sample gradient,

    dC/dW_xy[k] = dt^2 * sum_{i=0}^{n-1-k} e_dst[:, i+k] src[:, i]^T

with (dst, src) in {(e_a, s), (e_a, a), (e_o, s), (e_o, a)}.  The valid-range
clamp i <= n-1-k mirrors the continuous upper limit T - t.  None of this is
taken on faith: grad_check compares every block against central differences.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError
from .masking import (
    MaskSet,
    _decode_stack,
    _encode_stack,
    decode_outputs,
    encode_inputs,
    encode_output_errors,
    input_mask_gradient,
    output_mask_gradient,
)
from .signal import Kernel, Signal, _convolve_stack, convolve
from .system import (BackwardTrace, ForwardTrace, Nonlinearity, PhysicalSystem, _activate,
                     _causal_feedback, backward, forward)

KERNEL_BLOCKS = ("w_sa", "w_aa", "w_so", "w_ao")
MASK_BLOCKS = ("m", "s_b", "u", "y_b")
ALL_BLOCKS = KERNEL_BLOCKS + MASK_BLOCKS
STATE_SIDE = ("w_sa", "w_aa", "m", "s_b")
OUTPUT_SIDE = ("w_so", "w_ao", "u", "y_b")  # blocks the state equation never sees
_STACK_BYTES = 2 << 20  # the bytes the probes of one finite-difference chunk may hold
_NONLINEARITIES = {"rectifier": Nonlinearity.rectifier,  # the toy family's choices
                   "clip": lambda: Nonlinearity.clip(-1.0, 1.0),
                   "identity": Nonlinearity.identity}


def _tap_gradient(e_dst: np.ndarray, src: np.ndarray, L: int, dt: float,
                  lags=None) -> np.ndarray:
    """G[k] = dt^2 * e_dst[:, k:] @ src[:, :n-k].T for k = 0..L-1.

    lags (ascending) restricts the products to those lags; G keeps its full
    (L, rows, cols) shape and is zero at every other lag.
    """
    n = src.shape[1]
    out = np.zeros((L, e_dst.shape[0], src.shape[0]))
    for k in range(min(L, n)) if lags is None else lags:
        if k >= n:
            break
        out[k] = e_dst[:, k:] @ src[:, : n - k].T
    return dt * dt * out


def kernel_gradients(sys: PhysicalSystem, fwd: ForwardTrace, bwd: BackwardTrace,
                     s: Signal, blocks=KERNEL_BLOCKS) -> dict:
    """Tap gradients from one recorded forward/backward run, keyed by kernel name.

    blocks restricts the computation to what the caller uses: either kernel
    names (every lag of each), or a dict from kernel name to the ascending
    lags to compute, the rest of that block left zero.  A training loop
    passes each trainable kernel's live lags, the only ones its update keeps;
    the gradient at a structurally zero lag is still real and the audit
    (no restriction) checks it.  Omitted blocks are absent from the result.
    """
    n = s.n_samples
    if not (fwd.a.n_samples == n == bwd.e_a.n_samples == bwd.e_s.n_samples
            == bwd.e_o.n_samples):
        raise DimensionError("forward/backward traces and input disagree on length")
    if not isinstance(blocks, dict):
        blocks = dict.fromkeys(blocks)  # None: every lag
    pairs = {"w_sa": (bwd.e_a, s), "w_aa": (bwd.e_a, fwd.a),
             "w_so": (bwd.e_o, s), "w_ao": (bwd.e_o, fwd.a)}
    out = {}
    for name in KERNEL_BLOCKS:
        if name in blocks:
            dst, src = pairs[name]
            out[name] = _tap_gradient(dst.samples, src.samples, getattr(sys, name).length,
                                      s.dt, blocks[name])
    if "w_aa" in out:
        out["w_aa"][0] = 0.0  # tap 0 is structurally zero (strict causality), not a parameter
    return out


def _central_differences(theta: np.ndarray, eps: float, probe_bytes: int, losses) -> np.ndarray:
    """(loss(theta + eps e_j) - loss(theta - eps e_j)) / 2 eps for every j; losses maps
    a chunk of probe points, rows theta + eps e_j and theta - eps e_j in turn, to
    their losses, and a chunk of probes of probe_bytes each holds <= _STACK_BYTES."""
    step = max(1, _STACK_BYTES // max(probe_bytes, 1))
    vals = []
    for lo in range(0, 2 * theta.size, step):
        rows = np.arange(lo, min(lo + step, 2 * theta.size))
        points = np.tile(theta, (rows.size, 1))
        points[np.arange(rows.size), rows // 2] += np.where(rows % 2, -eps, eps)
        vals += losses(points)
    pairs = np.reshape(vals, (-1, 2))
    if not np.isfinite(pairs).all():
        raise NumericError(f"loss non-finite at coordinate {np.nonzero(~np.isfinite(pairs))[0][0]}")
    return (pairs[:, 0] - pairs[:, 1]) / (2.0 * eps)


def _map(fn, items, threads: int) -> list:
    """[fn(item) for item in items], spread over a pool of threads if threads > 1.
    Each call runs under the caller's numpy error state, which threads do not inherit."""
    if threads <= 1:
        return list(map(fn, items))
    err = np.geterr()

    def call(item):
        with np.errstate(**err):
            return fn(item)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(call, items))


def finite_difference_gradient(loss, theta: np.ndarray, eps: float = 1e-5,
                               threads: int = 1) -> np.ndarray:
    """Central differences (loss(theta+eps e_j) - loss(theta-eps e_j)) / 2 eps.

    loss must be deterministic (noise off / fixed seed).  threads > 1 farms the
    independent probes out to a thread pool; the result is identical.
    """
    if not (eps > 0.0):
        raise ConfigurationError(f"eps must be positive, got {eps}")
    theta = np.asarray(theta, dtype=np.float64).ravel()
    return _central_differences(theta, eps, 8 * theta.size,
                                lambda points: _map(loss, points, threads))


def relative_error(g1, g2) -> float:
    """|g1 - g2| / max(|g1|, |g2|, 1e-12) over flattened blocks."""
    g1 = np.asarray(g1, dtype=np.float64).ravel()
    g2 = np.asarray(g2, dtype=np.float64).ravel()
    return float(np.linalg.norm(g1 - g2)
                 / max(np.linalg.norm(g1), np.linalg.norm(g2), 1e-12))


# --------------------------------------------------------------------------
# gradient check harness


@dataclass
class GradCheckConfig:
    """Toy pipeline family for the oracle comparison."""

    n_systems: int = 5
    n_in: int = 2
    n_state: int = 3
    n_out: int = 2
    dim_x: int = 2
    dim_y: int = 2
    kernel_len: int = 3
    period: int = 8
    instances: int = 6
    dt_range: tuple = (0.1, 1.2)
    nonlinearities: tuple = ("rectifier", "clip", "identity")
    eps: float = 1e-5
    threshold: float = 1e-4
    kink_margin: float = 1e-3  # resample margin; comfortably above 10*eps
    threads: int = 1

    def __post_init__(self):
        for name in ("n_systems", "n_in", "n_state", "n_out", "dim_x", "dim_y",
                     "kernel_len", "period", "instances", "threads"):
            val = getattr(self, name)
            if not (isinstance(val, (int, np.integer)) and val >= 1):
                raise ConfigurationError(f"{name} must be an integer >= 1, got {val!r}", name)
        for name in ("eps", "threshold"):
            val = getattr(self, name)
            if not 0.0 < val < np.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {val}", name)
        if not (self.nonlinearities and set(self.nonlinearities) <= _NONLINEARITIES.keys()):
            raise ConfigurationError(f"nonlinearities must name some of {sorted(_NONLINEARITIES)},"
                                     f" got {self.nonlinearities!r}", "nonlinearities")
        lo, hi = self.dt_range
        if not 0.0 < lo <= hi < np.inf:
            raise ConfigurationError("dt_range must be (lo, hi) with 0 < lo <= hi < inf, "
                                     f"got {self.dt_range!r}", "dt_range")
        if not 0.0 <= self.kink_margin < np.inf:
            raise ConfigurationError(f"kink_margin must be finite and >= 0, got {self.kink_margin}",
                                     "kink_margin")


@dataclass
class GradCheckReport:
    entries: list = field(default_factory=list)  # (block, max_rel_err, passed)
    threshold: float = 1e-4

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok in self.entries)

    def to_text(self) -> str:
        lines = [f"gradient check vs central differences (threshold {self.threshold:g})"]
        for block, err, ok in self.entries:
            lines.append(f"  {block:<6} max_rel_err {err:.3e}  {'pass' if ok else 'FAIL'}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("block,max_rel_err,pass\n")
            for block, err, ok in self.entries:
                fh.write(f"{block},{err!r},{int(ok)}\n")


def random_toy_pipeline(cfg: GradCheckConfig, rng: np.random.Generator):
    """One random (system, masks, xs, targets) draw with a kink-safe trace."""
    return _draw_toy(cfg, rng)[:4]


def _draw_toy(cfg: GradCheckConfig, rng: np.random.Generator):
    """random_toy_pipeline's draw and the accepted toy's encoded input s and
    clean forward trace tr: (sys, masks, xs, targets, s, tr)."""
    for _ in range(64):
        dt = float(rng.uniform(*cfg.dt_range))
        kind = cfg.nonlinearities[int(rng.integers(len(cfg.nonlinearities)))]
        f = _NONLINEARITIES[kind]()

        def taps(rows, cols):
            return 0.4 * rng.standard_normal((cfg.kernel_len, rows, cols))

        aa = taps(cfg.n_state, cfg.n_state)
        aa[0] = 0.0
        # bound the loop gain dt * sum_k |W_aa[k]|_2 below 1 so that no draw is
        # an exploding plant, on which central differences lose all precision
        gain = dt * float(np.sum(np.linalg.norm(aa, ord=2, axis=(1, 2))))
        if gain > 0.9:
            aa *= 0.9 / gain
        sys = PhysicalSystem(
            w_sa=Kernel(taps(cfg.n_state, cfg.n_in), dt),
            w_aa=Kernel(aa, dt),
            w_so=Kernel(taps(cfg.n_out, cfg.n_in), dt),
            w_ao=Kernel(taps(cfg.n_out, cfg.n_state), dt),
            f=f,
        )
        masks = MaskSet(
            m=rng.standard_normal((cfg.n_in, cfg.dim_x, cfg.period)),
            u=rng.standard_normal((cfg.dim_y, cfg.n_out, cfg.period)),
            s_b=0.3 * rng.standard_normal((cfg.n_in, cfg.period)),
            y_b=0.3 * rng.standard_normal(cfg.dim_y),
            period=cfg.period,
            dt=dt,
        )
        xs = rng.standard_normal((cfg.instances, cfg.dim_x))
        targets = rng.standard_normal((cfg.instances, cfg.dim_y))
        s = encode_inputs(xs, masks)
        tr = forward(sys, s)
        if _kink_margin(sys, s, tr) > cfg.kink_margin:
            return sys, masks, xs, targets, s, tr
    raise ConfigurationError("could not draw a kink-safe toy system; widen margins")


def _kink_margin(sys: PhysicalSystem, s: Signal, tr: ForwardTrace) -> float:
    """Distance of the closest pre-activation sample of the run tr of sys on s
    to a nonlinearity kink."""
    if sys.f.kind == "identity":
        return np.inf
    pre = convolve(sys.w_sa, s).samples + convolve(sys.w_aa, tr.a).samples
    if sys.f.kind == "rectifier":
        return float(np.min(np.abs(pre))) if pre.size else np.inf
    return float(min(np.min(np.abs(pre - sys.f.lo)), np.min(np.abs(pre - sys.f.hi))))


def pipeline_cost(ys: np.ndarray, targets) -> float:
    """Quadratic end-to-end cost 0.5 sum_i |y_i - t_i|^2 (the grad_check cost) of
    the decoded outputs ys.  The cost of a plant on the encoded input s is
    pipeline_cost(decode_outputs(forward(sys, s).o, masks), targets)."""
    return 0.5 * float(((ys - np.asarray(targets)) ** 2).sum())  # np.sum's reduce, no dispatch


def pipeline_gradients(sys: PhysicalSystem, masks: MaskSet, xs, targets,
                       medium: PhysicalSystem | None = None) -> dict:
    """Physically-backpropagated gradients of pipeline_cost for all 8 blocks.

    medium is the plant the error is played back through (default: sys
    itself, whose reciprocity makes the backward run the exact adjoint).
    """
    s = encode_inputs(xs, masks)
    return _trace_gradients(sys, masks, xs, targets, s, forward(sys, s), medium)


def _trace_gradients(sys: PhysicalSystem, masks: MaskSet, xs, targets, s: Signal,
                     tr: ForwardTrace, medium: PhysicalSystem | None) -> dict:
    """pipeline_gradients from the encoded input s and its clean forward trace tr."""
    ys = decode_outputs(tr.o, masks)
    errs = ys - np.asarray(targets, dtype=np.float64)
    e_o = encode_output_errors(errs, masks)
    bw = backward(sys if medium is None else medium, tr, e_o)
    grads = kernel_gradients(sys, tr, bw, s)
    grads["m"], grads["s_b"] = input_mask_gradient(bw.e_s, xs)
    grads["u"], grads["y_b"] = output_mask_gradient(errs, tr.o)
    return grads


def _non_reciprocal(sys: PhysicalSystem) -> PhysicalSystem:
    """The plant with every square kernel's taps transposed per lag.

    Played back through this medium the error meets W[k] where the adjoint
    needs W[k].T: a broken backward pass (negative control for audits).
    """
    for name in KERNEL_BLOCKS:
        kern = getattr(sys, name)
        if kern.rows == kern.cols:
            sys = sys.with_kernel(name, kern.taps.transpose(0, 2, 1))
    return sys


def _probe_outputs(sys: PhysicalSystem, masks: MaskSet, xs: np.ndarray, stacks: dict,
                   toy: tuple | None = None) -> tuple:
    """The clean decoded outputs (P, n, dim_y), inputs and states of P probes:
    stacks maps blocks to stacks of P members, the others are the toy's own
    [None].  Without toy the probes run the state equation as one batched
    recursion; output-side probes keep the toy's input and state (x, a)."""
    taps = {k: stacks.get(k, getattr(sys, k).taps[None]) for k in KERNEL_BLOCKS}
    mask = {k: stacks.get(k, getattr(masks, k)[None]) for k in MASK_BLOCKS}
    if toy is None:
        x = _encode_stack(mask["m"], mask["s_b"], xs)
        drive = _convolve_stack(taps["w_sa"], sys.dt, x)
        a = _causal_feedback(taps["w_aa"], sys.dt, max(len(drive), len(taps["w_aa"])), x.shape[2],
                             lambda fb, t0, t1: _activate(sys.f, drive[:, :, t0:t1] + fb))
    else:
        x, a = toy
    o = _convolve_stack(taps["w_so"], sys.dt, x) + _convolve_stack(taps["w_ao"], sys.dt, a)
    return _decode_stack(o, mask["u"], mask["y_b"], sys.dt), x, a


def grad_check(cfg: GradCheckConfig, seed: int, break_adjoint: bool = False) -> GradCheckReport:
    """Compare physical gradients to the FD oracle over random toy pipelines.

    break_adjoint plays the error back through _non_reciprocal(plant) -- a
    deliberate corruption that must make the check fail (negative control).
    Forward runs and the FD losses stay on the true plant; the gradient run
    takes the accepted draw's encoded input and forward trace.  A toy's probes
    run as two stacks (_probe_outputs), one per side of the state equation;
    the state side's first row is the toy, whose input and state the output
    side keeps.  Each probe is one pipeline_cost call on its decoded outputs.
    """
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in ALL_BLOCKS}
    for _ in range(cfg.n_systems):
        sys, masks, xs, targets, s, tr = _draw_toy(cfg, rng)
        grads = _trace_gradients(sys, masks, xs, targets, s, tr,
                                 _non_reciprocal(sys) if break_adjoint else None)
        toy = []  # the toy's own input and state, from the first state-side chunk
        for side in (STATE_SIDE, OUTPUT_SIDE):
            full = [getattr(sys, k).taps if k in KERNEL_BLOCKS else getattr(masks, k) for k in side]
            whole = np.concatenate([w.ravel() for w in full])  # a row: the blocks in turn
            ends = np.cumsum([w.size for w in full])[:-1]
            free = np.concatenate([np.arange(w.size) >= w[0].size * (k == "w_aa")
                                   for k, w in zip(side, full)])  # w_aa tap 0 is zero: not probed

            def losses(points):
                lead = int(not toy)  # the toy's own row leads the chunk, one over its budget
                rows = np.tile(whole, (lead + len(points), 1))
                rows[lead:, free] = points
                stacks = {k: np.ascontiguousarray(col).reshape((len(rows),) + w.shape)
                          for k, w, col in zip(side, full, np.split(rows, ends, axis=1))}
                # a diverging probe's loss is non-finite, which _central_differences reports
                with np.errstate(over="ignore", invalid="ignore"):
                    ys, x, a = _probe_outputs(sys, masks, xs, stacks,
                                              toy[0] if side is OUTPUT_SIDE else None)
                    if lead:
                        toy.append((x[:1].copy(), a[:1].copy()))
                    return _map(lambda y: pipeline_cost(y, targets), ys[lead:], cfg.threads)

            # a probe's point, row and blocks, traces (w_so * s, w_ao * a, sum; the state side's
            # input product and sum, drive, state, recursion buffer) and outputs (product, sum)
            traces = 3 * sys.n_outputs + (2 * sys.n_inputs + 3 * sys.n_state) * (side is STATE_SIDE)
            probe_bytes = 8 * (3 * whole.size + traces * len(xs) * masks.period + 2 * targets.size)
            fd = np.zeros(whole.size)
            fd[free] = _central_differences(whole[free], cfg.eps, probe_bytes, losses)
            g = np.concatenate([grads[k].ravel() for k in side])
            for k, gk, fk, ok in zip(side, *(np.split(v, ends) for v in (g, fd, free))):
                worst[k] = max(worst[k], relative_error(gk[ok], fk[ok]))

    return GradCheckReport([(k, worst[k], worst[k] < cfg.threshold) for k in ALL_BLOCKS],
                           cfg.threshold)
