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
    decode_outputs,
    encode_inputs,
    encode_output_errors,
    input_mask_gradient,
    output_mask_gradient,
)
from .signal import Kernel, Signal, convolve
from .system import (BackwardTrace, ForwardTrace, Nonlinearity, PhysicalSystem, backward, forward,
                     output_map)

KERNEL_BLOCKS = ("w_sa", "w_aa", "w_so", "w_ao")
MASK_BLOCKS = ("m", "s_b", "u", "y_b")
ALL_BLOCKS = KERNEL_BLOCKS + MASK_BLOCKS
OUTPUT_SIDE = ("w_so", "w_ao", "u", "y_b")  # blocks the state equation never sees


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


def finite_difference_gradient(loss, theta: np.ndarray, eps: float = 1e-5,
                               threads: int = 1) -> np.ndarray:
    """Central differences (loss(theta+eps e_j) - loss(theta-eps e_j)) / 2 eps.

    loss must be deterministic (noise off / fixed seed).  threads > 1 farms the
    independent probes out to a thread pool; the result is identical.
    """
    if not (eps > 0.0):
        raise ConfigurationError(f"eps must be positive, got {eps}")
    theta = np.asarray(theta, dtype=np.float64).ravel()

    def probe(j):
        up, down = theta.copy(), theta.copy()
        up[j] += eps
        down[j] -= eps
        lu, ld = loss(up), loss(down)
        if not (np.isfinite(lu) and np.isfinite(ld)):
            raise NumericError(f"loss non-finite at coordinate {j}")
        return (lu - ld) / (2.0 * eps)

    if threads > 1 and theta.size > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vals = list(pool.map(probe, range(theta.size)))
        return np.array(vals)
    return np.array([probe(j) for j in range(theta.size)])


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
                raise ConfigurationError(f"{name} must be an integer >= 1, got {val!r}")
        for name in ("eps", "threshold"):
            val = getattr(self, name)
            if not 0.0 < val < np.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {val}")


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
    for _ in range(64):
        dt = float(rng.uniform(*cfg.dt_range))
        kind = cfg.nonlinearities[int(rng.integers(len(cfg.nonlinearities)))]
        f = {"rectifier": Nonlinearity.rectifier(),
             "clip": Nonlinearity.clip(-1.0, 1.0),
             "identity": Nonlinearity.identity()}[kind]

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
        if _kink_margin(sys, encode_inputs(xs, masks)) > cfg.kink_margin:
            return sys, masks, xs, targets
    raise ConfigurationError("could not draw a kink-safe toy system; widen margins")


def _kink_margin(sys: PhysicalSystem, s: Signal) -> float:
    """Distance of the closest pre-activation sample to a nonlinearity kink."""
    if sys.f.kind == "identity":
        return np.inf
    tr = forward(sys, s)
    pre = convolve(sys.w_sa, s).samples + convolve(sys.w_aa, tr.a).samples
    if sys.f.kind == "rectifier":
        return float(np.min(np.abs(pre))) if pre.size else np.inf
    return float(min(np.min(np.abs(pre - sys.f.lo)), np.min(np.abs(pre - sys.f.hi))))


def pipeline_cost(sys: PhysicalSystem, masks: MaskSet, xs, targets,
                  a: Signal | None = None) -> float:
    """Quadratic end-to-end cost 0.5 sum_i |y_i - t_i|^2 (the grad_check cost).

    a, if given, is the state trace forward(sys, encode_inputs(xs, masks)).a of
    a noise-free plant; only the output map then runs, and the cost is bit for
    bit that of the full forward run.  Changing an OUTPUT_SIDE block keeps a.
    """
    s = encode_inputs(xs, masks)
    o = forward(sys, s).o if a is None else Signal._own(output_map(sys, s, a), s.dt)
    ys = decode_outputs(o, masks)
    return 0.5 * float(np.sum((ys - np.asarray(targets)) ** 2))


def pipeline_gradients(sys: PhysicalSystem, masks: MaskSet, xs, targets,
                       medium: PhysicalSystem | None = None) -> dict:
    """Physically-backpropagated gradients of pipeline_cost for all 8 blocks.

    medium is the plant the error is played back through (default: sys
    itself, whose reciprocity makes the backward run the exact adjoint).
    """
    s = encode_inputs(xs, masks)
    tr = forward(sys, s)
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


def grad_check(cfg: GradCheckConfig, seed: int, break_adjoint: bool = False) -> GradCheckReport:
    """Compare physical gradients to the FD oracle over random toy pipelines.

    break_adjoint plays the error back through _non_reciprocal(plant) -- a
    deliberate corruption that must make the check fail (negative control).
    Forward runs and the FD losses stay on the true plant.  The probes of
    OUTPUT_SIDE blocks share one state trace per toy.
    """
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in ALL_BLOCKS}
    for _ in range(cfg.n_systems):
        sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
        grads = pipeline_gradients(sys, masks, xs, targets,
                                   medium=_non_reciprocal(sys) if break_adjoint else None)
        state = forward(sys, encode_inputs(xs, masks)).a

        for name in KERNEL_BLOCKS:
            kern: Kernel = getattr(sys, name)
            # w_aa tap 0 is pinned to zero by strict causality; FD runs over
            # the free taps only
            lag0 = 1 if name == "w_aa" else 0
            free = kern.taps[lag0:]

            def loss(flat, _name=name, _shape=free.shape, _lag0=lag0,
                     _full=kern.taps, _a=state if name in OUTPUT_SIDE else None):
                taps = _full.copy()
                taps[_lag0:] = flat.reshape(_shape)
                return pipeline_cost(sys.with_kernel(_name, taps), masks, xs, targets, _a)

            fd = finite_difference_gradient(loss, free.ravel(), cfg.eps,
                                            threads=cfg.threads)
            worst[name] = max(worst[name], relative_error(grads[name][lag0:], fd))

        for name in MASK_BLOCKS:
            ref = getattr(masks, name)

            def loss(flat, _name=name, _shape=ref.shape,
                     _a=state if name in OUTPUT_SIDE else None):
                return pipeline_cost(sys, masks.replace(**{_name: flat.reshape(_shape)}),
                                     xs, targets, _a)

            fd = finite_difference_gradient(loss, ref.ravel(), cfg.eps,
                                            threads=cfg.threads)
            worst[name] = max(worst[name], relative_error(grads[name], fd))

    report = GradCheckReport(threshold=cfg.threshold)
    for name in ALL_BLOCKS:
        report.entries.append((name, worst[name], worst[name] < cfg.threshold))
    return report
