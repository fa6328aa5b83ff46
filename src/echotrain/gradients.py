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
from .system import (KERNELS as KERNEL_BLOCKS, BackwardTrace, ForwardTrace, Nonlinearity,
                     PhysicalSystem, _activate, _causal_feedback, _jacobian, backward, forward)

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


def _probe_points(theta, coords, eps: float, probe_bytes: int, lead: bool = False):
    """Chunks of probe points: rows theta + eps e_j and theta - eps e_j in turn for each j
    of coords, after theta itself if lead; a chunk of rows of probe_bytes each holds
    <= _STACK_BYTES."""
    step = max(1, _STACK_BYTES // max(probe_bytes, 1))
    for lo in range(-lead, 2 * coords.size, step):
        rows = np.arange(lo, min(lo + step, 2 * coords.size))  # row -1 is theta itself
        points, moved = np.tile(theta, (rows.size, 1)), rows >= 0
        points[moved, coords[rows[moved] // 2]] += np.where(rows[moved] % 2, -eps, eps)
        yield points


def _central_differences(losses, coords, eps: float) -> np.ndarray:
    """(loss(theta + eps e_j) - loss(theta - eps e_j)) / 2 eps for each j of coords, from
    the losses of the probe rows of _probe_points(theta, coords, eps, ...) in turn."""
    pairs = np.reshape(losses, (-1, 2))
    bad = ~np.isfinite(pairs).all(axis=1)
    if bad.any():
        raise NumericError(f"loss non-finite at coordinate {coords[np.argmax(bad)]}")
    return (pairs[:, 0] - pairs[:, 1]) / (2.0 * eps)


def finite_difference_gradient(loss, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central differences (loss(theta+eps e_j) - loss(theta-eps e_j)) / 2 eps.

    loss must be deterministic (noise off / fixed seed).
    """
    if not (eps > 0.0):
        raise ConfigurationError(f"eps must be positive, got {eps}")
    theta, coords = np.asarray(theta, dtype=np.float64).ravel(), np.arange(np.size(theta))
    losses = [loss(p) for ps in _probe_points(theta, coords, eps, 8 * theta.size) for p in ps]
    return _central_differences(losses, coords, eps)


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
    threads: int = 1  # only 1: perfbench/workload.py passes it until ROADMAP item 1 drops it

    def __post_init__(self):
        if not (isinstance(self.threads, (int, np.integer)) and self.threads == 1):
            raise ConfigurationError(f"threads must be 1, got {self.threads!r}", "threads")
        for name in ("n_systems", "n_in", "n_state", "n_out", "dim_x", "dim_y",
                     "kernel_len", "period", "instances"):
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
    """random_toy_pipeline's draw with the accepted toy's encoded input s, clean forward
    trace tr and state-side probe stack: (sys, masks, xs, targets, s, tr, _side_stack(...)).
    Each attempt runs its toy as the lead row of that stack, and s, tr and the kink test
    (is every pre-activation sample over kink_margin from a kink of f?) read that row."""
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
        sys = PhysicalSystem(w_sa=Kernel(taps(cfg.n_state, cfg.n_in), dt), w_aa=Kernel(aa, dt),
                             w_so=Kernel(taps(cfg.n_out, cfg.n_in), dt),
                             w_ao=Kernel(taps(cfg.n_out, cfg.n_state), dt), f=f)
        masks = MaskSet(m=rng.standard_normal((cfg.n_in, cfg.dim_x, cfg.period)),
                        u=rng.standard_normal((cfg.dim_y, cfg.n_out, cfg.period)),
                        s_b=0.3 * rng.standard_normal((cfg.n_in, cfg.period)),
                        y_b=0.3 * rng.standard_normal(cfg.dim_y), period=cfg.period, dt=dt)
        xs = rng.standard_normal((cfg.instances, cfg.dim_x))
        targets = rng.standard_normal((cfg.instances, cfg.dim_y))
        state = _side_stack(sys, masks, xs, STATE_SIDE, cfg.eps)
        s, a, o = (Signal._own(v, dt) for v in state[1])  # the lead row: the toy's own run
        tr = ForwardTrace(a, o, _jacobian(f, a.samples))
        pre = convolve(sys.w_sa, s).samples + convolve(sys.w_aa, a).samples  # f's argument
        kinks = {"rectifier": (0.0,), "clip": (f.lo, f.hi)}.get(f.kind, ())  # where f bends
        if min((np.min(np.abs(pre - k)) for k in kinks), default=np.inf) > cfg.kink_margin:
            return sys, masks, xs, targets, s, tr, state
    raise ConfigurationError("could not draw a kink-safe toy system; widen margins")


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
    """The clean decoded outputs (P, n, dim_y) of P probes and copies of the first one's
    traces x, a, o: stacks maps blocks to stacks of P members, the others are the toy's
    own [None].  Without toy the probes run the state equation as one batched recursion;
    output-side probes keep the toy's input and state toy = (x, a), stacks of one each."""
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
    return _decode_stack(o, mask["u"], mask["y_b"], sys.dt), *(v[0].copy() for v in (x, a, o))


def _side_stack(sys: PhysicalSystem, masks: MaskSet, xs: np.ndarray, side: tuple, eps: float,
                toy: tuple | None = None) -> tuple:
    """Run the probes of side's blocks in _probe_points' chunks of their row (the blocks in
    turn; w_aa's tap 0 is zero, not a parameter, and not probed): (ys, lead, ends, free)
    are the probes' decoded outputs, the traces [x, a, o] of the toy's own row, which
    leads the state side (toy None; else lead is None), where each block but the last
    ends in the row, and which coordinates are probed.  Output sides keep toy = (x, a)."""
    full = [getattr(sys, k).taps if k in KERNEL_BLOCKS else getattr(masks, k) for k in side]
    whole = np.concatenate([w.ravel() for w in full])
    ends = np.cumsum([w.size for w in full])[:-1]
    free = np.concatenate([np.arange(w.size) >= w[0].size * (k == "w_aa")
                           for k, w in zip(side, full)])
    # a probe's point and blocks, traces (w_so * s, w_ao * a, sum; the state side's input
    # product and sum, drive, state, recursion buffer) and outputs (product, sum)
    traces = 3 * sys.n_outputs + (2 * sys.n_inputs + 3 * sys.n_state) * (toy is None)
    probe_bytes = 8 * (2 * whole.size + (traces * masks.period + 2 * masks.y_b.size) * len(xs))
    ys, lead = [], None
    for rows in _probe_points(whole, free.nonzero()[0], eps, probe_bytes, toy is None):
        stacks = {k: np.ascontiguousarray(col).reshape((len(rows),) + w.shape)
                  for k, w, col in zip(side, full, np.split(rows, ends, axis=1))}
        # a diverging probe's outputs are non-finite, which _central_differences reports
        with np.errstate(over="ignore", invalid="ignore"):
            y, *first = _probe_outputs(sys, masks, xs, stacks, toy)
        if toy is None and lead is None:  # row 0 of the first chunk is the toy
            lead, y = first, y[1:]
        ys.append(y)
    return np.concatenate(ys), lead, ends, free


def grad_check(cfg: GradCheckConfig, seed: int, break_adjoint: bool = False) -> GradCheckReport:
    """Compare physical gradients to the FD oracle over random toy pipelines.

    break_adjoint plays the error back through _non_reciprocal(plant) -- a
    deliberate corruption that must make the check fail (negative control).
    Forward runs and the FD losses stay on the true plant.  A toy's probes run
    as two stacks (_side_stack), one per side of the state equation.  The draw
    runs the state side led by the toy's own row, whose input and trace feed
    the gradient run and the output side: grad_check runs no forward.  Each
    probe is one pipeline_cost call on its decoded outputs.
    """
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in ALL_BLOCKS}
    for _ in range(cfg.n_systems):
        sys, masks, xs, targets, s, tr, state = _draw_toy(cfg, rng)
        grads = _trace_gradients(sys, masks, xs, targets, s, tr,
                                 _non_reciprocal(sys) if break_adjoint else None)
        toy = (s.samples[None], tr.a.samples[None])  # the draw's input and state
        output = _side_stack(sys, masks, xs, OUTPUT_SIDE, cfg.eps, toy)
        for side, (ys, _, ends, free) in ((STATE_SIDE, state), (OUTPUT_SIDE, output)):
            fd = np.zeros(free.size)
            with np.errstate(over="ignore", invalid="ignore"):  # as in _side_stack
                losses = [pipeline_cost(y, targets) for y in ys]
            fd[free] = _central_differences(losses, free.nonzero()[0], cfg.eps)
            g = np.concatenate([grads[k].ravel() for k in side])
            for k, gk, fk, ok in zip(side, *(np.split(v, ends) for v in (g, fd, free))):
                worst[k] = max(worst[k], relative_error(gk[ok], fk[ok]))

    return GradCheckReport([(k, worst[k], worst[k] < cfg.threshold) for k in ALL_BLOCKS],
                           cfg.threshold)
