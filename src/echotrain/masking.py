"""Time-multiplexing codec between discrete sequences and continuous signals.

Each instance x_i of a discrete series becomes a P-sample segment

    s_i[t] = s_b[:, t] + m[:, :, t] @ x_i          t = 0..P-1

and output segments decode through the dt-weighted sum

    y_i = y_b + dt * sum_t u[:, :, t] @ o_i[:, t].

Output errors e_i = dC/dy_i re-enter the plant as e_o segments u[:, :, t].T @ e_i
(gradient density; the dt sample weight from the decode sum is what makes
dC/do[sample] = dt * e_o[sample]).  Mask gradients below are the exact
gradients of the end-to-end discrete cost, finite-difference validated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DimensionError, LengthError, NumericError
from .signal import Signal, _as_readonly_f64, _positive_dt


@dataclass(frozen=True)
class MaskSet:
    """Input mask m (N, dim_x, P), output mask u (dim_y, M, P), bias trace
    s_b (N, P), bias vector y_b (dim_y), masking period P, sample period dt."""

    m: np.ndarray
    u: np.ndarray
    s_b: np.ndarray
    y_b: np.ndarray
    period: int
    dt: float

    def __post_init__(self):
        P = int(self.period)
        if P < 1:
            raise ConfigurationError(f"period must be positive, got {self.period}", "period")
        for name, ndim in (("m", 3), ("u", 3), ("s_b", 2), ("y_b", 1)):
            # copied, as Signal(...) and Kernel copy, so the caller's arrays stay
            # its own; a member of another MaskSet (read-only, owning its data)
            # is shared, so replace() copies only the members it changes
            arr = getattr(self, name)
            shared = isinstance(arr, np.ndarray) and arr.base is None and not arr.flags.writeable
            object.__setattr__(self, name, _as_readonly_f64(arr, ndim, f"mask member {name}",
                                                            copy=not shared))
        m, u, s_b, y_b = self.m, self.u, self.s_b, self.y_b
        if not (m.shape[2] == u.shape[2] == s_b.shape[1] == P):
            raise ConfigurationError("all mask members must share the period P")
        if m.shape[0] != s_b.shape[0]:
            raise DimensionError("m and s_b disagree on input channel count")
        if u.shape[0] != y_b.shape[0]:
            raise DimensionError("u and y_b disagree on output dimension")
        object.__setattr__(self, "period", P)
        object.__setattr__(self, "dt", _positive_dt(self.dt))

    @staticmethod
    def zeros(n_in: int, dim_x: int, n_out: int, dim_y: int, period: int,
              dt: float) -> "MaskSet":
        """All-zero masks of the given shape (a template for train())."""
        if period < 1:
            raise ConfigurationError(f"period must be positive, got {period}", "period")
        gib = 8 * period * (n_in * (dim_x + 1) + dim_y * n_out) / 2**30  # m, s_b and u
        if gib > 1.0:  # refused before any is allocated
            raise ConfigurationError(f"period {period} asks for {gib:.3g} GiB of masks, "
                                     "over the 1 GiB bound", "period")
        members = {"m": np.zeros((n_in, dim_x, period)), "u": np.zeros((dim_y, n_out, period)),
                   "s_b": np.zeros((n_in, period)), "y_b": np.zeros(dim_y)}
        for arr in members.values():  # read-only and owning its data: shared, not copied
            arr.flags.writeable = False
        return MaskSet(**members, period=period, dt=dt)

    @property
    def n_in(self) -> int:
        return self.m.shape[0]

    @property
    def dim_x(self) -> int:
        return self.m.shape[1]

    @property
    def n_out(self) -> int:
        return self.u.shape[1]

    @property
    def dim_y(self) -> int:
        return self.u.shape[0]

    def replace(self, **kw) -> "MaskSet":
        return replace(self, **kw)


def init_masks(n_in: int, dim_x: int, n_out: int, dim_y: int, period: int, dt: float,
               std_m: float, std_u: float, rng: np.random.Generator) -> MaskSet:
    """Fresh masks: i.i.d. zero-mean Gaussian m and u, zero bias trace/vector."""
    return MaskSet(
        m=std_m * rng.standard_normal((n_in, dim_x, period)),
        u=std_u * rng.standard_normal((dim_y, n_out, period)),
        s_b=np.zeros((n_in, period)),
        y_b=np.zeros(dim_y),
        period=period,
        dt=dt,
    )


def _as_instances(xs, dim, name):
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionError(f"{name} must be (n, {dim}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{name} has non-finite values")
    return arr


def _encode_stack(m: np.ndarray, s_b: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """encode_inputs over stacks of masks: m (Q|1, N, dim_x, P) and s_b (Q|1, N, P)
    give the Q encoded inputs (Q, N, n*P) of the checked instances xs (n, dim_x)."""
    segs = np.einsum("qrcp,ic->qrip", m, xs) + s_b[:, :, None, :]  # (Q, N, n, P)
    return segs.reshape(len(segs), m.shape[1], -1)


def _decode_stack(o: np.ndarray, u: np.ndarray, y_b: np.ndarray, dt: float) -> np.ndarray:
    """decode_outputs over stacks: outputs o (Q|1, M, n*P) through u (Q|1, dim_y, M, P)
    and y_b (Q|1, dim_y) give the Q decoded outputs (Q, n, dim_y)."""
    segs = o.reshape(len(o), o.shape[1], -1, u.shape[-1])  # (Q|1, M, n, P)
    return dt * np.einsum("qdcp,qcip->qid", u, segs) + y_b[:, None, :]


def encode_inputs(xs, masks: MaskSet) -> Signal:
    """Concatenate segments s_b + m @ x_i; one period per instance."""
    xs = _as_instances(xs, masks.dim_x, "xs")
    return Signal._own(_encode_stack(masks.m[None], masks.s_b[None], xs)[0], masks.dt)


def decode_outputs(o: Signal, masks: MaskSet) -> np.ndarray:
    """y_i = y_b + dt * sum_t u[:, :, t] @ o_i[:, t]; returns (n, dim_y)."""
    if o.channels != masks.n_out:
        raise DimensionError(
            f"output signal has {o.channels} channels, masks expect {masks.n_out}")
    P = masks.period
    if o.n_samples % P:
        raise LengthError(f"signal length {o.n_samples} not divisible by period {P}")
    return _decode_stack(o.samples[None], masks.u[None], masks.y_b[None], o.dt)[0]


def encode_output_errors(errs, masks: MaskSet) -> Signal:
    """Error segments u[:, :, t].T @ e_i (no bias); mirrors encode_inputs."""
    errs = _as_instances(errs, masks.dim_y, "errs")
    segs = np.einsum("dcp,id->icp", masks.u, errs)  # (n, M, P)
    n, M, P = segs.shape
    return Signal._own(segs.transpose(1, 0, 2).reshape(M, n * P), masks.dt)


def _segments_of(sig: Signal, rows, name: str):
    """rows as (n, d), a 1-D array as (n, 1), and sig's n instance segments (n, channels, P)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    if len(rows) == 0:
        raise LengthError("need at least one instance")
    if sig.n_samples != 0 and sig.n_samples % len(rows):
        raise LengthError(
            f"{name} length {sig.n_samples} not divisible into {len(rows)} instances")
    return rows, sig.samples.reshape(sig.channels, len(rows), -1).transpose(1, 0, 2)


def input_mask_gradient(e_s: Signal, xs):
    """Exact cost gradients (dm, ds_b) from the backward input error.

    e_s is a gradient density (dC/ds[sample] = dt * e_s[sample]), so the
    per-sample mask gradient carries one dt factor:
        dm[:, :, t] = dt * sum_i e_s_i[:, t] x_i^T,   ds_b[:, t] = dt * sum_i e_s_i[:, t]
    """
    xs, segs = _segments_of(e_s, xs, "e_s")  # (n, N, P)
    dm = e_s.dt * np.einsum("irp,ic->rcp", segs, xs)
    ds_b = e_s.dt * segs.sum(axis=0)
    return dm, ds_b


def output_mask_gradient(errs, o: Signal):
    """Exact cost gradients (du, dy_b) from output errors and the recorded output:
    du[:, :, t] = dt * sum_i e_i o_i[:, t]^T,   dy_b = sum_i e_i."""
    errs, segs = _segments_of(o, errs, "o")  # (n, M, P)
    du = o.dt * np.einsum("id,icp->dcp", errs, segs)
    dy_b = errs.sum(axis=0)
    return du, dy_b


def masks_to_csv(masks: MaskSet, path) -> None:
    """One row per mask sample t; columns m_<r>_<c>, sb_<r>, u_<d>_<c>."""
    cols = ["t"]
    cols += [f"m_{r}_{c}" for r in range(masks.n_in) for c in range(masks.dim_x)]
    cols += [f"sb_{r}" for r in range(masks.n_in)]
    cols += [f"u_{d}_{c}" for d in range(masks.dim_y) for c in range(masks.n_out)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for t in range(masks.period):
            vals = [str(t)]
            vals += [repr(float(v)) for v in masks.m[:, :, t].ravel()]
            vals += [repr(float(v)) for v in masks.s_b[:, t]]
            vals += [repr(float(v)) for v in masks.u[:, :, t].ravel()]
            fh.write(",".join(vals) + "\n")
