"""Benchmark sequence generators and metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DimensionError, UndefinedMetricError


@dataclass(frozen=True)
class SequenceDataset:
    """inputs (n, dim_x), targets (n, dim_y), cost_mask (n,) validity flags."""

    inputs: np.ndarray
    targets: np.ndarray
    cost_mask: np.ndarray

    def __post_init__(self):
        inp = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        tgt = np.atleast_2d(np.asarray(self.targets, dtype=np.float64))
        msk = np.asarray(self.cost_mask, dtype=bool)
        if not (len(inp) == len(tgt) == len(msk)):
            raise DimensionError("inputs, targets and cost_mask must share length")
        if not (np.isfinite(inp).all() and np.isfinite(tgt).all()):
            raise ConfigurationError("dataset has non-finite values")
        object.__setattr__(self, "inputs", inp)
        object.__setattr__(self, "targets", tgt)
        object.__setattr__(self, "cost_mask", msk)

    def __len__(self) -> int:
        return len(self.inputs)


def gen_variable_delay(n: int, rng: np.random.Generator) -> SequenceDataset:
    """Scalar q_i i.i.d. from {0,1,2}; target y_i = q_{i - q_i}.

    The delay depends on the current input, so no linear filter solves it.
    The first two instances are excluded from the cost (lookback undefined).
    """
    if n < 3:
        raise ConfigurationError(f"need n >= 3, got {n}")
    q = rng.integers(0, 3, size=n)
    y = np.zeros(n)
    y[2:] = q[np.arange(2, n) - q[2:]]
    mask = np.arange(n) >= 2
    return SequenceDataset(q.astype(np.float64)[:, None], y[:, None], mask)


def gen_synthetic_labels(n: int, n_classes: int, input_dim: int,
                         rng: np.random.Generator, window: int = 3) -> SequenceDataset:
    """Frame-labeling stand-in task with one-hot targets.

    Inputs follow a stationary AR(1) process per channel,
    u_i = ar * u_{i-1} + sqrt(1 - ar^2) * xi_i with ar = 0.8 (unit marginal
    variance).
    The label of frame i quantizes the mean of channel 0 over the last
    `window` frames at the exact Gaussian quantiles for that window mean, so
    classes are equiprobable by construction.  Frames with incomplete windows
    are masked out.
    """
    if n_classes < 2:
        raise ConfigurationError(f"need at least 2 classes, got {n_classes}")
    if input_dim < 1:
        raise ConfigurationError(f"need at least 1 input channel, got {input_dim}")
    if window < 1 or n < window:
        raise ConfigurationError("window must satisfy 1 <= window <= n")
    # imported here: statistics loads decimal and fractions (about 0.4 MB),
    # which only runs of this task need
    from statistics import NormalDist

    ar = 0.8
    # one draw is the same stream as one standard_normal(input_dim) per row
    u = rng.standard_normal((n, input_dim))
    innov = np.sqrt(1.0 - ar * ar)
    for i in range(1, n):
        u[i] = ar * u[i - 1] + innov * u[i]

    # window-mean variance of the stationary AR(1) channel
    w = window
    var = (w + 2.0 * sum((w - L) * ar ** L for L in range(1, w))) / (w * w)
    quantiles = [NormalDist().inv_cdf(k / n_classes) for k in range(1, n_classes)]
    thresholds = np.array(quantiles) * np.sqrt(var)

    labels = np.searchsorted(thresholds, sliding_window_view(u[:, 0], w).mean(axis=1))
    targets = np.zeros((n, n_classes))
    targets[np.arange(w - 1, n), labels] = 1.0
    return SequenceDataset(u, targets, np.arange(n) >= w - 1)


def nrmse(pred, target, mask=None) -> float:
    """sqrt(mean((pred - target)^2)) / std(target) over masked instances."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.shape != target.shape:
        raise DimensionError("pred and target must have the same length")
    if mask is None:
        mask = np.ones(len(pred), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.sum() < 2:
        raise UndefinedMetricError("need at least two masked instances")
    p, t = pred[mask], target[mask]
    std = float(np.std(t))
    if std == 0.0:
        raise UndefinedMetricError("target variance is zero; NRMSE undefined")
    return float(np.sqrt(np.mean((p - t) ** 2)) / std)


def frame_error_rate(pred_labels, true_labels, mask=None) -> float:
    """Fraction of masked frames with a wrong label."""
    pred = np.asarray(pred_labels).ravel()
    true = np.asarray(true_labels).ravel()
    if pred.shape != true.shape:
        raise DimensionError("label sequences must have the same length")
    if mask is None:
        mask = np.ones(len(pred), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise UndefinedMetricError("empty mask; frame error rate undefined")
    return float(np.mean(pred[mask] != true[mask]))
