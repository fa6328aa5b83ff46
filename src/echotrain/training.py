"""End-to-end optimization loop: encode, run the plant, decode, inject the
time-reversed error, assemble gradients, normalize per block, descend.

Conventions from the experiments this reproduces: per-block L2 gradient
normalization (the absolute scale of the injected error signal is lost on the
physical backward path, so only the direction is trusted), plain gradient
descent, and a learning rate that decays linearly to zero.
"""

from __future__ import annotations

import ctypes
import functools
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DivergenceError, NumericError, UndefinedMetricError
from .gradients import ALL_BLOCKS, KERNEL_BLOCKS, MASK_BLOCKS, kernel_gradients
from .masking import (
    MaskSet,
    decode_outputs,
    encode_inputs,
    encode_output_errors,
    init_masks,
    input_mask_gradient,
    output_mask_gradient,
)
from .signal import Kernel
from .system import PhysicalSystem, backward, forward
from .tasks import SequenceDataset, frame_error_rate, gen_synthetic_labels, gen_variable_delay, nrmse


def mse_cost(pred: np.ndarray, target: np.ndarray, mask: np.ndarray):
    """cost = 0.5 sum_masked |pred - target|^2 / count; errs = dC/dpred."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise UndefinedMetricError("empty cost mask")
    diff = np.where(mask[:, None], pred - target, 0.0)
    with np.errstate(over="ignore"):  # inf cost is caught as divergence upstream
        cost = 0.5 * float(np.sum(diff**2)) / count
    return cost, diff / count


def softmax_ce_cost(pred_logits: np.ndarray, onehot: np.ndarray, mask: np.ndarray):
    """Mean softmax cross-entropy over masked frames; errs = dC/dlogits."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise UndefinedMetricError("empty cost mask")
    z = pred_logits - pred_logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    p = expz / expz.sum(axis=1, keepdims=True)
    logp = z - np.log(expz.sum(axis=1, keepdims=True))
    cost = -float(np.sum(onehot[mask] * logp[mask])) / count
    errs = np.where(mask[:, None], p - onehot, 0.0) / count
    return cost, errs


def normalize_gradient(g: np.ndarray) -> np.ndarray:
    """g / |g|_2 per block; an all-zero block stays zero."""
    g = np.asarray(g, dtype=np.float64)
    norm = float(np.linalg.norm(g))
    return g if norm == 0.0 else g / norm


@dataclass
class Task:
    """Adapter binding a generator to a cost and a metric."""

    name: str
    dim_x: int
    dim_y: int
    kind: str  # "regression" | "classification"
    sample: callable = None  # (n, rng) -> SequenceDataset

    def cost(self, pred: np.ndarray, data: SequenceDataset):
        if self.kind == "regression":
            return mse_cost(pred, data.targets, data.cost_mask)
        return softmax_ce_cost(pred, data.targets, data.cost_mask)

    def metric(self, pred: np.ndarray, data: SequenceDataset) -> float:
        """Batch metric; NaN when undefined for this batch (e.g. a degenerate
        small batch with zero target variance) -- the run itself continues."""
        try:
            if self.kind == "regression":
                m = np.repeat(data.cost_mask, data.targets.shape[1])
                return nrmse(pred.ravel(), data.targets.ravel(), m)
            return frame_error_rate(np.argmax(pred, axis=1),
                                    np.argmax(data.targets, axis=1), data.cost_mask)
        except UndefinedMetricError:
            return float("nan")

    @property
    def metric_name(self) -> str:
        return "nrmse" if self.kind == "regression" else "frame_error"


def variable_delay_task() -> Task:
    return Task(name="variable_delay", dim_x=1, dim_y=1, kind="regression",
                sample=gen_variable_delay)


def synthetic_label_task(n_classes: int = 4, input_dim: int = 8,
                         window: int = 3) -> Task:
    for name, val, least in (("n_classes", n_classes, 2), ("input_dim", input_dim, 1),
                             ("window", window, 1)):
        if val < least:
            raise ConfigurationError(f"synthetic labels need {name} >= {least}, got {val}", name)

    def sample(n, rng):
        return gen_synthetic_labels(n, n_classes, input_dim, rng, window=window)

    return Task(name="synthetic_labels", dim_x=input_dim, dim_y=n_classes,
                kind="classification", sample=sample)


def delayed_copy_task(delay: int = 1) -> Task:
    """Linear sanity task: reproduce the input from `delay` instances ago."""
    if delay < 0:  # np.roll would wrap the batch's first inputs round to its end
        raise ConfigurationError(f"delayed copy needs delay >= 0, got {delay}", "delay")

    def sample(n, rng):
        x = rng.standard_normal(n)
        y = np.roll(x, delay)
        mask = np.ones(n, dtype=bool)
        mask[:delay] = False
        return SequenceDataset(x[:, None], y[:, None], mask)

    return Task(name=f"delayed_copy_{delay}", dim_x=1, dim_y=1,
                kind="regression", sample=sample)


TASKS = {
    "variable_delay": variable_delay_task,
    "synthetic_labels": synthetic_label_task,
    "delayed_copy": delayed_copy_task,
}


@dataclass
class TrainConfig:
    iterations: int = 5000
    batch_len: int = 100
    lr0: float = 0.25
    init_std_input_mask: float = float(np.sqrt(0.2))   # variance 0.2
    init_std_output_mask: float = float(np.sqrt(0.1))  # variance 0.1
    trainable: tuple = ("m", "u")
    seed: int = 0
    noise_repeats: int = 1
    w_aa_gain_bound: float | None = None  # entrywise clip of dt * w_aa taps
    init_masks: bool = True

    def __post_init__(self):
        for name in ("iterations", "batch_len", "noise_repeats"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}", name)
        for name in ("lr0", "init_std_input_mask", "init_std_output_mask", "w_aa_gain_bound"):
            val = getattr(self, name)  # w_aa_gain_bound None: no bound
            if not (val is None and name == "w_aa_gain_bound" or 0.0 <= val < np.inf):
                raise ConfigurationError(f"{name} must be non-negative and finite, got {val}", name)
        bad = set(self.trainable) - set(ALL_BLOCKS)
        if bad:
            raise ConfigurationError(f"unknown trainable blocks: {sorted(bad)}", "trainable")

    def lr(self, iteration: int) -> float:
        return self.lr0 * (1.0 - iteration / self.iterations)


@dataclass
class TrainingLog:
    metric_name: str = "metric"
    records: list = field(default_factory=list)  # (iter, cost, metric, lr, seconds)

    def append(self, iteration, cost, metric, lr, seconds):
        self.records.append((int(iteration), float(cost), float(metric),
                             float(lr), float(seconds)))

    @property
    def costs(self) -> np.ndarray:
        return np.array([r[1] for r in self.records])

    @property
    def metrics(self) -> np.ndarray:
        return np.array([r[2] for r in self.records])

    def to_csv(self, path, include_seconds: bool = False) -> None:
        """Deterministic columns by default; seconds are wall time and only
        belong in the timing variant."""
        with open(path, "w") as fh:
            cols = "iter,cost,metric,lr"
            fh.write(cols + (",seconds\n" if include_seconds else "\n"))
            for it, cost, metric, lr, sec in self.records:
                row = f"{it},{cost!r},{metric!r},{lr!r}"
                fh.write(row + (f",{sec!r}\n" if include_seconds else "\n"))


def window_means(values: np.ndarray, window: int) -> np.ndarray:
    """Means over disjoint windows (trend diagnostics for learning curves)."""
    values = np.asarray(values, dtype=np.float64)
    k = len(values) // window
    if k == 0:
        return np.array([values.mean()]) if len(values) else np.array([])
    return values[: k * window].reshape(k, window).mean(axis=1)


def _batch_gradients(system, masks, task, data, trainable, rng_noise):
    """One physical forward/backward pass; gradients for the trainable blocks."""
    s = encode_inputs(data.inputs, masks)
    tr = forward(system, s, rng_noise)
    ys = decode_outputs(tr.o, masks)
    cost, errs = task.cost(ys, data)
    bw = backward(system, tr, encode_output_errors(errs, masks), rng_noise)

    # tap gradients only at the live lags, the only ones apply_update keeps
    wanted = {k: getattr(system, k).nonzero_lags() for k in KERNEL_BLOCKS if k in trainable}
    grads = kernel_gradients(system, tr, bw, s, blocks=wanted) if wanted else {}
    if "m" in trainable or "s_b" in trainable:
        grads["m"], grads["s_b"] = input_mask_gradient(bw.e_s, data.inputs)
    if "u" in trainable or "y_b" in trainable:
        grads["u"], grads["y_b"] = output_mask_gradient(errs, tr.o)
    return cost, ys, {k: grads[k] for k in trainable}


def apply_update(system: PhysicalSystem, masks: MaskSet, grads: dict,
                 lr: float, cfg: TrainConfig):
    """theta <- theta - lr * g/|g| per block, plus constraint projections.

    Kernel updates preserve the kernel's sparsity structure: an all-zero lag
    is a structural void (a delay the hardware does not provide), so the
    gradient is projected onto the live lags before normalization.
    """
    mask_updates = {}
    for name in MASK_BLOCKS:
        g = grads.get(name)
        if g is not None:
            mask_updates[name] = getattr(masks, name) - lr * normalize_gradient(g)
    if mask_updates:
        masks = masks.replace(**mask_updates)

    for name in KERNEL_BLOCKS:
        g = grads.get(name)
        if g is None:
            continue
        kern: Kernel = getattr(system, name)
        live = kern.nonzero_lags()
        if live.size == 0:
            continue  # fully structural kernel; nothing tunable
        g_live = np.zeros_like(g)
        g_live[live] = g[live]
        taps = kern.taps - lr * normalize_gradient(g_live)
        if name == "w_aa":
            taps[0] = 0.0  # strict causality, regardless of structure
            if cfg.w_aa_gain_bound is not None:
                bound = cfg.w_aa_gain_bound / system.dt
                taps = np.clip(taps, -bound, bound)
        system = system.with_kernel(name, taps)
    return system, masks


@functools.cache
def _keep_freed_heap():
    """Pin glibc's heap thresholds at the ceiling of their own dynamic range.

    By default glibc maps each array above its mmap threshold afresh and hands
    free memory at the top of the heap back to the kernel once it passes the
    trim threshold (twice the mmap threshold, about 1.6 MB after the first
    100k-sample trace is freed).  An iteration frees its traces when it ends,
    so the next one faults every page in again: about 3500 minor faults
    (14 MB) per 40 kHz iteration, a fifth of its time spent in the kernel at a
    cost per fault that varies with the host's load.  Kept for reuse, freed
    memory costs no faults.  No-op on C libraries other than glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's dynamic maximum
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as glibc pairs them


def train(system: PhysicalSystem, mask_template: MaskSet, task: Task,
          cfg: TrainConfig, rng: np.random.Generator | None = None):
    """Run the training loop; returns (TrainingLog, final system, final masks).

    Each iteration draws a fresh batch, runs it through the plant, injects the
    output error backwards, and updates every trainable block with the
    normalized gradient.  cfg.noise_repeats > 1 re-measures the same batch and
    averages the noisy gradient estimates before the update (apply_update:
    plain normalized gradient descent with the linear learning-rate decay).
    """
    _keep_freed_heap()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    masks = mask_template
    if cfg.init_masks:
        masks = init_masks(
            mask_template.n_in, task.dim_x, mask_template.n_out, task.dim_y,
            mask_template.period, mask_template.dt,
            cfg.init_std_input_mask, cfg.init_std_output_mask, rng)
    if masks.dt != system.dt:
        raise ConfigurationError("mask dt must match the system dt")

    noise_rng = rng if system.noise is not None else None
    log = TrainingLog(metric_name=task.metric_name)
    t0 = time.perf_counter()
    for it in range(cfg.iterations):
        data = task.sample(cfg.batch_len, rng)
        try:  # one (cost, ys, grads) per measurement of the batch
            runs = [_batch_gradients(system, masks, task, data, cfg.trainable, noise_rng)
                    for _ in range(cfg.noise_repeats)]
        except NumericError as exc:  # the plant or its parameters blew up mid-simulation
            raise DivergenceError(f"diverged at iteration {it}: {exc}", log=log)
        cost = sum(run[0] for run in runs) / cfg.noise_repeats
        if not np.isfinite(cost):
            raise DivergenceError(f"cost diverged at iteration {it}", log=log)
        metric = task.metric(runs[0][1], data)
        total = functools.reduce(lambda a, b: {k: a[k] + b[k] for k in b}, [run[2] for run in runs])
        lr = cfg.lr(it)
        system, masks = apply_update(system, masks, total, lr, cfg)
        log.append(it, cost, metric, lr, time.perf_counter() - t0)
    return log, system, masks


def evaluate(system: PhysicalSystem, masks: MaskSet, task: Task, n: int,
             rng: np.random.Generator, noise_rng: np.random.Generator | None = None):
    """Metric of the trained pipeline on a freshly sampled sequence."""
    data = task.sample(n, rng)
    s = encode_inputs(data.inputs, masks)
    tr = forward(system, s, noise_rng if system.noise is not None else None)
    ys = decode_outputs(tr.o, masks)
    return task.metric(ys, data), ys, data
