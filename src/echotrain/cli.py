"""Batch experiment runner.

Subcommands:
    run          train a plant on a task from a config file; writes log.csv,
                 timing.csv, masks.csv, system.txt, summary.txt
    gradcheck    compare physical gradients against finite differences

Configs are flat text files with dotted keys (`plant.kind = acoustic`,
`train.lr0 = 0.25`); `#` starts a comment.  Bundled configs resolve by bare
name (see `echotrain run --config acoustic_delay_task`).  Exit codes: 0 ok,
1 failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, DivergenceError, NumericError
from .gradients import GradCheckConfig, grad_check
from .masking import MaskSet, masks_to_csv
from .models import (
    OpticalParams,
    TubeParams,
    make_acoustic_system,
    make_optical_system,
    make_tube_kernel,
    random_optical_weights,
)
from .serialize import load_system, save_system
from .system import _one_tube
from .training import (
    TASKS,
    TrainConfig,
    delayed_copy_task,
    evaluate,
    synthetic_label_task,
    train,
)

USAGE_EXIT = 2
FAIL_EXIT = 1


class UsageError(Exception):
    pass


def _parse(kind, text):
    if kind is tuple:  # a comma list, as train.trainable
        return tuple(t.strip() for t in text.split(","))
    if kind is bool:
        if text.lower() in ("1", "true", "on", "yes"):
            return True
        if text.lower() in ("0", "false", "off", "no"):
            return False
        raise ValueError(text)
    return kind(text)


_NOUNS = {int: "an integer", float: "a number", bool: "a boolean"}

# config key -> (constructor, parameter it sets).  A key the file leaves out
# keeps the parameter's default, and a key it sets is read as the default's
# type; a ConfigurationError naming the parameter is reported at the key's line.
SCHEMA = {
    "plant.tube_length_m": (TubeParams, "length_m"),
    "plant.reflection": (TubeParams, "reflection_coeff"),
    "plant.passband_low_hz": (TubeParams, "passband"),
    "plant.passband_high_hz": (TubeParams, "passband"),
    **{f"plant.{name}": (TubeParams, name) for name in (
        "speed_of_sound", "n_echoes", "kernel_len", "sample_rate", "loop_gain", "filter_taps")},
    **{f"plant.{name}": (OpticalParams, name) for name in (
        "n_nodes", "delay_samples", "snr_db", "weight_bound", "backward_clip",
        "backward_error_scale")},
    "plant.weight_scale": (random_optical_weights, "scale"),
    "plant.noise": (make_optical_system, "noise"),
    "mask.period": (MaskSet, "period"),
    **{f"task.{name}": (synthetic_label_task, name)
       for name in ("n_classes", "input_dim", "window")},
    "task.delay": (delayed_copy_task, "delay"),
    **{f"train.{name}": (TrainConfig, name) for name in (
        "iterations", "batch_len", "lr0", "init_std_input_mask", "init_std_output_mask",
        "trainable", "noise_repeats", "w_aa_gain_bound", "init_masks")},
    **{f"gradcheck.{name}": (GradCheckConfig, name) for name in (
        "n_systems", "n_in", "n_state", "n_out", "kernel_len", "period", "instances",
        "threshold")},
}


@dataclass
class ConfigFile:
    """Parsed key/value config with line numbers for diagnostics."""

    path: str
    values: dict = field(default_factory=dict)  # key -> (raw string, line)
    consumed: set = field(default_factory=set)

    @staticmethod
    def parse(path) -> "ConfigFile":
        cfg = ConfigFile(path=str(path))
        with open(path, "rb") as fh:  # bytes.splitlines: \n, \r and \r\n, as text mode reads
            for lineno, raw in enumerate(fh.read().splitlines(), start=1):
                try:
                    line = raw.decode("utf-8").split("#", 1)[0].strip()
                except UnicodeDecodeError:
                    raise UsageError(f"{path}:{lineno}: not UTF-8 text") from None
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                if not key or not val:
                    raise UsageError(f"{path}:{lineno}: empty key or value")
                if key in cfg.values:
                    raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
                cfg.values[key] = (val, lineno)
        return cfg

    def where(self, key) -> str:
        """'file:line' of key, or the file alone when key is not in it."""
        return f"{self.path}:{self.values[key][1]}" if key in self.values else self.path

    def get(self, key, kind, required=False, default=None, choices=None, minimum=None):
        """The value of key read as kind (str, int, float, bool, or tuple for a
        comma list), or default when the file does not set it."""
        if key not in self.values:
            if required:
                raise UsageError(f"{self.path}: missing required field {key!r}")
            return default
        self.consumed.add(key)
        raw = self.values[key][0]
        try:
            val = _parse(kind, raw)
        except ValueError:
            raise UsageError(
                f"{self.where(key)}: {key} must be {_NOUNS[kind]}, got {raw!r}") from None
        if choices is not None and val not in choices:
            raise UsageError(
                f"{self.where(key)}: {key} must be one of {sorted(choices)}, got {val!r}")
        if minimum is not None and val < minimum:
            raise UsageError(f"{self.where(key)}: {key} must be >= {minimum}, got {val}")
        return val

    def build(self, owner, *args, **given):
        """owner(*args, **given), given taking each parameter of owner that a
        key of the file sets, read as the type of the parameter's default (a
        number when that is None).  A ConfigurationError becomes a UsageError
        at the lines of the read keys whose parameters its fields name."""
        for key, (o, name) in SCHEMA.items():
            if o is owner and name not in given and key in self.values:
                default = inspect.signature(owner).parameters[name].default
                given[name] = self.get(key, float if default is None else type(default))
        try:
            return owner(*args, **given)
        except ConfigurationError as exc:
            keys = [key for f in exc.fields for key, (_, name) in SCHEMA.items()
                    if name == f and key in self.consumed]
            raise UsageError(f"{', '.join(map(self.where, keys)) or self.path}: {exc}") from None

    def reject_unknown(self):
        left = set(self.values) - self.consumed
        if left:
            key = sorted(left)[0]
            raise UsageError(f"{self.where(key)}: unknown field {key!r}")


def resolve_config_path(name_or_path: str) -> Path:
    p = Path(name_or_path)
    if p.exists():
        return p
    bundled = resources.files("echotrain").joinpath("configs", name_or_path + ".cfg")
    if bundled.is_file():
        return Path(str(bundled))
    raise UsageError(f"config {name_or_path!r} not found (no such file or bundled name)")


def bundled_config_names():
    cfg_dir = resources.files("echotrain").joinpath("configs")
    return sorted(f.name[:-4] for f in cfg_dir.iterdir() if f.name.endswith(".cfg"))


@dataclass
class Experiment:
    system: object
    template: MaskSet
    task: object
    train_cfg: TrainConfig
    seed: int
    eval_instances: int
    eval_seed: int


def build_experiment(cfg: ConfigFile, seed_override=None) -> Experiment:
    seed = cfg.get("seed", int, required=True, minimum=0)
    if seed_override is not None:
        seed = seed_override

    kind = cfg.get("plant.kind", str, required=True,
                   choices={"acoustic", "optical", "custom-file"})
    period = cfg.get("mask.period", int, required=kind != "custom-file")

    if kind == "acoustic":
        lo, hi = (cfg.get(f"plant.passband_{edge}_hz", float) for edge in ("low", "high"))
        if (lo is None) != (hi is None):
            edge = "plant.passband_low_hz" if hi is None else "plant.passband_high_hz"
            raise UsageError(f"{cfg.where(edge)}: give both or neither passband edge")
        params = cfg.build(TubeParams, **({} if lo is None else {"passband": (lo, hi)}))
        units = cfg.get("plant.time_units", str, default="samples",
                        choices={"samples", "seconds"})
        kernel_seed = cfg.get("plant.kernel_seed", int, default=seed, minimum=0)
        kernel = cfg.build(make_tube_kernel, params, np.random.default_rng(kernel_seed),
                           dt=1.0 if units == "samples" else params.dt)
        system, template = cfg.build(make_acoustic_system, kernel, period=period)
    elif kind == "optical":
        params = cfg.build(OpticalParams)
        weight_seed = cfg.get("plant.weight_seed", int, default=seed, minimum=0)
        W = cfg.build(random_optical_weights, params, np.random.default_rng(weight_seed))
        system = cfg.build(make_optical_system, params, W=W)
        template = None
    else:
        path = cfg.get("plant.file", str, required=True)
        if not Path(path).exists():
            raise UsageError(f"{cfg.path}: plant.file {path!r} does not exist")
        system, template = cfg.build(load_system, path)
        if template is None and period is None:
            raise UsageError(f"{cfg.path}: mask.period required when the plant "
                             "file carries no mask set")
    if template is None:
        # with train.init_masks on, train() reads only its channel counts, period and dt
        template = cfg.build(MaskSet.zeros, system.n_inputs, 1, system.n_outputs, 1, period,
                             system.dt)

    task = cfg.build(TASKS[cfg.get("task.kind", str, required=True, choices=set(TASKS))])
    train_cfg = cfg.build(TrainConfig, seed=seed,
                          iterations=cfg.get("train.iterations", int, required=True))
    if not train_cfg.init_masks and (template.dim_x != task.dim_x
                                     or template.dim_y != task.dim_y):
        raise UsageError(
            f"{cfg.path}: loaded masks are {template.dim_x}->{template.dim_y} "
            f"dimensional but the task is {task.dim_x}->{task.dim_y}")
    if _one_tube(system) and {"w_sa", "w_aa"} & set(train_cfg.trainable):
        raise UsageError(f"{cfg.where('train.trainable')}: the plant's one tube kernel "
                         "is both w_sa and w_aa; training either would untie them")
    eval_instances = cfg.get("eval.instances", int, default=0, minimum=0)
    for key, n in (("train.batch_len", train_cfg.batch_len), ("eval.instances", eval_instances)):
        if n == 0:  # eval.instances = 0: no evaluation
            continue
        # a sequence's dense float64 traces: the task's draw, then the plant's channels
        # over n * period samples; refused before the draw allocates them
        trace_bytes = 8 * n * (task.dim_x + task.dim_y + template.period * (
            system.n_inputs + system.n_state + system.n_outputs))
        if trace_bytes > 1 << 30:
            raise UsageError(f"{cfg.where(key)}: {key} = {n} asks for "
                             f"{trace_bytes / 2**30:.3g} GiB of traces, over the 1 GiB bound")
        try:  # one sequence from a throwaway generator: the run's own stays untouched
            batch = task.sample(n, np.random.default_rng(0))
            if not batch.cost_mask.any():
                raise ConfigurationError("no instance of a sequence enters the cost")
        except ConfigurationError as exc:
            raise UsageError(f"{cfg.where(key)}: {key} = {n} is too short for "
                             f"{task.name}: {exc}") from None

    exp = Experiment(
        system=system,
        template=template,
        task=task,
        train_cfg=train_cfg,
        seed=seed,
        eval_instances=eval_instances,
        eval_seed=cfg.get("eval.seed", int, default=12345, minimum=0),
    )
    cfg.reject_unknown()
    return exp


def cmd_run(args) -> int:
    import hashlib  # for the run manifest alone: importing the cli does not load it

    cfg_path = resolve_config_path(args.config)
    cfg_sha256 = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    exp = build_experiment(ConfigFile.parse(cfg_path), seed_override=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("log.csv", "timing.csv", "masks.csv", "system.txt", "summary.txt"):
        if (out / name).is_dir():  # refused before training, not after it
            raise UsageError(f"{out / name}: Is a directory")

    t0 = time.perf_counter()
    rng = np.random.default_rng(exp.seed)
    try:
        log, system, masks = train(exp.system, exp.template, exp.task,
                                   exp.train_cfg, rng)
    except DivergenceError as exc:
        if exc.log is not None:
            exc.log.to_csv(out / "log.csv")
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT
    wall = time.perf_counter() - t0

    log.to_csv(out / "log.csv")
    log.to_csv(out / "timing.csv", include_seconds=True)
    masks_to_csv(masks, out / "masks.csv")
    save_system(out / "system.txt", system, masks)

    final_metric = log.metrics[-1]
    eval_note = "final training batch"
    if exp.eval_instances > 0:
        try:  # a plant finite over training batches may still blow up on the longer sequence
            final_metric, _, _ = evaluate(system, masks, exp.task, exp.eval_instances,
                                          np.random.default_rng(exp.eval_seed),
                                          noise_rng=np.random.default_rng(exp.eval_seed + 1))
        except NumericError as exc:
            raise DivergenceError(f"evaluation diverged: {exc}") from None
        eval_note = f"fresh sequence of {exp.eval_instances} instances"
    with open(out / "summary.txt", "w") as fh:
        fh.write(f"task={exp.task.name}\n")
        fh.write(f"metric={exp.task.metric_name}\n")
        fh.write(f"iterations={exp.train_cfg.iterations}\n")
        fh.write(f"seed={exp.seed}\n")
        fh.write(f"final_metric={float(final_metric)!r}\n")
        fh.write(f"final_metric_source={eval_note}\n")
        fh.write(f"final_cost={float(log.costs[-1])!r}\n")
        fh.write(f"wall_seconds={wall:.3f}\n")
        # the manifest: what ran, with how many BLAS threads, on which config
        fh.write(f"python={platform.python_version()}\nnumpy={np.__version__}\n"
                 f"echotrain={__version__}\n")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            fh.write(f"{var}={os.environ.get(var, 'unset')}\n")
        fh.write(f"config_sha256={cfg_sha256}\n")
    print(f"final_metric={float(final_metric)!r}")
    return 0


def cmd_gradcheck(args) -> int:
    check_cfg = GradCheckConfig()
    if args.config:
        cfg = ConfigFile.parse(resolve_config_path(args.config))
        check_cfg = cfg.build(GradCheckConfig)
        cfg.reject_unknown()
    if args.out:  # made before the audit, so that an --out in the way ends it unrun
        Path(args.out).mkdir(parents=True, exist_ok=True)
    report = grad_check(check_cfg, seed=args.seed, break_adjoint=args.break_adjoint)
    print(report.to_text())
    if args.out:
        report.to_csv(Path(args.out) / "gradcheck.csv")
    return 0 if report.passed else FAIL_EXIT


def _seed(text) -> int:
    """argparse type of a seed: numpy takes non-negative integers only."""
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {val}")
    return val


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echotrain",
        description="Train simulated analog plants by physical (adjoint) backpropagation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a training experiment from a config")
    p_run.add_argument("--config", required=True,
                       help=f"path or bundled name ({', '.join(bundled_config_names())})")
    p_run.add_argument("--seed", type=_seed, default=None, help="override config seed")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_gc.add_argument("--config", default=None, help="optional gradcheck.* config")
    p_gc.add_argument("--seed", type=_seed, default=0)
    p_gc.add_argument("--out", default=None, help="directory for gradcheck.csv")
    p_gc.add_argument("--break-adjoint", action="store_true",
                      help="negative control: play the error back through a "
                           "non-reciprocal medium")
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (FileExistsError, IsADirectoryError, NotADirectoryError) as exc:  # a path in the way
        print(f"usage error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return USAGE_EXIT
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
