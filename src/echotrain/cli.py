"""Batch experiment runner.

Subcommands:
    run          train a plant on a task from a config file; writes log.csv,
                 timing.csv, masks.csv, system.txt, summary.txt
    gradcheck    compare physical gradients against finite differences
    reduce-check verify the dense MLP / RNN equivalence constructions

Configs are flat text files with dotted keys (`plant.kind = acoustic`,
`train.lr0 = 0.25`); `#` starts a comment.  Bundled configs resolve by bare
name (see `echotrain run --config acoustic_delay_task`).  Exit codes: 0 ok,
1 failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DivergenceError
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
from .reductions import mlp_equivalence_suite, rnn_equivalence_suite
from .serialize import load_system, save_system
from .system import _one_tube
from .training import TASKS, TrainConfig, evaluate, train

USAGE_EXIT = 2
FAIL_EXIT = 1


class UsageError(Exception):
    pass


# the config keys of the plant parameters that plant.<parameter> does not name
_PLANT_KEYS = {"length_m": "tube_length_m", "reflection_coeff": "reflection",
               "passband": "passband_low_hz", "scale": "weight_scale"}


@dataclass
class ConfigFile:
    """Parsed key/value config with line numbers for diagnostics."""

    path: str
    values: dict = field(default_factory=dict)  # key -> (raw string, line)
    consumed: set = field(default_factory=set)

    @staticmethod
    def parse(path) -> "ConfigFile":
        cfg = ConfigFile(path=str(path))
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
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

    def _fetch(self, key, required, default):
        if key in self.values:
            self.consumed.add(key)
            return self.values[key][0]
        if required:
            raise UsageError(f"{self.path}: missing required field {key!r}")
        return default

    def get_str(self, key, required=False, default=None, choices=None):
        val = self._fetch(key, required, default)
        if val is not None and choices is not None and val not in choices:
            raise UsageError(
                f"{self.where(key)}: {key} must be one of {sorted(choices)}, got {val!r}")
        return val

    def get_float(self, key, required=False, default=None):
        val = self._fetch(key, required, default)
        if val is None or isinstance(val, float):
            return val
        try:
            return float(val)
        except ValueError:
            raise UsageError(f"{self.where(key)}: {key} must be a number, got {val!r}")

    def get_int(self, key, required=False, default=None, minimum=None):
        val = self._fetch(key, required, default)
        if isinstance(val, str):
            try:
                val = int(val)
            except ValueError:
                raise UsageError(f"{self.where(key)}: {key} must be an integer, got {val!r}")
        if minimum is not None and val is not None and val < minimum:
            raise UsageError(f"{self.where(key)}: {key} must be >= {minimum}, got {val}")
        return val

    def get_bool(self, key, default=False):
        val = self._fetch(key, False, None)
        if val is None:
            return default
        if val.lower() in ("1", "true", "on", "yes"):
            return True
        if val.lower() in ("0", "false", "off", "no"):
            return False
        raise UsageError(f"{self.where(key)}: {key} must be a boolean, got {val!r}")

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
    seed = cfg.get_int("seed", required=True, minimum=0)
    if seed_override is not None:
        seed = seed_override

    kind = cfg.get_str("plant.kind", required=True,
                       choices={"acoustic", "optical", "custom-file"})
    period = cfg.get_int("mask.period", required=kind != "custom-file")

    if kind == "acoustic":
        passband = None
        lo = cfg.get_float("plant.passband_low_hz")
        hi = cfg.get_float("plant.passband_high_hz")
        if (lo is None) != (hi is None):
            raise UsageError(f"{cfg.path}: give both or neither passband edge")
        if lo is not None:
            passband = (lo, hi)
        params = TubeParams(
            length_m=cfg.get_float("plant.tube_length_m", default=6.0),
            speed_of_sound=cfg.get_float("plant.speed_of_sound", default=343.0),
            reflection_coeff=cfg.get_float("plant.reflection", default=0.6),
            n_echoes=cfg.get_int("plant.n_echoes", default=3),
            passband=passband or (80.0, 3200.0),
            kernel_len=cfg.get_int("plant.kernel_len", default=4200),
            sample_rate=cfg.get_float("plant.sample_rate", default=40000.0),
            loop_gain=cfg.get_float("plant.loop_gain", default=0.8),
            filter_taps=cfg.get_int("plant.filter_taps", default=101),
        )
        units = cfg.get_str("plant.time_units", default="samples",
                            choices={"samples", "seconds"})
        dt = 1.0 if units == "samples" else params.dt
        kernel_seed = cfg.get_int("plant.kernel_seed", default=seed, minimum=0)
        kernel = make_tube_kernel(params, np.random.default_rng(kernel_seed), dt=dt)
        system, template = make_acoustic_system(kernel, period=period)
    elif kind == "optical":
        params = OpticalParams(
            n_nodes=cfg.get_int("plant.n_nodes", default=20),
            delay_samples=cfg.get_int("plant.delay_samples", default=109),
            snr_db=cfg.get_float("plant.snr_db", default=18.0),
            weight_bound=cfg.get_float("plant.weight_bound", default=2.0),
            backward_clip=cfg.get_bool("plant.backward_clip", default=True),
            backward_error_scale=cfg.get_float("plant.backward_error_scale", default=0.5),
        )
        weight_seed = cfg.get_int("plant.weight_seed", default=seed, minimum=0)
        weight_scale = cfg.get_float("plant.weight_scale", default=0.5)
        W = random_optical_weights(params, np.random.default_rng(weight_seed),
                                   scale=weight_scale)
        noise_on = cfg.get_bool("plant.noise", default=True)
        system = make_optical_system(params, W=W, noise=noise_on)
        template = None
    else:
        path = cfg.get_str("plant.file", required=True)
        if not Path(path).exists():
            raise UsageError(f"{cfg.path}: plant.file {path!r} does not exist")
        system, template = load_system(path)
        if template is None and period is None:
            raise UsageError(f"{cfg.path}: mask.period required when the plant "
                             "file carries no mask set")
    if template is None:
        # with train.init_masks on, train() reads only its channel counts, period and dt
        template = MaskSet.zeros(system.n_inputs, 1, system.n_outputs, 1, period, system.dt)

    task_kind = cfg.get_str("task.kind", required=True, choices=set(TASKS))
    if task_kind == "synthetic_labels":
        task = TASKS[task_kind](
            n_classes=cfg.get_int("task.n_classes", default=4),
            input_dim=cfg.get_int("task.input_dim", default=8),
            window=cfg.get_int("task.window", default=3),
        )
    elif task_kind == "delayed_copy":
        task = TASKS[task_kind](delay=cfg.get_int("task.delay", default=1))
    else:
        task = TASKS[task_kind]()

    init_masks = cfg.get_bool("train.init_masks", default=True)
    if not init_masks and (template.dim_x != task.dim_x or template.dim_y != task.dim_y):
        raise UsageError(
            f"{cfg.path}: loaded masks are {template.dim_x}->{template.dim_y} "
            f"dimensional but the task is {task.dim_x}->{task.dim_y}")

    trainable = tuple(
        t.strip() for t in cfg.get_str("train.trainable", default="m,u").split(","))
    if _one_tube(system) and {"w_sa", "w_aa"} & set(trainable):
        raise UsageError(f"{cfg.where('train.trainable')}: the plant's one tube kernel "
                         "is both w_sa and w_aa; training either would untie them")
    gain_bound = cfg.get_float("train.w_aa_gain_bound")
    train_cfg = TrainConfig(
        iterations=cfg.get_int("train.iterations", required=True),
        batch_len=cfg.get_int("train.batch_len", default=100),
        lr0=cfg.get_float("train.lr0", default=0.25),
        init_std_input_mask=cfg.get_float("train.init_std_input_mask",
                                          default=float(np.sqrt(0.2))),
        init_std_output_mask=cfg.get_float("train.init_std_output_mask",
                                           default=float(np.sqrt(0.1))),
        trainable=trainable,
        seed=seed,
        noise_repeats=cfg.get_int("train.noise_repeats", default=1),
        w_aa_gain_bound=gain_bound,
        init_masks=init_masks,
    )
    try:  # one batch from a throwaway generator: the run's own stays untouched
        batch = task.sample(train_cfg.batch_len, np.random.default_rng(0))
        if not batch.cost_mask.any():
            raise ConfigurationError("no instance of a batch enters the cost")
    except ConfigurationError as exc:
        raise UsageError(f"{cfg.where('train.batch_len')}: train.batch_len = "
                         f"{train_cfg.batch_len} is too short for {task.name}: {exc}") from None

    exp = Experiment(
        system=system,
        template=template,
        task=task,
        train_cfg=train_cfg,
        seed=seed,
        eval_instances=cfg.get_int("eval.instances", default=0, minimum=0),
        eval_seed=cfg.get_int("eval.seed", default=12345, minimum=0),
    )
    cfg.reject_unknown()
    return exp


def cmd_run(args) -> int:
    cfg = ConfigFile.parse(resolve_config_path(args.config))
    try:
        exp = build_experiment(cfg, seed_override=args.seed)
    except ConfigurationError as exc:  # a value the plant, task or training rejects
        keys = [k for f in exc.fields
                for k in (f"plant.{_PLANT_KEYS.get(f, f)}", f"mask.{f}", f"train.{f}")
                if k in cfg.values]
        raise UsageError(f"{', '.join(map(cfg.where, keys)) or cfg.path}: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

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
        final_metric, _, _ = evaluate(system, masks, exp.task, exp.eval_instances,
                                      np.random.default_rng(exp.eval_seed),
                                      noise_rng=np.random.default_rng(exp.eval_seed + 1))
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
    print(f"final_metric={float(final_metric)!r}")
    return 0


def cmd_gradcheck(args) -> int:
    check_cfg = GradCheckConfig(threads=args.threads)
    if args.config:
        cfg = ConfigFile.parse(resolve_config_path(args.config))
        kw = {name: cfg.get_int(f"gradcheck.{name}", default=getattr(check_cfg, name))
              for name in ("n_systems", "n_in", "n_state", "n_out", "kernel_len", "period",
                           "instances")}
        kw["threshold"] = cfg.get_float("gradcheck.threshold", default=check_cfg.threshold)
        cfg.reject_unknown()
        for name, val in kw.items():  # one at a time, so an error names its key
            try:
                check_cfg = replace(check_cfg, **{name: val})
            except ConfigurationError as exc:  # a gradcheck.* value out of range
                raise UsageError(f"{cfg.where(f'gradcheck.{name}')}: {exc}") from None
    report = grad_check(check_cfg, seed=args.seed, break_adjoint=args.break_adjoint)
    print(report.to_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.to_csv(out / "gradcheck.csv")
    return 0 if report.passed else FAIL_EXIT


def cmd_reduce_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    tol = 1e-8
    mlp_err = mlp_equivalence_suite(args.instances, rng)
    fwd_err, grad_err = rnn_equivalence_suite(args.instances, rng)
    ok = mlp_err < tol and fwd_err < tol and grad_err < tol
    print(f"mlp forward equivalence   max_abs_err {mlp_err:.3e}  "
          f"{'pass' if mlp_err < tol else 'FAIL'}")
    print(f"rnn forward equivalence   max_abs_err {fwd_err:.3e}  "
          f"{'pass' if fwd_err < tol else 'FAIL'}")
    print(f"rnn bptt gradient match   max_rel_err {grad_err:.3e}  "
          f"{'pass' if grad_err < tol else 'FAIL'}")
    print(f"overall: {'pass' if ok else 'FAIL'} ({args.instances} instances per suite)")
    return 0 if ok else FAIL_EXIT


def _at_least(minimum):
    """argparse type of an integer >= minimum."""
    def parse(text) -> int:
        val = int(text)
        if val < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {val}")
        return val
    return parse


_seed = _at_least(0)  # numpy takes non-negative seeds only


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
    p_gc.add_argument("--threads", type=int, default=1)
    p_gc.add_argument("--break-adjoint", action="store_true",
                      help="negative control: play the error back through a "
                           "non-reciprocal medium")
    p_gc.set_defaults(func=cmd_gradcheck)

    p_rc = sub.add_parser("reduce-check", help="MLP/RNN equivalence suites")
    p_rc.add_argument("--seed", type=_seed, default=0)
    p_rc.add_argument("--instances", type=_at_least(1), default=50)  # 0 passes vacuously
    p_rc.set_defaults(func=cmd_reduce_check)
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
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
