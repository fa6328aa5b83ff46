import contextlib
import hashlib
import inspect
import io
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import echotrain
from echotrain.cli import (
    SCHEMA,
    ConfigFile,
    UsageError,
    build_experiment,
    bundled_config_names,
    main,
    resolve_config_path,
)
from echotrain.errors import ConfigurationError
from echotrain.training import train


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMOKE = """\
seed = 7
plant.kind = acoustic
plant.sample_rate = 2000
plant.tube_length_m = 0.5
plant.reflection = 0.5
plant.n_echoes = 3
plant.passband_low_hz = 100
plant.passband_high_hz = 900
plant.kernel_len = 40
plant.filter_taps = 11
plant.kernel_seed = 1
mask.period = 10
task.kind = variable_delay
train.iterations = 5
train.batch_len = 20
"""


def test_bundled_configs_exist_and_validate():
    names = bundled_config_names()
    assert {"acoustic_delay_task", "acoustic_delay_input_only",
            "acoustic_delay_output_only", "acoustic_delay_task_40khz",
            "optical_labels", "toy_delay_smoke"} <= set(names)
    for name in names:
        cfg = ConfigFile.parse(resolve_config_path(name))
        exp = build_experiment(cfg)
        assert exp.train_cfg.iterations >= 1


def test_missing_required_field_names_it(tmp_path):
    path = write_cfg(tmp_path, SMOKE.replace("task.kind = variable_delay\n", ""))
    with pytest.raises(UsageError, match="task.kind"):
        build_experiment(ConfigFile.parse(path))


def test_unknown_field_reports_line(tmp_path):
    path = write_cfg(tmp_path, SMOKE + "plant.wensleydale = 4\n")
    with pytest.raises(UsageError, match=r"plant.wensleydale"):
        build_experiment(ConfigFile.parse(path))


def test_bad_value_reports_line_and_field(tmp_path):
    path = write_cfg(tmp_path, SMOKE.replace("train.iterations = 5",
                                             "train.iterations = soon"))
    with pytest.raises(UsageError, match="train.iterations"):
        build_experiment(ConfigFile.parse(path))


@pytest.mark.parametrize("batch_len", ["0", "-5"])
def test_nonpositive_batch_len_exits_two(tmp_path, capsys, batch_len):
    path = write_cfg(tmp_path, SMOKE.replace("train.batch_len = 20",
                                             f"train.batch_len = {batch_len}"))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "batch_len" in capsys.readouterr().err


def test_time_units_seconds_scales_the_tube_kernel_by_the_sample_period(tmp_path):
    # plant.time_units = seconds: dt is 1 / sample_rate, dt * taps is the kernel
    # of the samples build, and a short run trains to finite costs
    text = resolve_config_path("toy_delay_smoke").read_text()
    smp, sec = (build_experiment(ConfigFile.parse(write_cfg(
        tmp_path, text.replace("plant.time_units = samples", f"plant.time_units = {units}"),
        name=f"{units}.cfg"))) for units in ("samples", "seconds"))
    assert sec.system.dt == 1 / 2000  # the config's plant.sample_rate
    np.testing.assert_allclose(sec.system.dt * sec.system.w_aa.taps, smp.system.w_aa.taps,
                               rtol=1e-12)
    log, _, _ = train(sec.system, sec.template, sec.task, replace(sec.train_cfg, iterations=3),
                      np.random.default_rng(sec.seed))
    assert len(log.costs) == 3 and np.isfinite(log.costs).all()


def test_removed_threads_flags_are_usage_errors(tmp_path):
    cfg = write_cfg(tmp_path, SMOKE)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--threads", "2"]) == 2
    assert main(["gradcheck", "--threads", "2"]) == 2
    assert main(["reduce-check"]) == 2


def test_duplicate_key_rejected(tmp_path):
    path = write_cfg(tmp_path, SMOKE + "seed = 8\n")
    with pytest.raises(UsageError, match="duplicate"):
        ConfigFile.parse(path)


def test_missing_config_file_is_usage_error(capsys):
    rc = main(["run", "--config", "no_such_config", "--out", "/tmp/nowhere"])
    assert rc == 2


@pytest.mark.parametrize("case", [
    "run --config <dir>", "gradcheck --config <dir>", "run --config <latin-1>",
    "gradcheck --config <latin-1>", "run --out <file>", "run --out <file>/sub",
    "gradcheck --out <file>", "plant.file = <dir>", "run --out <log.csv dir>",
    "run --out <summary.txt dir>",
])
def test_a_path_it_cannot_use_exits_two_naming_it(tmp_path, capsys, monkeypatch, case):
    smoke = write_cfg(tmp_path, SMOKE)
    taken = write_cfg(tmp_path, "a regular file\n", name="taken")
    folder = tmp_path / "folder"
    folder.mkdir()
    latin = tmp_path / "latin.cfg"  # SMOKE, then a comment in Latin-1 on line 16
    latin.write_bytes(SMOKE.encode() + "# caf\xe9\n".encode("latin-1"))
    gc_latin = tmp_path / "gc_latin.cfg"
    gc_latin.write_bytes("gradcheck.n_systems = 1\n# caf\xe9\n".encode("latin-1"))
    custom = write_cfg(tmp_path, f"seed = 3\nplant.kind = custom-file\nplant.file = {folder}\n"
                       "mask.period = 10\ntask.kind = variable_delay\ntrain.iterations = 1\n",
                       name="custom.cfg")
    out = str(tmp_path / "out")
    busy = {name: tmp_path / f"busy_{name}" for name in ("log.csv", "summary.txt")}
    for name, held in busy.items():  # an output directory holding a directory of that name
        (held / name).mkdir(parents=True)
    argv, named = {
        "run --config <dir>": (["run", "--config", str(folder), "--out", out], f"{folder}"),
        "gradcheck --config <dir>": (["gradcheck", "--config", str(folder)], f"{folder}"),
        "run --config <latin-1>": (["run", "--config", str(latin), "--out", out],
                                   f"{latin}:16: not UTF-8 text"),
        "gradcheck --config <latin-1>": (["gradcheck", "--config", str(gc_latin)],
                                         f"{gc_latin}:2: not UTF-8 text"),
        "run --out <file>": (["run", "--config", str(smoke), "--out", str(taken)], f"{taken}"),
        "run --out <file>/sub": (["run", "--config", str(smoke), "--out", f"{taken}/sub"],
                                 f"{taken}/sub"),
        "gradcheck --out <file>": (["gradcheck", "--out", str(taken)], f"{taken}"),
        "plant.file = <dir>": (["run", "--config", str(custom), "--out", out], f"{folder}"),
        **{f"run --out <{name} dir>": (["run", "--config", str(smoke), "--out", str(held)],
                                       f"{held / name}: Is a directory")
           for name, held in busy.items()},
    }[case]
    real, trained = echotrain.cli.train, []
    monkeypatch.setattr(echotrain.cli, "train", lambda *args: trained.append(args) or real(*args))
    capsys.readouterr()
    assert main(argv) == 2 and not trained
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # nothing ran: no gradient report, no final metric
    assert not (tmp_path / "out").exists() and taken.read_text() == "a regular file\n"
    for name, held in busy.items():  # nothing trained, so no output written
        assert [p.name for p in held.iterdir()] == [name] and not any((held / name).iterdir())


def test_unknown_subcommand_usage_exit():
    assert main(["frobnicate"]) == 2


def test_run_writes_artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = write_cfg(tmp_path, SMOKE + "eval.instances = 50\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    for name in ("log.csv", "timing.csv", "masks.csv", "system.txt", "summary.txt"):
        assert (out / name).exists(), name
    lines = (out / "log.csv").read_text().splitlines()
    assert lines[0] == "iter,cost,metric,lr"
    assert len(lines) == 6
    summary = (out / "summary.txt").read_text()
    assert "final_metric=" in summary
    assert "metric=nrmse" in summary
    # the run manifest: versions, BLAS thread variables as set, config hash
    fields = dict(line.split("=", 1) for line in summary.splitlines())
    assert fields["python"] == platform.python_version()
    assert fields["numpy"] == np.__version__
    assert fields["echotrain"] == echotrain.__version__
    assert (fields["OMP_NUM_THREADS"], fields["MKL_NUM_THREADS"]) == ("3", "unset")
    assert fields["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    assert fields["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()


def test_run_byte_identical_reruns(tmp_path):
    cfg = write_cfg(tmp_path, SMOKE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()
    assert (out1 / "masks.csv").read_bytes() == (out2 / "masks.csv").read_bytes()
    assert (out1 / "system.txt").read_bytes() == (out2 / "system.txt").read_bytes()


def test_run_seed_override_changes_log(tmp_path):
    cfg = write_cfg(tmp_path, SMOKE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    assert (out1 / "log.csv").read_bytes() != (out2 / "log.csv").read_bytes()


def test_custom_file_plant_roundtrip(tmp_path):
    # run once, archive the plant, then run again from the archived file
    cfg = write_cfg(tmp_path, SMOKE)
    out = tmp_path / "first"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    custom = f"""\
seed = 3
plant.kind = custom-file
plant.file = {out / 'system.txt'}
task.kind = variable_delay
train.iterations = 3
train.batch_len = 10
"""
    cfg2 = write_cfg(tmp_path, custom, name="custom.cfg")
    out2 = tmp_path / "second"
    assert main(["run", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out2 / "summary.txt").exists()


def test_custom_file_missing_path(tmp_path):
    custom = """\
seed = 3
plant.kind = custom-file
plant.file = /no/such/file.txt
task.kind = variable_delay
train.iterations = 3
"""
    cfg = write_cfg(tmp_path, custom)
    with pytest.raises(UsageError, match="does not exist"):
        build_experiment(ConfigFile.parse(cfg))


def test_gradcheck_cli_passes_and_writes_csv(tmp_path):
    gc_cfg = write_cfg(tmp_path, "gradcheck.n_systems = 2\n", name="gc.cfg")
    rc = main(["gradcheck", "--config", str(gc_cfg), "--seed", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "gradcheck.csv").read_text().splitlines()
    assert text[0] == "block,max_rel_err,pass"
    assert len(text) == 9


def test_gradcheck_cli_negative_control_fails(tmp_path):
    gc_cfg = write_cfg(tmp_path, "gradcheck.n_systems = 2\n", name="gc.cfg")
    rc = main(["gradcheck", "--config", str(gc_cfg), "--seed", "5", "--break-adjoint"])
    assert rc == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_divergence_exits_one_and_keeps_partial_log(tmp_path):
    import numpy as np
    from echotrain.serialize import save_system
    from echotrain.signal import Kernel
    from echotrain.system import Nonlinearity, PhysicalSystem

    aa = np.zeros((2, 1, 1))
    aa[1, 0, 0] = 10.0
    unstable = PhysicalSystem(
        w_sa=Kernel.delta(np.eye(1), 1.0),
        w_aa=Kernel(aa, 1.0),
        w_so=Kernel.zero(1, 1, 1.0),
        w_ao=Kernel.delta(np.eye(1), 1.0),
        f=Nonlinearity.identity(),
    )
    plant = tmp_path / "unstable.txt"
    save_system(plant, unstable)
    cfg = write_cfg(tmp_path, f"""\
seed = 1
plant.kind = custom-file
plant.file = {plant}
mask.period = 10
task.kind = variable_delay
train.iterations = 5
train.batch_len = 20
""")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert (out / "log.csv").exists()  # partial log retained


def test_run_on_truncated_plant_file_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMOKE)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "first")]) == 0
    lines = (tmp_path / "first" / "system.txt").read_text().splitlines()
    plant = tmp_path / "cut.txt"
    plant.write_text("\n".join(lines[:5]) + "\n")
    custom = write_cfg(tmp_path, f"""\
seed = 3
plant.kind = custom-file
plant.file = {plant}
mask.period = 10
task.kind = variable_delay
train.iterations = 3
""", name="custom.cfg")
    capsys.readouterr()
    assert main(["run", "--config", str(custom), "--out", str(tmp_path / "second")]) == 2
    err = capsys.readouterr().err
    assert f"{plant}:5:" in err and "Traceback" not in err


def mutated(tmp_path, base, key, value):
    """A bundled config with key set to value on its last line; (path, line)."""
    lines = resolve_config_path(base).read_text().splitlines()
    lines = [ln for ln in lines if not ln.startswith(key + " ")] + [f"{key} = {value}"]
    return write_cfg(tmp_path, "\n".join(lines) + "\n"), len(lines)


@pytest.mark.parametrize("base,key,value", [
    ("toy_delay_smoke", "plant.filter_taps", "0"),
    ("toy_delay_smoke", "plant.sample_rate", "nan"),
    ("toy_delay_smoke", "plant.tube_length_m", "0.01"),  # first echo 0.06 samples in
    ("toy_delay_smoke", "mask.period", "-3"),
    ("optical_labels", "mask.period", "-3"),
    ("optical_labels", "plant.weight_bound", "nan"),
    ("optical_labels", "plant.weight_bound", "-1"),
    ("optical_labels", "plant.weight_scale", "nan"),
    ("optical_labels", "plant.n_nodes", "0"),
    ("optical_labels", "task.input_dim", "0"),
    ("toy_delay_smoke", "eval.instances", "-5"),
    ("toy_delay_smoke", "train.init_std_input_mask", "nan"),
    ("toy_delay_smoke", "train.lr0", "inf"),
    ("optical_labels", "train.w_aa_gain_bound", "nan"),
    ("optical_labels", "plant.snr_db", "5000"),    # 10^500 overflowed in the first forward
    ("optical_labels", "plant.snr_db", "-1e300"),  # 10^-1e299 divided by zero there
])
def test_out_of_range_config_value_exits_two_naming_the_file(tmp_path, capsys, base, key, value):
    path, _ = mutated(tmp_path, base, key, value)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert not (tmp_path / "out" / "log.csv").exists()


@pytest.mark.parametrize("base,key,value", [
    ("toy_delay_smoke", "train.batch_len", "1"),     # variable_delay needs 3 instances
    ("optical_labels", "train.batch_len", "2"),      # below task.window = 3
    ("toy_delay_smoke", "train.trainable", "m,u,w_aa"),  # would untie the tube kernel
    ("toy_delay_smoke", "train.trainable", "w_sa"),
    ("toy_delay_smoke", "seed", "-3"),
    ("toy_delay_smoke", "plant.kernel_seed", "-1"),
    ("optical_labels", "plant.weight_seed", "-1"),
    ("toy_delay_smoke", "eval.seed", "-1"),
])
def test_config_value_rejected_at_build_names_its_line(tmp_path, capsys, base, key, value):
    path, line = mutated(tmp_path, base, key, value)
    with pytest.raises(UsageError, match=f"{path}:{line}: "):
        build_experiment(ConfigFile.parse(path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tube", ["w_aa", "w_sa"])
def test_reloaded_acoustic_plant_keeps_its_tube_tied(tmp_path, capsys, tube):
    # the plant, not plant.kind, decides: a tube loaded from system.txt is one kernel too
    from echotrain.serialize import save_system

    exp = build_experiment(ConfigFile.parse(resolve_config_path("toy_delay_smoke")))
    plant = tmp_path / "system.txt"
    save_system(plant, exp.system, exp.template)
    path = write_cfg(tmp_path, f"""\
seed = 3
plant.kind = custom-file
plant.file = {plant}
task.kind = variable_delay
train.iterations = 5
train.batch_len = 30
train.init_masks = false
train.trainable = m,{tube}
""")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:8: " in err and "w_sa and w_aa" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("base,key,value", [
    ("toy_delay_smoke", "plant.n_echoes", "300000000"),  # kernel_len 40 holds no such echo
    ("toy_delay_smoke", "plant.kernel_len", "10"),
    ("toy_delay_smoke", "plant.kernel_len", "200000000"),  # 1.5 GiB of taps, over the bound
    ("toy_delay_smoke", "plant.filter_taps", "0"),
    ("toy_delay_smoke", "plant.sample_rate", "nan"),
    ("toy_delay_smoke", "plant.tube_length_m", "0.01"),
    ("toy_delay_smoke", "plant.reflection", "1.5"),
    ("toy_delay_smoke", "plant.loop_gain", "2"),
    ("toy_delay_smoke", "plant.passband_low_hz", "5000"),
    ("toy_delay_smoke", "plant.passband_high_hz", "5000"),
    ("optical_labels", "plant.n_nodes", "0"),
    ("optical_labels", "plant.delay_samples", "0"),
    ("optical_labels", "plant.n_nodes", "5000"),  # 21 GiB of taps, over the bound
    ("optical_labels", "plant.weight_bound", "nan"),
    ("optical_labels", "plant.weight_scale", "nan"),
    ("optical_labels", "plant.snr_db", "5000"),
    ("optical_labels", "plant.backward_error_scale", "0"),
])
def test_plant_value_rejected_by_a_constructor_names_its_line(tmp_path, capsys, base, key, value):
    path, line = mutated(tmp_path, base, key, value)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("base,key,value", [
    ("toy_delay_smoke", "mask.period", "-3"),  # MaskSet, through make_acoustic_system
    ("optical_labels", "mask.period", "-3"),   # MaskSet.zeros in build_experiment
    ("toy_delay_smoke", "train.lr0", "inf"),
    ("toy_delay_smoke", "train.iterations", "0"),
    ("toy_delay_smoke", "train.batch_len", "0"),
    ("toy_delay_smoke", "train.init_std_output_mask", "nan"),
    ("toy_delay_smoke", "train.noise_repeats", "0"),
    ("toy_delay_smoke", "train.trainable", "m,q"),
    ("optical_labels", "train.w_aa_gain_bound", "nan"),
    ("optical_labels", "task.input_dim", "0"),
    ("optical_labels", "task.window", "0"),
])
def test_mask_or_train_value_rejected_by_a_constructor_names_its_line(tmp_path, capsys, base,
                                                                      key, value):
    path, line = mutated(tmp_path, base, key, value)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {path}:{line}: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edge,other", [("low", "high"), ("high", "low")])
def test_a_lone_passband_edge_is_named_at_its_line(tmp_path, capsys, edge, other):
    path = write_cfg(tmp_path, SMOKE.replace(f"plant.passband_{other}_hz", "# dropped"))
    keys = [ln.split(" = ")[0] for ln in SMOKE.splitlines()]
    line = 1 + keys.index(f"plant.passband_{edge}_hz")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {path}:{line}: give both or neither passband edge" in err


def test_a_plant_too_large_for_memory_exits_two_under_an_address_space_limit(tmp_path):
    # 5000 nodes ask Kernel.delta for 22 GB, 1e8 frames per batch ask
    # task.sample for 9.6 GB, and a 1e8-sample period asks MaskSet.zeros for
    # 45 GiB of masks: each refused before any allocation, in a child process
    # whose address space alone is capped at 3 GiB
    pytest.importorskip("resource")  # POSIX only
    code = (f"import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, ({3 << 30}, {3 << 30}))\n"
            "from echotrain.cli import main\nsys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(echotrain.__file__).parent.parent), os.environ.get("PYTHONPATH"))
        if p))
    for key, value in (("plant.n_nodes", "5000"), ("train.batch_len", "100000000"),
                       ("mask.period", "100000000")):
        path, line = mutated(tmp_path, "optical_labels", key, value)
        proc = subprocess.run([sys.executable, "-c", code, "run", "--config", str(path),
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert f"{path}:{line}" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


def test_every_schema_key_sets_a_parameter_of_its_owner():
    for key, (owner, name) in SCHEMA.items():
        assert name in inspect.signature(owner).parameters, key


@pytest.mark.parametrize("base,key", [
    ("toy_delay_smoke", "plant.n_nodes"),     # an optical key on a tube
    ("optical_labels", "plant.kernel_len"),   # a tube key on an optical plant
])
def test_a_key_of_the_other_plant_kind_is_unknown_at_its_line(tmp_path, base, key):
    path, line = mutated(tmp_path, base, key, "3")
    with pytest.raises(UsageError, match=f"{path}:{line}: unknown field '{key}'"):
        build_experiment(ConfigFile.parse(path))


@pytest.mark.parametrize("key,value", [
    ("n_state", "0"), ("n_systems", "-1"), ("period", "0"),
    ("threshold", "nan"), ("threshold", "inf"), ("threshold", "0"),
])
def test_out_of_range_gradcheck_value_exits_two_naming_the_file(tmp_path, capsys, key, value):
    path = write_cfg(tmp_path, f"# toy family\ngradcheck.{key} = {value}\n", name="gc.cfg")
    assert main(["gradcheck", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: " in err and key in err and "Traceback" not in err


def test_out_of_range_flag_is_a_usage_error():
    assert main(["run", "--config", "toy_delay_smoke", "--seed", "-3"]) == 2
    assert main(["gradcheck", "--seed", "-1"]) == 2
    assert main(["reduce-check"]) == 2


def test_damaged_config_builds_or_names_its_file(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    root = tmp_path_factory.mktemp("fuzz")
    bases = {name: resolve_config_path(name).read_text().splitlines()
             for name in bundled_config_names()}
    # an n_nodes x n_nodes mixing matrix at every lag up to the fibre delay:
    # below the tap bound (1 GiB) a large node count is a real request for
    # memory, so the draws stop where a build still takes tens of MB
    caps = {"plant.n_nodes": 256}

    @st.composite
    def mutation(draw):
        base = draw(st.sampled_from(sorted(bases)))
        lines = bases[base]
        keyed = [i for i, ln in enumerate(lines) if "=" in ln.split("#", 1)[0]]
        i = draw(st.sampled_from(keyed))
        key = lines[i].split("=", 1)[0].strip()
        token = draw(st.one_of(
            st.integers(-10, caps.get(key, 10_000)).map(str),
            st.sampled_from(["0", "nan", "inf", "-1e300", "soon", "m,u,w_aa"])))
        return lines[:i] + [f"{key} = {token}"] + lines[i + 1:]

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(mutation())
    def check(lines):
        path = root / "exp.cfg"
        path.write_text("\n".join(lines) + "\n")
        try:
            build_experiment(ConfigFile.parse(path))
        except UsageError as exc:
            assert str(path) in str(exc)
        except ConfigurationError as exc:
            pytest.fail(f"build_experiment let a ConfigurationError through: {exc}")
        else:
            return
        out = root / "out"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert str(path) in err.getvalue() and "Traceback" not in err.getvalue()
        assert not out.exists()

    check()
