import contextlib
import io
import re
from dataclasses import replace

import numpy as np
import pytest

from echotrain.cli import ConfigFile, build_experiment, main, resolve_config_path
from echotrain.errors import ConfigurationError
from echotrain.masking import MaskSet
from echotrain.models import OpticalParams, make_optical_system
from echotrain.serialize import load_system, save_system
from echotrain.signal import Kernel, Signal
from echotrain.system import (BackwardPath, NoiseModel, Nonlinearity, PhysicalSystem, _one_tube,
                              backward, forward)


def rand_system(rng, dt=2.5e-5):
    aa = rng.standard_normal((4, 3, 3))
    aa[0] = 0.0
    return PhysicalSystem(
        w_sa=Kernel(rng.standard_normal((4, 3, 2)), dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel(rng.standard_normal((2, 2, 2)), dt),
        w_ao=Kernel(rng.standard_normal((1, 2, 3)), dt),
        f=Nonlinearity("clip", -1.0, 1.0),
        noise=NoiseModel(17.731, on_forward=True, on_backward=True),
        backward_path=BackwardPath(normalize_peak=0.5, scale=0.37, clip=True),
    )


def test_system_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    sys = rand_system(rng)
    path = tmp_path / "system.txt"
    save_system(path, sys)
    back, masks = load_system(path)
    assert masks is None
    assert back.dt == sys.dt
    for name in ("w_sa", "w_aa", "w_so", "w_ao"):
        np.testing.assert_array_equal(getattr(back, name).taps, getattr(sys, name).taps)
    assert back.f == sys.f
    assert back.noise == sys.noise
    assert back.backward_path == sys.backward_path


def test_system_with_masks_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    p = OpticalParams(n_nodes=4, delay_samples=7, dt=1.0)
    sys = make_optical_system(p, rng=rng)
    masks = MaskSet(
        m=rng.standard_normal((4, 2, 5)),
        u=rng.standard_normal((3, 4, 5)),
        s_b=rng.standard_normal((4, 5)),
        y_b=rng.standard_normal(3),
        period=5,
        dt=1.0,
    )
    path = tmp_path / "system.txt"
    save_system(path, sys, masks)
    back_sys, back_masks = load_system(path)
    np.testing.assert_array_equal(back_sys.w_aa.taps, sys.w_aa.taps)
    np.testing.assert_array_equal(back_masks.m, masks.m)
    np.testing.assert_array_equal(back_masks.u, masks.u)
    np.testing.assert_array_equal(back_masks.s_b, masks.s_b)
    np.testing.assert_array_equal(back_masks.y_b, masks.y_b)
    assert back_masks.period == 5 and back_masks.dt == 1.0


@pytest.mark.parametrize("name", ["acoustic_delay_task", "acoustic_delay_task_40khz"])
def test_reloaded_acoustic_plant_gives_the_in_memory_traces_bit_for_bit(tmp_path, name):
    # the reloaded W_sa and W_aa are two kernels with equal taps: the plant
    # still runs its one recursion on s + a (direct at the desk, engine at 40 kHz)
    plant = build_experiment(ConfigFile.parse(resolve_config_path(name))).system
    save_system(tmp_path / "system.txt", plant)
    back, _ = load_system(tmp_path / "system.txt")
    assert back.w_sa is not back.w_aa and _one_tube(back)
    rng = np.random.default_rng(9)
    n = 12 * plant.w_aa.nonzero_lags()[0] + 5
    s = Signal(rng.standard_normal((1, n)), plant.dt)
    e_o = Signal(rng.standard_normal((1, n)), plant.dt)
    runs = []
    for sys in (plant, back):
        tr = forward(sys, s)
        bw = backward(sys, tr, e_o)
        runs.append((tr.a, tr.o, bw.e_a, bw.e_s))
    for mine, theirs in zip(*runs):
        np.testing.assert_array_equal(mine.samples, theirs.samples)


def test_live_lags_are_recomputed_for_new_and_loaded_kernels(tmp_path):
    rng = np.random.default_rng(4)
    sys = rand_system(rng)
    taps = sys.w_aa.taps.copy()
    taps[1] = 0.0
    taps[3, 2, 1] = 0.0
    edited = sys.with_kernel("w_aa", taps)
    np.testing.assert_array_equal(edited.w_aa.nonzero_lags(), [2, 3])
    np.testing.assert_array_equal(sys.w_aa.nonzero_lags(), [1, 2, 3])
    path = tmp_path / "system.txt"
    save_system(path, edited)
    back, _ = load_system(path)
    for name in ("w_sa", "w_aa", "w_so", "w_ao"):
        lags = getattr(back, name).nonzero_lags()
        np.testing.assert_array_equal(
            lags, np.flatnonzero(np.any(getattr(edited, name).taps != 0, axis=(1, 2))))
        assert not lags.flags.writeable


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello world\n")
    with pytest.raises(ConfigurationError):
        load_system(path)


def test_rejects_truncated_file(tmp_path):
    rng = np.random.default_rng(2)
    sys = rand_system(rng)
    path = tmp_path / "system.txt"
    save_system(path, sys)
    lines = path.read_text().splitlines()
    (tmp_path / "cut.txt").write_text("\n".join(lines[:4]) + "\n")
    with pytest.raises(ConfigurationError):
        load_system(tmp_path / "cut.txt")


def saved_lines(tmp_path, masks=False):
    rng = np.random.default_rng(3)
    sys = rand_system(rng)
    ms = None
    if masks:
        ms = MaskSet(m=rng.standard_normal((2, 2, 3)), u=rng.standard_normal((2, 2, 3)),
                     s_b=rng.standard_normal((2, 3)), y_b=rng.standard_normal(2),
                     period=3, dt=sys.dt)
    path = tmp_path / "system.txt"
    save_system(path, sys, ms)
    return path.read_text().splitlines()


def load_lines(tmp_path, lines):
    path = tmp_path / "edited.txt"
    path.write_text("\n".join(lines) + "\n")
    return load_system(path)


def test_truncated_file_names_the_file_and_line(tmp_path):
    lines = saved_lines(tmp_path)
    cut = lines.index("kernel w_sa 3 2 4") + 2  # header and one of four taps
    with pytest.raises(ConfigurationError, match=rf"edited\.txt:{cut}: unexpected end of file"):
        load_lines(tmp_path, lines[:cut])


def test_every_truncation_is_a_configuration_error(tmp_path):
    lines = saved_lines(tmp_path, masks=True)
    whole_plant = next(i for i, ln in enumerate(lines) if ln.startswith("maskset"))
    for cut in range(1, len(lines)):
        if cut == whole_plant:  # the plant alone, without its masks, is a valid file
            assert load_lines(tmp_path, lines[:cut])[1] is None
            continue
        with pytest.raises(ConfigurationError, match=r"edited\.txt"):
            load_lines(tmp_path, lines[:cut])


def test_bad_hex_token_names_its_line(tmp_path):
    lines = saved_lines(tmp_path)
    at = lines.index("kernel w_aa 3 3 4") + 2
    tokens = lines[at].split()
    tokens[4] = "0xZZp+1"
    lines[at] = " ".join(tokens)
    with pytest.raises(ConfigurationError, match=rf"edited\.txt:{at + 1}: .*hexadecimal"):
        load_lines(tmp_path, lines)


@pytest.mark.parametrize("value", ["inf", "nan", "-0x1p-5", "0x0p+0"])
def test_bad_dt_names_its_line(tmp_path, value):
    lines = saved_lines(tmp_path)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("dt "))
    lines[at] = f"dt {value}"
    with pytest.raises(ConfigurationError, match=rf"edited\.txt:{at + 1}: dt must be positive"):
        load_lines(tmp_path, lines)


def test_negative_backward_peak_names_its_line(tmp_path):
    lines = saved_lines(tmp_path)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("backward_path "))
    tokens = lines[at].split()
    tokens[1] = (-0.5).hex()
    lines[at] = " ".join(tokens)
    with pytest.raises(ConfigurationError, match=rf"edited\.txt:{at + 1}: normalize_peak"):
        load_lines(tmp_path, lines)


@pytest.mark.parametrize("tag, edit, message", [
    ("noise", lambda tok: tok[:2] + ["7", "-3"], "expected a 0/1 flag, got '7'"),
    ("noise", lambda tok: tok[:3] + ["01"], "expected a 0/1 flag, got '01'"),
    ("backward_path", lambda tok: tok[:3] + ["5"], "expected a 0/1 flag, got '5'"),
    ("dt", lambda tok: tok + ["junk"], "unexpected token 'junk' after the dt record"),
    ("nonlinearity", lambda tok: tok + ["junk"], "unexpected token 'junk' after the nonlinearity"),
    ("nonlinearity", lambda tok: ["nonlinearity", "rectifier", "0x1p+0"],
     "unexpected token '0x1p+0' after the nonlinearity"),
    ("noise", lambda tok: tok + ["1"], "unexpected token '1' after the noise record"),
    ("backward_path", lambda tok: tok + ["0"], "unexpected token '0' after the backward_path"),
    ("kernel", lambda tok: tok + ["4"], "unexpected token '4' after the kernel record"),
    ("maskset", lambda tok: tok + ["3"], "unexpected token '3' after the maskset record"),
], ids=["noise-flags-7-3", "noise-flag-01", "backward-clip-5", "dt-trailing",
        "clip-trailing", "rectifier-trailing", "noise-trailing", "backward-trailing",
        "kernel-trailing", "maskset-trailing"])
def test_a_malformed_record_names_its_line(tmp_path, tag, edit, message):
    # a flag is 0 or 1, and a record ends with its last value
    lines = saved_lines(tmp_path, masks=True)
    at = next(i for i, ln in enumerate(lines) if ln.split()[0] == tag)
    lines[at] = " ".join(edit(lines[at].split()))
    with pytest.raises(ConfigurationError, match=rf"edited\.txt:{at + 1}: {re.escape(message)}"):
        load_lines(tmp_path, lines)


@pytest.mark.parametrize("kind", ["dt", "nonlinearity", "noise", "backward_path", "kernel w_sa",
                                  "kernel w_aa", "kernel w_so", "kernel w_ao", "maskset"])
def test_a_repeated_record_names_its_line_and_the_first(tmp_path, kind):
    # one record of each kind: a second one, appended whole, would have
    # replaced the first without a word (a second dt 0x1p+1 set dt 2.0)
    lines = saved_lines(tmp_path, masks=True)
    tags = ("dt", "nonlinearity", "noise", "backward_path", "kernel", "maskset")
    starts = [i for i, ln in enumerate(lines) if ln.split()[0] in tags] + [len(lines)]
    at = next(k for k, i in enumerate(starts[:-1]) if lines[i].startswith(kind + " "))
    record = ["dt 0x1p+1"] if kind == "dt" else lines[starts[at] : starts[at + 1]]
    message = f"repeated {kind} record, first at line {starts[at] + 1}"
    with pytest.raises(ConfigurationError, match=rf"edited\.txt:{len(lines) + 1}: {message}"):
        load_lines(tmp_path, lines + record)


def test_wrong_tap_count_names_the_line(tmp_path):
    lines = saved_lines(tmp_path)
    head = lines.index("kernel w_sa 3 2 4")
    more, fewer = list(lines), list(lines)
    more[head] = "kernel w_sa 3 2 5"  # reads the next kernel's header as a tap
    with pytest.raises(ConfigurationError, match=rf"edited\.txt:{head + 6}: expected 6 values, got 5"):
        load_lines(tmp_path, more)
    fewer[head] = "kernel w_sa 3 2 3"  # the fourth tap is read as a record
    with pytest.raises(ConfigurationError, match=rf"edited\.txt:{head + 5}: unknown record"):
        load_lines(tmp_path, fewer)
    short = list(lines)
    short[head + 1] = " ".join(short[head + 1].split()[:-1])
    with pytest.raises(ConfigurationError, match=rf"edited\.txt:{head + 2}: expected 6 values, got 5"):
        load_lines(tmp_path, short)


def test_a_mask_set_for_other_channels_is_neither_saved_nor_loaded(tmp_path):
    rng = np.random.default_rng(4)
    sys = rand_system(rng)  # 2 inputs, 2 outputs
    masks = MaskSet(m=rng.standard_normal((1, 2, 3)), u=rng.standard_normal((2, 2, 3)),
                    s_b=rng.standard_normal((1, 3)), y_b=rng.standard_normal(2),
                    period=3, dt=sys.dt)  # 1 input channel
    message = "mask set has 1 input and 2 output channels, the plant 2 and 2"
    with pytest.raises(ConfigurationError, match=message):
        save_system(tmp_path / "refused.txt", sys, masks)
    assert not (tmp_path / "refused.txt").exists()
    # the same pair by hand: the plant's records, then the masks as saved with a plant they fit
    fits = replace(sys, w_sa=Kernel(sys.w_sa.taps[:, :, :1], sys.dt),
                   w_so=Kernel(sys.w_so.taps[:, :, :1], sys.dt))
    save_system(tmp_path / "plant.txt", sys)
    save_system(tmp_path / "fits.txt", fits, masks)
    head = (tmp_path / "plant.txt").read_text().splitlines()
    tail = (tmp_path / "fits.txt").read_text().splitlines()
    tail = tail[next(i for i, ln in enumerate(tail) if ln.startswith("maskset")):]
    with pytest.raises(ConfigurationError, match=rf"edited\.txt:{len(head) + 1}: {message}"):
        load_lines(tmp_path, head + tail)


def damaged(data: bytes):
    """Strategy: the saved bytes cut short, or with one to three bytes
    replaced (mostly by characters the format uses, so that many damaged
    files still tokenize)."""
    st = pytest.importorskip("hypothesis.strategies")
    byte = st.one_of(st.sampled_from(b"0123456789abcdefpx.+- \nkmsu"), st.integers(0, 255))
    cut = st.integers(0, len(data) - 1).map(lambda i: data[:i])
    spot = st.tuples(st.integers(0, len(data) - 1), byte)

    def mutate(spots):
        out = bytearray(data)
        for i, b in spots:
            out[i] = b
        return bytes(out)

    return st.one_of(cut, st.lists(spot, min_size=1, max_size=3).map(mutate))


def test_damaged_system_file_loads_or_names_its_line(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    root = tmp_path_factory.mktemp("fuzz")
    data = "\n".join(saved_lines(root, masks=True)).encode() + b"\n"
    plant = root / "system.txt"
    cfg = root / "custom.cfg"
    cfg.write_text(f"seed = 3\nplant.kind = custom-file\nplant.file = {plant}\n"
                   "task.kind = variable_delay\ntrain.iterations = 1\n")
    at_line = re.compile(rf"^{re.escape(str(plant))}:\d+: ")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(damaged(data))
    def check(content):
        plant.write_bytes(content)
        try:
            load_system(plant)
        except ConfigurationError as exc:
            assert at_line.match(str(exc)), str(exc)
        else:
            return
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(cfg), "--out", str(root / "out")])
        assert code == 2 and "Traceback" not in err.getvalue(), err.getvalue()

    check()
