import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from echotrain import gradients as gradients_mod
from echotrain import training
from echotrain.cli import ConfigFile, build_experiment, bundled_config_names, resolve_config_path
from echotrain.errors import ConfigurationError, NumericError
from echotrain.gradients import (
    ALL_BLOCKS,
    KERNEL_BLOCKS,
    MASK_BLOCKS,
    OUTPUT_SIDE,
    STATE_SIDE,
    GradCheckConfig,
    _non_reciprocal,
    _probe_outputs,
    grad_check,
    kernel_gradients,
    pipeline_cost,
    pipeline_gradients,
    random_toy_pipeline,
    relative_error,
)
from echotrain.masking import decode_outputs, encode_inputs, encode_output_errors, init_masks
from echotrain.signal import Kernel, Signal
from echotrain.system import Nonlinearity, PhysicalSystem, _one_tube, backward, forward

from oracles import fd_gradient, rel_err


def test_zero_error_gives_zero_kernel_gradients():
    rng = np.random.default_rng(0)
    dt = 0.2
    aa = 0.3 * rng.standard_normal((3, 2, 2))
    aa[0] = 0.0
    sys = PhysicalSystem(
        w_sa=Kernel(0.3 * rng.standard_normal((3, 2, 2)), dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel(0.3 * rng.standard_normal((3, 1, 2)), dt),
        w_ao=Kernel(0.3 * rng.standard_normal((3, 1, 2)), dt),
        f=Nonlinearity.rectifier(),
    )
    s = Signal(rng.standard_normal((2, 20)), dt)
    tr = forward(sys, s)
    bw = backward(sys, tr, Signal(np.zeros((1, 20)), dt))
    g = kernel_gradients(sys, tr, bw, s)
    for name in ("w_sa", "w_aa", "w_so", "w_ao"):
        assert np.all(g[name] == 0.0)


def test_single_tap_identity_system_collapse():
    # dt = 1, single-tap w_so, no state path: d_w_so[0] = sum_i e_o[i] s[i]^T
    rng = np.random.default_rng(1)
    dt = 1.0
    sys = PhysicalSystem(
        w_sa=Kernel.zero(1, 2, dt),
        w_aa=Kernel.zero(1, 1, dt),
        w_so=Kernel(rng.standard_normal((1, 2, 2)), dt),
        w_ao=Kernel.zero(2, 1, dt),
        f=Nonlinearity.identity(),
    )
    s = Signal(rng.standard_normal((2, 15)), dt)
    tr = forward(sys, s)
    e_o = Signal(rng.standard_normal((2, 15)), dt)
    bw = backward(sys, tr, e_o)
    g = kernel_gradients(sys, tr, bw, s)
    np.testing.assert_allclose(g["w_so"][0], e_o.samples @ s.samples.T, rtol=1e-13)


def test_kernel_gradients_match_fd_on_random_system():
    rng = np.random.default_rng(2)
    cfg = GradCheckConfig(n_systems=1, kink_margin=1e-3)
    sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
    bundle = pipeline_gradients(sys, masks, xs, targets)
    s = encode_inputs(xs, masks)
    for name in ("w_sa", "w_aa", "w_so", "w_ao"):
        kern = getattr(sys, name)
        lag0 = 1 if name == "w_aa" else 0  # tap 0 of w_aa is pinned to zero

        def loss(flat, _n=name, _full=kern.taps, _lag0=lag0):
            taps = _full.copy()
            taps[_lag0:] = flat.reshape(taps[_lag0:].shape)
            return pipeline_cost(decode_outputs(forward(sys.with_kernel(_n, taps), s).o, masks),
                                 targets)

        fd = fd_gradient(loss, kern.taps[lag0:].ravel(), eps=1e-5)
        assert rel_err(bundle[name][lag0:].ravel(), fd) < 1e-5, name


def test_central_differences_move_only_the_named_coordinates_of_the_whole_row():
    # the probe points are whole rows, theta with one coordinate of coords moved by
    # +eps then -eps, after theta itself if lead, which sits in the first chunk;
    # a non-finite loss is reported at its coordinate
    theta = np.arange(6.0)
    coords = np.array([1, 4])
    moved = [theta + step * np.eye(6)[j] for j in coords for step in (0.5, -0.5)]
    two = gradients_mod._STACK_BYTES // 2  # the bytes of a probe when a chunk holds two
    for lead, rows in ((False, moved), (True, [theta] + moved)):
        chunks = list(gradients_mod._probe_points(theta, coords, 0.5, two, lead))
        assert [len(c) for c in chunks] == [2, 2, 1][: len(rows) // 2 + len(rows) % 2]
        np.testing.assert_array_equal(np.concatenate(chunks), rows)
    fd = gradients_mod._central_differences([float(r @ r) for r in moved], coords, 0.5)
    np.testing.assert_array_equal(fd, 2 * theta[coords])
    with pytest.raises(NumericError, match="coordinate 4$"):
        gradients_mod._central_differences([0.0, 0.0, np.inf, 0.0], coords, 0.5)


def test_grad_check_identity_nonlinearity_very_tight():
    cfg = GradCheckConfig(n_systems=2, nonlinearities=("identity",))
    report = grad_check(cfg, seed=42)
    assert report.passed
    assert max(err for _, err, _ in report.entries) < 1e-8


def test_grad_check_rectifier_passes():
    cfg = GradCheckConfig(n_systems=3, nonlinearities=("rectifier",))
    report = grad_check(cfg, seed=7)
    assert report.passed
    assert max(err for _, err, _ in report.entries) < 1e-5


def test_grad_check_default_seed_4_draw_is_stable():
    # seed 4 once drew an exploding identity plant (cost ~5e21) on which
    # central differences failed; the loop-gain bound keeps it stable
    assert grad_check(GradCheckConfig(n_systems=1), 4).passed


def test_toy_draws_bound_the_loop_gain():
    cfg = GradCheckConfig()
    rng = np.random.default_rng(0)
    for _ in range(20):
        sys, _, _, _ = random_toy_pipeline(cfg, rng)
        gain = sys.dt * np.sum(np.linalg.norm(sys.w_aa.taps, ord=2, axis=(1, 2)))
        assert gain <= 0.9 + 1e-12


def test_grad_check_broken_adjoint_fails():
    cfg = GradCheckConfig(n_systems=2)
    report = grad_check(cfg, seed=11, break_adjoint=True)
    assert not report.passed


def full_forward_outputs(sys, masks, xs, name, w):
    """The decoded outputs of the probe that sets block name to w, from its own
    plant and masks: encoded, run forward and decoded in full."""
    plant, own = ((sys.with_kernel(name, w), masks) if name in KERNEL_BLOCKS
                  else (sys, masks.replace(**{name: w})))
    return decode_outputs(forward(plant, encode_inputs(xs, own)).o, own)


def member(sys, masks, name):
    return getattr(sys, name).taps if name in KERNEL_BLOCKS else getattr(masks, name)


def probes_of(sys, masks, names, eps):
    """(block, member) of every probe grad_check makes of blocks names: each
    coordinate moved by +eps, then by -eps, but w_aa's tap 0."""
    probes = []
    for name in names:
        full = member(sys, masks, name)
        for j in range(int(name == "w_aa") * full[0].size, full.size):
            for step in (eps, -eps):
                moved = full.copy()
                moved.flat[j] += step
                probes.append((name, moved))
    return probes


def rows_of(sys, masks, side, eps):
    """(block, member) of every row of grad_check's stack of side: the toy's own
    (its w_sa, every block its own) leads the state side, then its probes."""
    return [("w_sa", sys.w_sa.taps)] * (side == STATE_SIDE) + probes_of(sys, masks, side, eps)


def stacks_of(sys, masks, names, probes):
    """Every block of names as a full stack, one row per probe: the probe's
    member for its block, the toy's own member for the others."""
    return {k: np.stack([w if name == k else member(sys, masks, k) for name, w in probes])
            for k in names}


def test_cost_from_the_recorded_state_is_the_full_forward_cost_bit_for_bit():
    cfg = GradCheckConfig()
    rng = np.random.default_rng(5)
    for _ in range(10):
        sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
        s = encode_inputs(xs, masks)
        toy = (s.samples[None], forward(sys, s).a.samples[None])
        # an output-side change keeps the state: w_so, w_ao, u and y_b each moved
        for name, w in (("w_so", 1.5 * sys.w_so.taps), ("w_ao", sys.w_ao.taps - 0.1),
                        ("u", -masks.u), ("y_b", masks.y_b + 0.2)):
            ys = _probe_outputs(sys, masks, xs, {name: w[None]}, toy)[0]
            full = full_forward_outputs(sys, masks, xs, name, w)
            assert np.array_equal(ys[0], full), name
            assert pipeline_cost(ys[0], targets) == pipeline_cost(full, targets), name


@pytest.mark.parametrize("seed", range(20))
def test_output_side_probes_on_the_recorded_state_equal_full_forward_ones(seed):
    # the first toy grad_check(GradCheckConfig(), seed) audits: the central
    # differences of its output-side blocks, taken on the recorded state through
    # the stacked outputs, are those of full forward runs
    cfg = GradCheckConfig()
    sys, masks, xs, targets = random_toy_pipeline(cfg, np.random.default_rng(seed))
    s = encode_inputs(xs, masks)
    toy = (s.samples[None], forward(sys, s).a.samples[None])
    for name in OUTPUT_SIDE:
        ref = member(sys, masks, name)

        def reused(flat, _name=name, _shape=ref.shape):
            ys = _probe_outputs(sys, masks, xs, {_name: flat.reshape((1,) + _shape)}, toy)[0]
            return pipeline_cost(ys[0], targets)

        def full(flat, _name=name, _shape=ref.shape):
            return pipeline_cost(full_forward_outputs(sys, masks, xs, _name,
                                                      flat.reshape(_shape)), targets)

        np.testing.assert_array_equal(fd_gradient(reused, ref.ravel(), cfg.eps),
                                      fd_gradient(full, ref.ravel(), cfg.eps))


@pytest.mark.parametrize("seed", range(20))
def test_stacked_probe_outputs_equal_the_probe_plants_forward_bit_for_bit(seed):
    # every probe of the first toy grad_check(GradCheckConfig(), seed) audits:
    # its decoded outputs from the stacked computation are those of its own
    # plant's forward run on its own encoded input, through its own masks.  One
    # block stacked beside the toy's own others (a drive of one item against P
    # feedback taps, m of one against s_b of P) is a layout grad_check never makes
    cfg = GradCheckConfig()
    sys, masks, xs, _ = random_toy_pipeline(cfg, np.random.default_rng(seed))
    s = encode_inputs(xs, masks)
    toy = (s.samples[None], forward(sys, s).a.samples[None])
    for name in ALL_BLOCKS:
        probes = [w for _, w in probes_of(sys, masks, [name], cfg.eps)]
        ys = _probe_outputs(sys, masks, xs, {name: np.stack(probes)},
                            toy if name in OUTPUT_SIDE else None)[0]
        assert len(ys) == len(probes)
        for w, y in zip(probes, ys):
            assert np.array_equal(y, full_forward_outputs(sys, masks, xs, name, w)), name


@pytest.mark.parametrize("family, seed", [
    pytest.param(family, seed, id=f"{label}{seed}") for seed in range(20)
    for label, family in (("", GradCheckConfig().nonlinearities), ("clip-", ("clip",)))])
def test_merged_side_stacks_equal_the_probe_plants_forward_bit_for_bit(monkeypatch, family, seed):
    # the two stacks grad_check runs for each toy: the state side the toy's own
    # row, then every probe of w_sa, w_aa, m and s_b; the output side every probe
    # of w_so, w_ao, u and y_b on the toy's own encoded input and state.  Each
    # row is its own plant's forward run on its own input, decoded.  Each draw
    # attempt runs a state side; only an accepted draw's output side follows
    draws, runs = [], []  # grad_check's toys, and the (stacks, toy, outputs) of each stack
    draw, probe = gradients_mod._draw_toy, gradients_mod._probe_outputs

    def drawn(*args):
        draws.append(draw(*args))
        return draws[-1]

    def probed(sys, masks, xs, stacks, toy):
        out = probe(sys, masks, xs, stacks, toy)
        runs.append((stacks, toy, out[0]))
        return out

    monkeypatch.setattr(gradients_mod, "_draw_toy", drawn)
    monkeypatch.setattr(gradients_mod, "_probe_outputs", probed)
    cfg = GradCheckConfig(n_systems=2, nonlinearities=family)
    grad_check(cfg, seed)
    kept = [i for i, (_, toy, _) in enumerate(runs) if toy is not None]  # the output sides
    assert len(kept) == len(draws) == 2 and all(runs[i - 1][1] is None for i in kept)
    for (sys, masks, xs, *_), i in zip(draws, kept):
        s = encode_inputs(xs, masks)
        x, a = runs[i][1]
        assert np.array_equal(x[0], s.samples) and np.array_equal(a[0], forward(sys, s).a.samples)
        for side, (stacks, _, ys) in zip((STATE_SIDE, OUTPUT_SIDE), runs[i - 1 : i + 1]):
            want = stacks_of(sys, masks, side, rows_of(sys, masks, side, cfg.eps))
            assert stacks.keys() == want.keys() and len(ys) == len(want[side[0]])
            assert all(np.array_equal(stacks[k], want[k]) for k in side)
    (sys, masks, xs, *_), i = draws[0], kept[0]
    for side, (_, _, ys) in zip((STATE_SIDE, OUTPUT_SIDE), runs[i - 1 : i + 1]):
        for (name, w), y in zip(rows_of(sys, masks, side, cfg.eps), ys):
            assert np.array_equal(y, full_forward_outputs(sys, masks, xs, name, w)), name


def test_grad_check_report_does_not_depend_on_the_chunking(monkeypatch):
    cfg = GradCheckConfig(n_systems=2)
    whole = grad_check(cfg, 8)
    monkeypatch.setattr(gradients_mod, "_STACK_BYTES", 1)  # one probe per chunk
    assert grad_check(cfg, 8).entries == whole.entries


def test_grad_check_memory_stays_bounded():
    # unchunked, the w_aa probes of this family stack about 25 MB of state
    cfg = GradCheckConfig(n_systems=1, n_state=10, kernel_len=6, nonlinearities=("clip",))
    tracemalloc.start()
    try:
        report = grad_check(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4e6


def test_report_csv_roundtrip(tmp_path):
    # the format gradcheck --out writes: a header, then one row per block that
    # parses back to its entry
    cfg = GradCheckConfig(n_systems=1, nonlinearities=("identity",))
    report = grad_check(cfg, seed=3)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    header, *rows = path.read_text().splitlines()
    assert header == "block,max_rel_err,pass"
    parsed = [(block, float(err), bool(int(ok)))
              for block, err, ok in (row.split(",") for row in rows)]
    assert parsed == report.entries
    assert [block for block, _, _ in parsed] == list(ALL_BLOCKS)


def test_batch_gradient_linearity():
    # gradient of a summed cost == sum of per-instance-cost gradients
    rng = np.random.default_rng(4)
    cfg = GradCheckConfig(n_systems=1, instances=4, nonlinearities=("identity",))
    sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
    # batch encoded jointly vs instances encoded alone: feedback spans segment
    # boundaries, so compare through per-instance error masking instead
    full = pipeline_gradients(sys, masks, xs, targets)
    acc = None
    s = None
    from echotrain.masking import (decode_outputs, encode_inputs,
                                   encode_output_errors, input_mask_gradient,
                                   output_mask_gradient)

    s = encode_inputs(xs, masks)
    tr = forward(sys, s)
    ys = decode_outputs(tr.o, masks)
    for i in range(len(xs)):
        errs = np.zeros_like(ys)
        errs[i] = ys[i] - targets[i]
        e_o = encode_output_errors(errs, masks)
        bw = backward(sys, tr, e_o)
        g = kernel_gradients(sys, tr, bw, s)
        g["m"], g["s_b"] = input_mask_gradient(bw.e_s, xs)
        g["u"], g["y_b"] = output_mask_gradient(errs, tr.o)
        acc = g if acc is None else {k: acc[k] + v for k, v in g.items()}
    for name, arr in full.items():
        assert relative_error(arr, acc[name]) < 1e-12, name


def test_kernel_gradients_lag_restriction():
    # a dict of lags computes only those lags, each the same product as the
    # full computation; kernel names alone still give every lag
    rng = np.random.default_rng(5)
    cfg = GradCheckConfig(n_systems=1, kernel_len=6)
    sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
    s = encode_inputs(xs, masks)
    tr = forward(sys, s)
    errs = decode_outputs(tr.o, masks) - targets
    bw = backward(sys, tr, encode_output_errors(errs, masks))
    full = kernel_gradients(sys, tr, bw, s)
    assert all(name in full for name in KERNEL_BLOCKS)
    part = kernel_gradients(sys, tr, bw, s, blocks={"w_sa": np.array([1, 4]),
                                                    "w_aa": np.array([0, 2]),
                                                    "w_ao": np.array([], dtype=int)})
    assert "w_so" not in part
    for name, lags in (("w_sa", [1, 4]), ("w_aa", [2]), ("w_ao", [])):
        got, want = part[name], full[name]
        assert got.shape == want.shape
        assert np.array_equal(got[lags], want[lags])
        rest = np.setdiff1d(np.arange(want.shape[0]), lags)
        assert np.all(got[rest] == 0.0)


@pytest.mark.parametrize("field, value", [
    ("nonlinearities", ()), ("nonlinearities", ("relu",)), ("nonlinearities", ("clip", "tanh")),
    ("nonlinearities", "clip"),
    ("dt_range", (0.5, np.nan)), ("dt_range", (-1.0, 0.0)), ("dt_range", (0.0, 1.0)),
    ("dt_range", (1.2, 0.1)), ("dt_range", (0.1, np.inf)),
    ("kink_margin", np.nan), ("kink_margin", np.inf), ("kink_margin", -1e-3),
    ("threads", 0), ("threads", 2),
])
def test_grad_check_config_rejects_bad_fields_at_construction(field, value):
    with pytest.raises(ConfigurationError, match=field) as excinfo:
        GradCheckConfig(**{field: value})
    assert excinfo.value.fields == (field,)


def test_grad_check_config_takes_its_edge_values():
    GradCheckConfig(nonlinearities=("clip",), dt_range=(0.3, 0.3), kink_margin=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 42], ids=["0", "1", "2", "42-redrawn"])
def test_grad_check_makes_one_cost_call_per_probe_and_encodes_each_input_once(monkeypatch, seed):
    # the traced audit_counts invariant's tier-1 twin.  Each draw attempt runs
    # one state-side recursion, its toy's own row and every state probe; the
    # kink test, the gradient run and the output side read that lead row, so
    # grad_check makes no forward or encode_inputs call of its own.  Only the
    # accepted toy's probes are costed.  Seed 42's first clip draw is rejected
    calls = {"pipeline_cost": 0, "encode_inputs": 0, "forward": 0}
    batches = []  # the batch of each recursion the probes run

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gradients_mod, name, counted(name, getattr(gradients_mod, name)))
    recursion = gradients_mod._causal_feedback

    def batched(taps, dt, batch, *rest):
        batches.append(batch)
        return recursion(taps, dt, batch, *rest)

    monkeypatch.setattr(gradients_mod, "_causal_feedback", batched)
    cfg = GradCheckConfig(n_systems=1, nonlinearities=("clip",))
    sys, masks, _, _ = random_toy_pipeline(cfg, np.random.default_rng(seed))  # grad_check's toy
    attempts = len(batches)  # one state-side recursion per draw attempt
    assert (attempts > 1) == (seed == 42)
    assert calls == dict.fromkeys(calls, 0)  # the draw makes none of these calls either
    batches.clear()
    grad_check(cfg, seed)
    params = sum(getattr(sys, name).taps[int(name == "w_aa"):].size for name in KERNEL_BLOCKS)
    params += sum(getattr(masks, name).size for name in MASK_BLOCKS)
    # the benchmark's traced invariant: a rejected draw's probes are never costed
    assert calls == {"pipeline_cost": 2 * params, "encode_inputs": 0, "forward": 0}
    assert 2 * params == 296
    state = sum(member(sys, masks, name)[int(name == "w_aa"):].size for name in STATE_SIDE)
    assert batches == [2 * state + 1] * attempts and 2 * state + 1 == 169


@pytest.mark.parametrize("broken", [False, True], ids=["reciprocal", "non-reciprocal"])
@pytest.mark.parametrize("kind", GradCheckConfig().nonlinearities)
def test_the_draws_trace_feeds_the_gradient_run_bit_for_bit(monkeypatch, kind, broken):
    # every draw attempt's lead row, the toy's own row of its state-side stack,
    # is the toy's encode_inputs and forward run bit for bit; the accepted
    # draw's s and tr are read off it and give pipeline_gradients exactly
    attempts = []  # (sys, masks, xs, lead) of each draw attempt
    stack = gradients_mod._side_stack

    def spied(sys, masks, xs, side, eps, toy=None):
        out = stack(sys, masks, xs, side, eps, toy)
        attempts.append((sys, masks, xs, out[1]))
        return out

    monkeypatch.setattr(gradients_mod, "_side_stack", spied)
    cfg = GradCheckConfig(nonlinearities=(kind,))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sys, masks, xs, targets, s, tr, _ = gradients_mod._draw_toy(cfg, rng)
        for toy, toy_masks, toy_xs, lead in attempts:
            ref_s = encode_inputs(toy_xs, toy_masks)
            ref = forward(toy, ref_s)
            for got, want in zip(lead, (ref_s, ref.a, ref.o)):
                assert np.array_equal(got, want.samples)
        ref_s = encode_inputs(xs, masks)
        ref = forward(sys, ref_s)
        for got, want in ((s, ref_s), (tr.a, ref.a), (tr.o, ref.o)):
            assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(tr.jac, ref.jac)
        attempts.clear()
        medium = _non_reciprocal(sys) if broken else None
        grads = gradients_mod._trace_gradients(sys, masks, xs, targets, s, tr, medium)
        want = pipeline_gradients(sys, masks, xs, targets, medium=medium)
        assert grads.keys() == want.keys() == set(ALL_BLOCKS)
        for name in ALL_BLOCKS:
            assert np.array_equal(grads[name], want[name]), name


@pytest.mark.parametrize("kind", GradCheckConfig().nonlinearities)
def test_the_lead_row_draws_what_a_forward_kink_test_draws(monkeypatch, kind):
    # random_toy_pipeline accepts the draws that a kink test on each attempt's
    # own encode_inputs and forward run accepts, after the same rng draws
    cfg = GradCheckConfig(nonlinearities=(kind,))

    def lone(sys, masks, xs, side, eps):  # no probes: the toy's own run alone
        s = encode_inputs(xs, masks)
        tr = forward(sys, s)
        return None, (s.samples, tr.a.samples, tr.o.samples), None, None

    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_toy_pipeline(cfg, rng)
        with monkeypatch.context() as patched:
            patched.setattr(gradients_mod, "_side_stack", lone)
            want = random_toy_pipeline(cfg, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        (sys, masks, xs, targets), (ref_sys, ref_masks, ref_xs, ref_targets) = got, want
        for name in ALL_BLOCKS:
            assert np.array_equal(member(sys, masks, name), member(ref_sys, ref_masks, name))
        assert sys.f == ref_sys.f and sys.dt == ref_sys.dt
        assert np.array_equal(xs, ref_xs) and np.array_equal(targets, ref_targets)


def naive_entries(cfg, seed):
    """grad_check's report entries from the fd_gradient oracle with a full
    forward run per probe: no stacked probes and no shared input or state."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(ALL_BLOCKS, 0.0)
    for _ in range(cfg.n_systems):
        sys, masks, xs, targets = random_toy_pipeline(cfg, rng)
        grads = pipeline_gradients(sys, masks, xs, targets)
        for name in ALL_BLOCKS:
            full = getattr(sys, name).taps if name in KERNEL_BLOCKS else getattr(masks, name)
            lag0 = int(name == "w_aa")

            def loss(flat, _name=name, _full=full, _lag0=lag0):
                w = np.concatenate((_full[:_lag0].ravel(), flat)).reshape(_full.shape)
                ys = full_forward_outputs(sys, masks, xs, _name, w)
                return 0.5 * float(np.sum((ys - targets) ** 2))

            fd = fd_gradient(loss, full[lag0:].ravel(), cfg.eps)
            worst[name] = max(worst[name], relative_error(grads[name][lag0:], fd))
    return [(name, worst[name], worst[name] < cfg.threshold) for name in ALL_BLOCKS]


@pytest.mark.parametrize("family, seed", [  # the clip family is the benchmark's
    pytest.param(family, seed, id=f"{label}{seed}", marks=[pytest.mark.slow] * (seed >= 5))
    for seed in range(30)
    for label, family in (("", GradCheckConfig().nonlinearities), ("clip-", ("clip",)))])
def test_grad_check_entries_equal_the_naive_reference_exactly(family, seed):
    cfg = GradCheckConfig(n_systems=2, nonlinearities=family)
    assert grad_check(cfg, seed).entries == naive_entries(cfg, seed)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grad_check_reports_a_non_finite_probe_loss():
    # probes a step of 1e308 away overflow the toy plant's outputs: the audit
    # reports it, and numpy warns of nothing on the way
    with pytest.raises(NumericError):
        grad_check(GradCheckConfig(n_systems=1, eps=1e308), 0)


def directional_misses(name, backward_medium=None):
    """Block -> worst |fd - <g, v>| / |g| on the first batch of bundled config
    name, noise and backward path off, over the gradient direction and two
    random unit directions v on each block's live lags.  fd is the central
    difference of the task cost along v; g is training._batch_gradients'
    gradient, the error played back through backward_medium(plant) if given.
    The acoustic tube is w_sa and w_aa at once, so it is perturbed as one
    kernel, with the sum of their gradients."""
    exp = build_experiment(ConfigFile.parse(resolve_config_path(name)))
    plant = replace(exp.system, noise=None, backward_path=None)
    rng = np.random.default_rng(exp.seed)
    t = exp.template
    masks = init_masks(t.n_in, exp.task.dim_x, t.n_out, exp.task.dim_y, t.period, t.dt,
                       exp.train_cfg.init_std_input_mask, exp.train_cfg.init_std_output_mask,
                       rng)
    data = exp.task.sample(exp.train_cfg.batch_len, rng)
    medium = plant if backward_medium is None else backward_medium(plant)
    honest = training.backward
    training.backward = lambda sys, *args: honest(medium, *args)
    try:
        _, _, grads = training._batch_gradients(plant, masks, exp.task, data, ALL_BLOCKS, None)
    finally:
        training.backward = honest

    tube = _one_tube(plant)
    blocks = {"tube": (plant.w_sa.taps, grads["w_sa"] + grads["w_aa"])} if tube else {}
    for block in (("w_so", "w_ao") if tube else KERNEL_BLOCKS) + MASK_BLOCKS:
        full = getattr(plant, block).taps if block in KERNEL_BLOCKS else getattr(masks, block)
        blocks[block] = (full, grads[block])

    def cost(block, theta):
        sys, pm = plant, masks
        if block == "tube":
            kern = Kernel(theta, plant.dt)
            sys = replace(plant, w_sa=kern, w_aa=kern)
        elif block in KERNEL_BLOCKS:
            sys = plant.with_kernel(block, theta)
        else:
            pm = masks.replace(**{block: theta})
        ys = decode_outputs(forward(sys, encode_inputs(data.inputs, pm)).o, pm)
        return exp.task.cost(ys, data)[0]

    worst = {}
    for block, (full, g) in blocks.items():
        live = np.zeros(full.shape, dtype=bool)
        if block in MASK_BLOCKS:
            live[...] = True
        else:
            live[Kernel(full, plant.dt).nonzero_lags()] = True
        if not live.any():
            continue  # a kernel with no live lag holds no parameter
        g = np.where(live, g, 0.0)
        norm = np.linalg.norm(g)
        step = 1e-6 * max(1.0, float(np.max(np.abs(full))))
        worst[block] = 0.0
        for v in [g / norm] + [np.where(live, rng.standard_normal(full.shape), 0.0)
                               for _ in range(2)]:
            v = v / np.linalg.norm(v)
            fd = fd_gradient(lambda h: cost(block, full + h[0] * v), np.zeros(1), eps=step)[0]
            worst[block] = max(worst[block], abs(fd - float(np.vdot(g, v))) / norm)
    return worst


@pytest.mark.parametrize("name", bundled_config_names())
def test_training_gradients_match_directional_differences_at_full_scale(name):
    # the bundled plants at full size: their blocks, the FFT engine (40 kHz),
    # the one recursion on s + a (every tube) and live-lag tap gradients
    worst = directional_misses(name)
    assert worst and max(worst.values()) < 1e-6, worst


def test_full_scale_directional_check_fails_on_a_non_reciprocal_backward_run():
    # negative control; transposing taps changes only a square kernel of more
    # than one channel, so of the bundled plants only the optical one can break
    worst = directional_misses("optical_labels", backward_medium=_non_reciprocal)
    assert max(worst.values()) > 1e-6, worst
