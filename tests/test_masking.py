import itertools
import tracemalloc

import numpy as np
import pytest

from echotrain.errors import ConfigurationError, LengthError, NumericError
from echotrain.masking import (
    MaskSet,
    _decode_stack,
    _encode_stack,
    decode_outputs,
    encode_inputs,
    encode_output_errors,
    init_masks,
    input_mask_gradient,
    masks_to_csv,
    output_mask_gradient,
)
from echotrain.signal import Kernel, Signal, split_segments
from echotrain.system import Nonlinearity, PhysicalSystem, backward, forward
from echotrain.tasks import SequenceDataset

from oracles import fd_gradient, rel_err


def rand_masks(rng, n_in=2, dim_x=2, n_out=2, dim_y=2, period=6, dt=0.5):
    return MaskSet(
        m=rng.standard_normal((n_in, dim_x, period)),
        u=rng.standard_normal((dim_y, n_out, period)),
        s_b=rng.standard_normal((n_in, period)),
        y_b=rng.standard_normal(dim_y),
        period=period,
        dt=dt,
    )


def test_encode_zero_mask_zero_bias():
    masks = MaskSet(m=np.zeros((1, 1, 4)), u=np.zeros((1, 1, 4)),
                    s_b=np.zeros((1, 4)), y_b=np.zeros(1), period=4, dt=1.0)
    s = encode_inputs([[1.0], [2.0]], masks)
    assert s.n_samples == 8
    assert np.all(s.samples == 0.0)


def test_encode_single_instance_formula():
    m = np.array([1.0, 0.0, -1.0]).reshape(1, 1, 3)
    masks = MaskSet(m=m, u=np.zeros((1, 1, 3)), s_b=np.zeros((1, 3)),
                    y_b=np.zeros(1), period=3, dt=1.0)
    s = encode_inputs([[2.0]], masks)
    np.testing.assert_array_equal(s.samples, [[2.0, 0.0, -2.0]])


def test_encode_concatenation_property():
    rng = np.random.default_rng(0)
    masks = rand_masks(rng)
    xs = rng.standard_normal((2, 2))
    both = encode_inputs(xs, masks)
    one = encode_inputs(xs[:1], masks)
    two = encode_inputs(xs[1:], masks)
    np.testing.assert_array_equal(
        both.samples, np.concatenate([one.samples, two.samples], axis=1))
    segs = split_segments(both, masks.period)
    np.testing.assert_array_equal(segs[0].samples, one.samples)
    np.testing.assert_array_equal(segs[1].samples, two.samples)


def test_decode_zero_mask_gives_bias():
    rng = np.random.default_rng(1)
    masks = MaskSet(m=np.zeros((1, 1, 5)), u=np.zeros((2, 1, 5)),
                    s_b=np.zeros((1, 5)), y_b=np.array([3.0, -1.0]), period=5, dt=0.1)
    o = Signal(rng.standard_normal((1, 15)), 0.1)
    ys = decode_outputs(o, masks)
    np.testing.assert_array_equal(ys, np.tile([3.0, -1.0], (3, 1)))


def test_decode_averaging_mask():
    P, dt, c = 5, 0.2, 1.7
    masks = MaskSet(m=np.zeros((1, 1, P)), u=np.full((1, 1, P), 1.0 / (P * dt)),
                    s_b=np.zeros((1, P)), y_b=np.array([0.5]), period=P, dt=dt)
    o = Signal(np.full((1, P), c), dt)
    ys = decode_outputs(o, masks)
    np.testing.assert_allclose(ys, [[0.5 + c]], rtol=1e-14)


def test_decode_matches_per_segment_sum_oracle():
    rng = np.random.default_rng(2)
    masks = rand_masks(rng, n_out=3, dim_y=2, period=4, dt=0.3)
    o = Signal(rng.standard_normal((3, 12)), 0.3)
    ys = decode_outputs(o, masks)
    for i in range(3):
        expect = masks.y_b.copy()
        for t in range(4):
            expect = expect + 0.3 * masks.u[:, :, t] @ o.samples[:, i * 4 + t]
        np.testing.assert_allclose(ys[i], expect, rtol=1e-13)


@pytest.mark.parametrize("size", [1, 5])
def test_stacked_codec_items_are_lone_encodes_and_decodes_bit_for_bit(size):
    # each member is a stack of size items, or the first item's alone (a stack
    # of one) broadcast against the others; item p is the lone codec of its masks
    rng = np.random.default_rng(30)
    sets = [rand_masks(rng, n_in=3, dim_x=4, n_out=2, dim_y=3, period=7, dt=0.3)
            for _ in range(size)]
    outs = rng.standard_normal((size, 2, 5 * 7))
    xs = rng.standard_normal((5, 4))
    members = ("m", "s_b", "u", "y_b", "o")
    for stacked in itertools.product((False, True), repeat=len(members)):
        own = dict(zip(members, stacked))

        def stack(name):
            items = outs if name == "o" else np.stack([getattr(pm, name) for pm in sets])
            return items[: size if own[name] else 1]

        enc = _encode_stack(stack("m"), stack("s_b"), xs)
        dec = _decode_stack(stack("o"), stack("u"), stack("y_b"), 0.3)
        assert len(enc) == (size if own["m"] or own["s_b"] else 1)
        assert len(dec) == (size if own["u"] or own["y_b"] or own["o"] else 1)
        for p in range(size):
            pm = sets[0].replace(**{k: getattr(sets[p], k) for k in members[:4] if own[k]})
            o = Signal(outs[p if own["o"] else 0], 0.3)
            assert np.array_equal(enc[p % len(enc)], encode_inputs(xs, pm).samples), own
            assert np.array_equal(dec[p % len(dec)], decode_outputs(o, pm)), own


def test_decode_length_error():
    rng = np.random.default_rng(3)
    masks = rand_masks(rng, period=5)
    with pytest.raises(LengthError):
        decode_outputs(Signal(rng.standard_normal((2, 12)), masks.dt), masks)


def test_encode_output_errors_zero_and_pointwise():
    rng = np.random.default_rng(4)
    masks = rand_masks(rng, period=2)
    z = encode_output_errors(np.zeros((3, 2)), masks)
    assert np.all(z.samples == 0.0)
    e = rng.standard_normal((1, 2))
    sig = encode_output_errors(e, masks)
    for t in range(2):
        np.testing.assert_allclose(sig.samples[:, t], masks.u[:, :, t].T @ e[0], rtol=1e-14)


def test_error_encode_decode_adjoint_relation():
    # <encode_output_errors(e), o>_dt == sum_i <e_i, decode(o)_i - y_b>
    rng = np.random.default_rng(5)
    masks = rand_masks(rng, n_out=3, dim_y=2, period=4, dt=0.7)
    n = 5
    o = Signal(rng.standard_normal((3, n * 4)), 0.7)
    errs = rng.standard_normal((n, 2))
    e_o = encode_output_errors(errs, masks)
    lhs = 0.7 * float(np.vdot(e_o.samples, o.samples))
    ys = decode_outputs(o, masks)
    rhs = float(np.sum(errs * (ys - masks.y_b)))
    assert rel_err([lhs], [rhs]) < 1e-10


def test_input_mask_gradient_trivial_cases():
    rng = np.random.default_rng(6)
    masks = rand_masks(rng, period=3, dt=1.0)
    xs = rng.standard_normal((4, 2))
    zero = Signal(np.zeros((2, 12)), 1.0)
    dm, dsb = input_mask_gradient(zero, xs)
    assert np.all(dm == 0.0) and np.all(dsb == 0.0)

    # single instance at dt = 1: dm[:, :, t] == e_s(t) x^T exactly
    e = Signal(rng.standard_normal((2, 3)), 1.0)
    x = rng.standard_normal((1, 2))
    dm, dsb = input_mask_gradient(e, x)
    for t in range(3):
        np.testing.assert_allclose(dm[:, :, t], np.outer(e.samples[:, t], x[0]), rtol=1e-14)
    np.testing.assert_allclose(dsb, e.samples, rtol=1e-14)


def test_output_mask_gradient_trivial_cases():
    rng = np.random.default_rng(7)
    o = Signal(rng.standard_normal((1, 4)), 0.25)
    dU, dyb = output_mask_gradient(np.zeros((1, 1)), o)
    assert np.all(dU == 0.0) and np.all(dyb == 0.0)

    e = np.array([[1.3]])
    dU, dyb = output_mask_gradient(e, o)
    np.testing.assert_allclose(dU[0, 0, :], 0.25 * 1.3 * o.samples[0], rtol=1e-14)
    np.testing.assert_allclose(dyb, [1.3])


def test_encode_map_adjointness():
    # zero bias: <encode(xs), e>_dt == sum_i x_i . (dt * sum_t m[:,:,t]^T e_i[:,t])
    rng = np.random.default_rng(8)
    masks = rand_masks(rng, period=5, dt=0.4).replace(s_b=np.zeros((2, 5)))
    xs = rng.standard_normal((3, 2))
    e = Signal(rng.standard_normal((2, 15)), 0.4)
    lhs = 0.4 * float(np.vdot(encode_inputs(xs, masks).samples, e.samples))
    segs = e.samples.reshape(2, 3, 5).transpose(1, 0, 2)
    rhs = 0.0
    for i in range(3):
        rhs += float(xs[i] @ (0.4 * np.einsum("rcp,rp->c", masks.m, segs[i])))
    assert rel_err([lhs], [rhs]) < 1e-10


def full_pipeline_cost(sys, masks, xs, targets):
    s = encode_inputs(xs, masks)
    ys = decode_outputs(forward(sys, s).o, masks)
    return 0.5 * float(np.sum((ys - targets) ** 2))


def small_system(rng, n_in, n_out, dt):
    n_state = 3
    L = 3
    aa = 0.4 * rng.standard_normal((L, n_state, n_state))
    aa[0] = 0.0
    return PhysicalSystem(
        w_sa=Kernel(0.4 * rng.standard_normal((L, n_state, n_in)), dt),
        w_aa=Kernel(aa, dt),
        w_so=Kernel(0.4 * rng.standard_normal((L, n_out, n_in)), dt),
        w_ao=Kernel(0.4 * rng.standard_normal((L, n_out, n_state)), dt),
        f=Nonlinearity.rectifier(),
    )


def test_mask_gradients_match_finite_differences_end_to_end():
    rng = np.random.default_rng(9)
    dt = 0.3
    sys = small_system(rng, n_in=2, n_out=2, dt=dt)
    masks = rand_masks(rng, n_in=2, dim_x=2, n_out=2, dim_y=2, period=4, dt=dt)
    xs = rng.standard_normal((5, 2))
    targets = rng.standard_normal((5, 2))

    s = encode_inputs(xs, masks)
    tr = forward(sys, s)
    ys = decode_outputs(tr.o, masks)
    errs = ys - targets  # dC/dy_i for the quadratic cost
    e_o = encode_output_errors(errs, masks)
    bw = backward(sys, tr, e_o)
    dm, dsb = input_mask_gradient(bw.e_s, xs)
    du, dyb = output_mask_gradient(errs, tr.o)

    def loss_m(flat):
        return full_pipeline_cost(sys, masks.replace(m=flat.reshape(masks.m.shape)), xs, targets)

    def loss_sb(flat):
        return full_pipeline_cost(sys, masks.replace(s_b=flat.reshape(masks.s_b.shape)), xs, targets)

    def loss_u(flat):
        return full_pipeline_cost(sys, masks.replace(u=flat.reshape(masks.u.shape)), xs, targets)

    def loss_yb(flat):
        return full_pipeline_cost(sys, masks.replace(y_b=flat), xs, targets)

    assert rel_err(dm.ravel(), fd_gradient(loss_m, masks.m.ravel())) < 1e-5
    assert rel_err(dsb.ravel(), fd_gradient(loss_sb, masks.s_b.ravel())) < 1e-5
    assert rel_err(du.ravel(), fd_gradient(loss_u, masks.u.ravel())) < 1e-5
    assert rel_err(dyb, fd_gradient(loss_yb, masks.y_b.copy())) < 1e-5


def test_input_mask_gradient_length_mismatch():
    rng = np.random.default_rng(10)
    e = Signal(rng.standard_normal((2, 10)), 1.0)
    with pytest.raises(LengthError):
        input_mask_gradient(e, rng.standard_normal((3, 2)))


def test_init_masks_and_csv(tmp_path):
    rng = np.random.default_rng(11)
    masks = init_masks(2, 1, 2, 3, period=4, dt=0.1,
                       std_m=np.sqrt(0.2), std_u=np.sqrt(0.1), rng=rng)
    assert masks.m.shape == (2, 1, 4)
    assert masks.u.shape == (3, 2, 4)
    assert np.all(masks.s_b == 0.0) and np.all(masks.y_b == 0.0)
    path = tmp_path / "masks.csv"
    masks_to_csv(masks, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].split(",")[0] == "t"
    assert len(lines[1].split(",")) == 1 + 2 * 1 + 2 + 3 * 2


def test_zero_masks_have_the_given_shape():
    masks = MaskSet.zeros(3, 2, 4, 5, period=6, dt=0.5)
    assert masks.m.shape == (3, 2, 6) and masks.u.shape == (5, 4, 6)
    assert masks.s_b.shape == (3, 6) and masks.y_b.shape == (5,)
    assert masks.dt == 0.5 and not any(np.any(getattr(masks, k)) for k in ("m", "u", "s_b", "y_b"))


def test_zero_masks_allocate_each_member_once():
    # 20 channels x 1e5 samples of m, s_b and u: 45.8 MiB kept; a copy of a
    # member on the way in would peak about 16 MB above it
    tracemalloc.start()
    try:
        masks = MaskSet.zeros(20, 1, 20, 1, 100_000, 1.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= sum(getattr(masks, k).nbytes for k in ("m", "u", "s_b", "y_b"))
    assert peak < 1.1 * kept


@pytest.mark.parametrize("period", [0, -3])
def test_zero_masks_reject_a_nonpositive_period(period):
    with pytest.raises(ConfigurationError, match="period must be positive"):
        MaskSet.zeros(1, 1, 1, 1, period=period, dt=1.0)


def test_zero_masks_refuse_over_a_gib_before_allocating():
    # 3 channels x 5e7 samples: 1.1 GiB of m, s_b and u, refused at "period"
    with pytest.raises(ConfigurationError, match="1.12 GiB of masks") as exc:
        MaskSet.zeros(1, 1, 1, 1, period=50_000_000, dt=1.0)
    assert exc.value.fields == ("period",)


def test_mask_set_copies_the_callers_arrays():
    base = np.zeros((1, 2, 3))
    u = np.ones((2, 1, 3))
    masks = MaskSet(m=base[:], u=u, s_b=np.zeros((1, 3)), y_b=np.zeros(2), period=3, dt=0.1)
    base[0, 0, 0] = 5.0
    assert masks.m[0, 0, 0] == 0.0
    assert u.flags.writeable  # still the caller's to write
    u[0, 0, 0] = 2.0
    assert masks.u[0, 0, 0] == 1.0
    assert not (masks.m.flags.writeable or masks.u.flags.writeable)
    moved = masks.replace(m=np.ones((1, 2, 3)))
    assert moved.u is masks.u and moved.s_b is masks.s_b  # unchanged members are shared
    assert not np.shares_memory(MaskSet(m=masks.m[:], u=masks.u, s_b=masks.s_b, y_b=masks.y_b,
                                        period=3, dt=0.1).m, masks.m)


_MASK_SHAPES = {"m": (1, 2, 3), "u": (2, 1, 3), "s_b": (1, 3), "y_b": (2,)}


def _ones_masks(**members):
    arrays = {name: np.ones(shape) for name, shape in _MASK_SHAPES.items()}
    return MaskSet(**{**arrays, **members}, period=3, dt=0.1)


# constructor or codec -> (error, message naming the member, shape of the
# array it checks, call on that array); the message tells the check apart from
# a later one on a derived array
_FINITE_CHECKS = {
    "Signal": (NumericError, "samples", (2, 5), lambda a: Signal(a, 0.1)),
    "Signal._own": (NumericError, "samples", (2, 5), lambda a: Signal._own(a, 0.1)),
    "Kernel": (NumericError, "taps", (3, 2, 2), lambda a: Kernel(a, 0.1)),
    **{f"MaskSet.{name}": (NumericError, f"mask member {name} ", shape,
                           lambda a, name=name: _ones_masks(**{name: a}))
       for name, shape in _MASK_SHAPES.items()},
    "encode_inputs": (NumericError, "xs", (4, 2), lambda a: encode_inputs(a, _ones_masks())),
    "encode_output_errors": (NumericError, "errs", (4, 2),
                             lambda a: encode_output_errors(a, _ones_masks())),
    "SequenceDataset.inputs": (ConfigurationError, "dataset", (4, 2),
                               lambda a: SequenceDataset(a, np.ones((4, 1)), np.ones(4, bool))),
    "SequenceDataset.targets": (ConfigurationError, "dataset", (4, 1),
                                lambda a: SequenceDataset(np.ones((4, 2)), a, np.ones(4, bool))),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", sorted(_FINITE_CHECKS))
def test_non_finite_values_are_rejected_everywhere_they_enter(where, bad):
    error, names, shape, call = _FINITE_CHECKS[where]
    call(np.ones(shape))  # the finite array passes
    arr = np.ones(shape)
    arr.flat[-1] = bad
    with pytest.raises(error, match=f"^{names}.*non-finite"):
        call(arr)
