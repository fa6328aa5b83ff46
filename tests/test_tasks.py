from statistics import NormalDist

import numpy as np
import pytest

from echotrain.errors import ConfigurationError, UndefinedMetricError
from echotrain.tasks import (
    SequenceDataset,
    frame_error_rate,
    gen_synthetic_labels,
    gen_variable_delay,
    nrmse,
)

from oracles import synthetic_labels_loop


def test_variable_delay_direct_formula():
    # q = [2, 0, 1] -> y_2 = q(2 - q_2) = q_1 = 0
    ds = SequenceDataset(np.array([[2.0], [0.0], [1.0]]),
                         np.array([[0.0], [0.0], [0.0]]),
                         np.array([False, False, True]))
    q = ds.inputs[:, 0]
    i = 2
    assert q[i - int(q[i])] == 0.0


def test_variable_delay_satisfies_definition_exhaustively():
    rng = np.random.default_rng(0)
    ds = gen_variable_delay(500, rng)
    q = ds.inputs[:, 0]
    np.testing.assert_array_equal(ds.cost_mask, np.arange(len(ds)) >= 2)
    assert np.all(ds.targets[:2] == 0.0)
    for i in range(len(ds)):
        if ds.cost_mask[i]:
            assert ds.targets[i, 0] == q[i - int(q[i])]
    assert not ds.cost_mask[0] and not ds.cost_mask[1]
    assert np.all(ds.cost_mask[2:])


def test_variable_delay_all_zero_input():
    class ZeroRng:
        def integers(self, lo, hi, size):
            return np.zeros(size, dtype=int)

    ds = gen_variable_delay(10, ZeroRng())
    assert np.all(ds.targets[2:] == 0.0)


def test_variable_delay_marginal_frozen_from_oracle():
    # Monte-Carlo oracle marginal: y = q_i when q_i = 0, else a uniform lookup,
    # giving P(y=0) = 1/3 + 2/9 = 5/9 and P(y=1) = P(y=2) = 2/9.
    rng = np.random.default_rng(1)
    ds = gen_variable_delay(100_000, rng)
    y = ds.targets[ds.cost_mask, 0]
    freq = np.array([(y == v).mean() for v in (0.0, 1.0, 2.0)])
    np.testing.assert_allclose(freq, [5.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0], atol=0.01)


def test_variable_delay_needs_three():
    with pytest.raises(ConfigurationError):
        gen_variable_delay(2, np.random.default_rng(0))


def lsq_onehot_readout(train, test, feature):
    """Least-squares one-hot readout on a frame feature; returns test accuracy."""
    Xtr = feature(train)[train.cost_mask]
    Ytr = train.targets[train.cost_mask]
    Xtr1 = np.hstack([Xtr, np.ones((len(Xtr), 1))])
    Wro, *_ = np.linalg.lstsq(Xtr1, Ytr, rcond=None)
    Xte = feature(test)[test.cost_mask]
    pred = np.argmax(np.hstack([Xte, np.ones((len(Xte), 1))]) @ Wro, axis=1)
    true = np.argmax(test.targets[test.cost_mask], axis=1)
    return float(np.mean(pred == true))


def test_synthetic_labels_window_one_linearly_separable():
    rng = np.random.default_rng(2)
    train = gen_synthetic_labels(2000, 2, 3, rng, window=1)
    test = gen_synthetic_labels(1000, 2, 3, rng, window=1)
    acc = lsq_onehot_readout(train, test, lambda d: d.inputs)
    assert acc > 0.95  # label is sign of channel 0; linear oracle nails it


def test_synthetic_labels_window_needs_memory():
    # with window 3 a memoryless readout is informative but imperfect; a
    # windowed readout does strictly better (2 classes: LSQ argmax is a
    # proper discriminant there)
    rng = np.random.default_rng(3)
    train = gen_synthetic_labels(3000, 2, 2, rng, window=3)
    test = gen_synthetic_labels(1500, 2, 2, rng, window=3)

    def windowed(d):
        x = d.inputs[:, :1]
        return np.hstack([np.roll(x, k, axis=0) for k in range(3)])

    acc_frame = lsq_onehot_readout(train, test, lambda d: d.inputs)
    acc_window = lsq_onehot_readout(train, test, windowed)
    assert acc_window > acc_frame + 0.03
    assert acc_window > 0.95


def test_synthetic_labels_chance_level_on_shuffled():
    rng = np.random.default_rng(4)
    ds = gen_synthetic_labels(6000, 4, 2, rng)
    true = np.argmax(ds.targets[ds.cost_mask], axis=1)
    shuffled = true.copy()
    rng.shuffle(shuffled)
    fer = frame_error_rate(shuffled, true)
    assert fer == pytest.approx(1.0 - 1.0 / 4.0, abs=0.03)


def test_synthetic_labels_classes_equiprobable():
    rng = np.random.default_rng(5)
    ds = gen_synthetic_labels(40_000, 4, 1, rng, window=3)
    counts = ds.targets[ds.cost_mask].sum(axis=0)
    np.testing.assert_allclose(counts / counts.sum(), 0.25, atol=0.02)


def test_synthetic_labels_seed_reproducible():
    a = gen_synthetic_labels(100, 3, 2, np.random.default_rng(6))
    b = gen_synthetic_labels(100, 3, 2, np.random.default_rng(6))
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)


@pytest.mark.parametrize("window", range(1, 41))
def test_synthetic_labels_match_the_loop_form_bit_for_bit(window):
    # n_classes spreads over 2..64 across the windows, input_dim over 1..3
    n_classes, input_dim = 2 + (window * 13) % 63, 1 + window % 3
    ds = gen_synthetic_labels(150, n_classes, input_dim, np.random.default_rng(window),
                              window=window)
    u, targets, mask = synthetic_labels_loop(150, n_classes, input_dim,
                                             np.random.default_rng(window), window)
    assert ds.inputs.tobytes() == u.tobytes()
    np.testing.assert_array_equal(ds.targets, targets)
    np.testing.assert_array_equal(ds.cost_mask, mask)


def test_synthetic_label_quantiles_are_scipy_stats_norm_ppf():
    # gen_synthetic_labels takes its thresholds from the standard library's
    # NormalDist, which keeps scipy out of the run; inv_cdf and norm.ppf differ
    # in the last bits, by at most 2**-50 (8.9e-16) over these quantiles, and
    # the labels still equal the scipy-based loop form's (the test above)
    from scipy.stats import norm

    for n_classes in range(2, 65):
        got = [NormalDist().inv_cdf(k / n_classes) for k in range(1, n_classes)]
        want = norm.ppf(np.arange(1, n_classes) / n_classes)
        np.testing.assert_allclose(got, want, rtol=0, atol=2.0**-50,
                                   err_msg=f"{n_classes} classes")


def test_nrmse_examples():
    rng = np.random.default_rng(7)
    t = rng.standard_normal(50)
    assert nrmse(t, t) == 0.0
    assert nrmse(np.full(50, t.mean()), t) == pytest.approx(1.0, rel=1e-12)
    c = 0.7
    assert nrmse(t + c, t) == pytest.approx(abs(c) / np.std(t), rel=1e-12)


def test_nrmse_undefined_cases():
    with pytest.raises(UndefinedMetricError):
        nrmse([1.0, 2.0], [3.0, 3.0])  # zero target variance
    with pytest.raises(UndefinedMetricError):
        nrmse([1.0, 2.0], [1.0, 2.0], mask=[True, False])


def test_frame_error_rate_examples():
    a = np.array([0, 1, 2, 1])
    assert frame_error_rate(a, a) == 0.0
    assert frame_error_rate(a, (a + 1) % 3) == 1.0
    b = a.copy()
    b[:2] = (b[:2] + 1) % 3
    assert frame_error_rate(b, a) == 0.5
    with pytest.raises(UndefinedMetricError):
        frame_error_rate(a, a, mask=np.zeros(4, dtype=bool))


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(8)
    pred = rng.standard_normal(30)
    targ = rng.standard_normal(30)
    mask = rng.random(30) > 0.3
    perm = rng.permutation(30)
    assert nrmse(pred, targ, mask) == pytest.approx(
        nrmse(pred[perm], targ[perm], mask[perm]), rel=1e-12)
    lp = (pred > 0).astype(int)
    lt = (targ > 0).astype(int)
    assert frame_error_rate(lp, lt, mask) == frame_error_rate(lp[perm], lt[perm], mask[perm])
