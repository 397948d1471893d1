"""Logistic regression: numerics, training behaviour, dataset attacks."""

import numpy as np
import pytest

from puflab.attack import (AttackReport, LrModel, _descend, attack_dataset,
                           cross_entropy, gradient, predict, predict_bits,
                           sigmoid, train_logistic)
from puflab.core import all_challenges, random_challenges, sample_chain, to_linear
from puflab.crp import generate_crps, split_crps
from puflab.features import feature_matrix


# ---------------------------------------------------------------------------
# sigmoid


def test_sigmoid_exact_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(np.log(3.0)) == pytest.approx(0.75, abs=1e-15)
    assert sigmoid(np.log(1.0 / 3.0)) == pytest.approx(0.25, abs=1e-15)


def test_sigmoid_saturates_without_overflow():
    with np.errstate(over="raise", invalid="raise", under="ignore"):
        hi = sigmoid(1000.0)
        lo = sigmoid(-1000.0)
        arr = sigmoid(np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0]))
    assert hi == 1.0 and lo == 0.0
    assert np.all((arr >= 0.0) & (arr <= 1.0))
    assert np.all(np.diff(arr) >= 0)


def _two_branch_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_sigmoid_is_bitwise_the_two_branch_form():
    rng = np.random.default_rng(71)
    edges = [0.0, -0.0, 1000.0, -1000.0, np.inf, -np.inf, np.nan,
             740.0, -740.0, 745.0, -745.0, 708.4, -708.4, 5e-324, -5e-324]
    z = np.concatenate([rng.normal(scale=20.0, size=4000),
                        rng.uniform(-750.0, 750.0, size=4000),
                        np.linspace(-745.5, -735.0, 1001), edges])
    assert np.array_equal(sigmoid(z), _two_branch_sigmoid(z), equal_nan=True)
    ends = sigmoid(np.array([np.inf, -np.inf, np.nan]))
    assert ends[0] == 1.0 and ends[1] == 0.0 and np.isnan(ends[2])
    # exp(-740) is subnormal: the tail is e itself, down to the last bit
    tail = sigmoid(np.array([-740.0, -745.0]))
    assert np.array_equal(tail, np.exp([-740.0, -745.0]))
    assert 0.0 < tail[0] < np.finfo(np.float64).tiny


def test_sigmoid_shapes():
    assert np.isscalar(float(sigmoid(1.2)))
    assert sigmoid(np.zeros((4,))).shape == (4,)
    assert sigmoid(np.zeros((3, 2))).shape == (3, 2)
    assert sigmoid(2.0) + sigmoid(-2.0) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# loss and gradient


def test_loss_at_zero_weights_is_log_two():
    rng = np.random.default_rng(1)
    X = feature_matrix(rng.integers(0, 2, size=(40, 8)))
    y = rng.integers(0, 2, size=40).astype(float)
    assert cross_entropy(np.zeros(9), X, y) == pytest.approx(np.log(2.0), abs=1e-15)


def test_loss_l2_term():
    rng = np.random.default_rng(2)
    X = feature_matrix(rng.integers(0, 2, size=(30, 5)))
    y = rng.integers(0, 2, size=30).astype(float)
    w = rng.normal(size=6)
    plain = cross_entropy(w, X, y)
    ridged = cross_entropy(w, X, y, l2=0.8)
    expected = plain + 0.5 * 0.8 * np.sum(w[:-1] ** 2) / 30
    assert ridged == pytest.approx(expected, rel=1e-12)


def test_loss_multicolumn_matches_percolumn():
    rng = np.random.default_rng(3)
    X = feature_matrix(rng.integers(0, 2, size=(25, 6)))
    Y = rng.integers(0, 2, size=(25, 3)).astype(float)
    W = np.zeros((7, 3))
    losses = cross_entropy(W, X, Y)
    assert losses.shape == (3,)
    for j in range(3):
        assert losses[j] == pytest.approx(cross_entropy(W[:, j], X, Y[:, j]))


def test_loss_matches_logaddexp_form():
    rng = np.random.default_rng(72)
    X = feature_matrix(rng.integers(0, 2, size=(300, 12)))
    Y = rng.integers(0, 2, size=(300, 5)).astype(float)
    for scale in (0.01, 1.0, 30.0, 400.0):
        W = rng.normal(scale=scale, size=(13, 5))
        z = X @ W
        want = np.mean(np.logaddexp(0.0, z) - Y * z, axis=0)
        np.testing.assert_allclose(cross_entropy(W, X, Y), want,
                                   rtol=1e-15, atol=1e-15)


def test_gradient_at_zero_weights():
    rng = np.random.default_rng(4)
    X = feature_matrix(rng.integers(0, 2, size=(30, 7)))
    y = rng.integers(0, 2, size=30).astype(float)
    expected = X.T @ (0.5 - y) / 30
    np.testing.assert_allclose(gradient(np.zeros(8), X, y), expected, atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    X = feature_matrix(rng.integers(0, 2, size=(40, 9)))
    y = rng.integers(0, 2, size=40).astype(float)
    h = 1e-5
    for l2 in (0.0, 0.3):
        for _ in range(5):
            w = rng.normal(scale=1.5, size=10)
            ana = gradient(w, X, y, l2=l2)
            fd = np.empty_like(ana)
            for i in range(w.size):
                e = np.zeros_like(w)
                e[i] = h
                fd[i] = (cross_entropy(w + e, X, y, l2=l2)
                         - cross_entropy(w - e, X, y, l2=l2)) / (2 * h)
            np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-9)


def test_xy_validation():
    X = feature_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        cross_entropy(np.zeros(3), np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        gradient(np.zeros(3), X, np.zeros(3))          # row mismatch
    with pytest.raises(ValueError):
        train_logistic(X, np.array([0.0, 0.5]))        # non-binary label
    with pytest.raises(ValueError):
        train_logistic(X, np.zeros((2, 2)))            # word labels
    with pytest.raises(ValueError):
        train_logistic(X, np.zeros(2), lr=0.0)
    with pytest.raises(ValueError):
        train_logistic(X, np.zeros(2), epochs=0)


# ---------------------------------------------------------------------------
# training


def test_toy_problem_separates():
    X = np.array([[-1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0])
    model = train_logistic(X, y, lr=0.5, epochs=200)
    assert predict_bits(model.theta, X).tolist() == [0, 1]
    assert model.theta[0] > 0.0
    assert model.final_loss < np.log(2.0)


def test_loss_history_starts_at_log_two_and_never_rises():
    X = np.array([[-1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0])
    model = train_logistic(X, y, lr=0.5, epochs=200)
    hist = np.array(model.loss_history)
    assert hist[0] == pytest.approx(np.log(2.0), abs=1e-15)
    assert np.all(np.diff(hist) <= 1e-12)
    assert hist[-1] == model.final_loss

    rng = np.random.default_rng(404)
    for _ in range(10):
        m, n = int(rng.integers(20, 80)), int(rng.integers(3, 12))
        Xr = feature_matrix(rng.integers(0, 2, size=(m, n)))
        yr = rng.integers(0, 2, size=m).astype(float)
        mod = train_logistic(Xr, yr, lr=0.1, epochs=300)
        assert np.all(np.diff(mod.loss_history) <= 1e-12)


def test_training_metadata():
    X = np.array([[-1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0])
    model = train_logistic(X, y, lr=0.5, epochs=200)
    assert model.n_bits == 1
    assert model.feature_map == "parity"
    assert 0 < model.epochs_run <= 200
    assert len(model.loss_history) >= model.epochs_run + 1
    assert model.final_loss == pytest.approx(
        cross_entropy(model.theta, X, y), rel=1e-12)
    # a huge tolerance stops right after the first update
    lazy = train_logistic(X, y, lr=0.5, epochs=200, tol=10.0)
    assert lazy.epochs_run == 1


def test_model_learns_real_chain():
    chain = sample_chain(6, seed=3)
    chal = all_challenges(6)
    X = feature_matrix(chal)
    y = chain.respond(chal).astype(float)
    model = train_logistic(X, y)
    assert np.mean(predict_bits(model.theta, X) == y) == 1.0


def test_lrmodel_validation():
    with pytest.raises(ValueError):
        LrModel(theta=np.zeros(3), feature_map="parity", n_bits=4,
                epochs_run=1, final_loss=0.5, loss_history=(0.7, 0.5))
    model = LrModel(theta=np.zeros(5), feature_map="parity", n_bits=4,
                    epochs_run=0, final_loss=np.log(2.0),
                    loss_history=(np.log(2.0),))
    with pytest.raises(ValueError):
        model.theta[0] = 1.0


def _reference_descend(X, Y, lr, epochs, l2, tol):
    """The batched descent in its plain form: a logaddexp loss, the two-branch
    sigmoid and fresh copies of the active columns on every epoch."""
    m, d = X.shape
    k = Y.shape[1]
    theta = np.zeros((d, k))
    active = np.ones(k, dtype=bool)
    updates = np.zeros(k, dtype=np.int64)
    prev = np.full(k, np.inf)
    history = []
    for _ in range(epochs):
        cols = np.flatnonzero(active)
        if cols.size == 0:
            break
        Ta = theta[:, cols]
        Ya = Y[:, cols]
        Z = X @ Ta
        cur = np.mean(np.logaddexp(0.0, Z) - Ya * Z, axis=0)
        if l2:
            cur = cur + 0.5 * l2 * np.sum(Ta[:-1] ** 2, axis=0) / m
        row = prev.copy()
        row[cols] = cur
        history.append(row)
        stalled = (prev[cols] - cur) < tol
        prev[cols] = cur
        if stalled.any():
            active[cols[stalled]] = False
            keep = ~stalled
            cols, Ta, Ya, Z = cols[keep], Ta[:, keep], Ya[:, keep], Z[:, keep]
            if cols.size == 0:
                break
        G = X.T @ (_two_branch_sigmoid(Z) - Ya) / m
        if l2:
            G[:-1] += l2 * Ta[:-1] / m
        theta[:, cols] = Ta - lr * G
        updates[cols] += 1
    z = X @ theta
    final = np.mean(np.logaddexp(0.0, z) - Y * z, axis=0)
    if l2:
        final = final + 0.5 * l2 * np.sum(theta[:-1] ** 2, axis=0) / m
    history.append(final)
    return theta, updates, np.vstack(history)


@pytest.mark.parametrize("kind,l2,tol,epochs", [
    ("parity", 0.0, 3e-4, 400),
    ("parity", 0.5, 1e-3, 400),
    ("raw", 0.0, 1e-5, 200),
    ("raw", 0.5, 2e-5, 400),
])
def test_descend_matches_reference_bit_for_bit(kind, l2, tol, epochs):
    crps = generate_crps(16, 300, width=6, seed=12)
    X = feature_matrix(crps.challenges, kind)
    Y = crps.responses.astype(float)
    theta, updates, history = _descend(X, Y, 0.1, epochs, l2, tol)
    ref_theta, ref_updates, ref_history = _reference_descend(X, Y, 0.1, epochs,
                                                             l2, tol)
    # columns stall at several different epochs, so compaction is exercised
    assert len(set(updates.tolist())) >= 3
    assert np.array_equal(updates, ref_updates)
    assert np.array_equal(theta, ref_theta)
    assert history.shape == ref_history.shape
    np.testing.assert_allclose(history, ref_history, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# prediction


def test_predict_zero_model_is_coin_at_zero():
    model = LrModel(theta=np.zeros(5), feature_map="parity", n_bits=4,
                    epochs_run=0, final_loss=np.log(2.0),
                    loss_history=(np.log(2.0),))
    bit, prob = predict(model, [1, 0, 1, 1])
    assert bit == 0 and prob == 0.5
    bits, probs = predict(model, all_challenges(4))
    assert bits.shape == (16,) and np.all(bits == 0)
    assert np.all(probs == 0.5)


def test_predict_consistent_with_linear_form():
    chain = sample_chain(8, seed=21)
    w = to_linear(chain).weights
    model = LrModel(theta=w, feature_map="parity", n_bits=8, epochs_run=0,
                    final_loss=0.0, loss_history=(0.0,))
    chal = all_challenges(8)
    bits, probs = predict(model, chal)
    assert np.array_equal(bits, chain.respond(chal))
    z = feature_matrix(chal) @ w
    np.testing.assert_allclose(probs, sigmoid(z))
    assert np.array_equal(bits, predict_bits(w, feature_matrix(chal)))


def test_predict_rejects_wrong_width():
    model = LrModel(theta=np.zeros(5), feature_map="parity", n_bits=4,
                    epochs_run=0, final_loss=0.0, loss_history=(0.0,))
    with pytest.raises(ValueError, match="expects 4"):
        predict(model, [0, 1, 0])


def test_positive_scaling_keeps_predictions():
    chain = sample_chain(10, seed=33)
    w = to_linear(chain).weights
    chal = all_challenges(10)
    X = feature_matrix(chal)
    base = predict_bits(w, X)
    for s in (0.001, 3.7, 1000.0):
        assert np.array_equal(predict_bits(s * w, X), base)
    assert not np.array_equal(predict_bits(-w, X), base)


# ---------------------------------------------------------------------------
# dataset attacks


def test_attack_learns_single_chain():
    crps = generate_crps(64, 3000, seed=4242)
    report = attack_dataset(crps, test_fraction=0.15, seed=7)
    assert report.mean_rate >= 0.95
    assert report.crp_count == 3000
    assert report.feature_map == "parity"
    assert report.per_bit_rate == (report.mean_rate,)
    assert report.word_exact_rate == report.mean_rate
    assert report.seed == 7


def test_attack_is_deterministic():
    crps = generate_crps(32, 400, width=2, seed=6)
    a = attack_dataset(crps, test_fraction=0.25, seed=8)
    b = attack_dataset(crps, test_fraction=0.25, seed=8)
    assert a == b
    c = attack_dataset(crps, test_fraction=0.25, seed=9)
    assert c != a


def test_attack_word_report_invariants():
    crps = generate_crps(32, 2000, width=8, seed=808)
    report = attack_dataset(crps, test_fraction=0.2, seed=11)
    assert len(report.per_bit_rate) == 8
    assert min(report.per_bit_rate) >= 0.9
    assert report.word_exact_rate >= 0.7
    assert report.word_exact_rate <= min(report.per_bit_rate) + 1e-12
    assert report.mean_rate == pytest.approx(np.mean(report.per_bit_rate))


def test_attack_matches_per_bit_training():
    """The batched multi-column fit scores like eight independent fits."""
    crps = generate_crps(32, 2000, width=8, seed=808)
    report = attack_dataset(crps, test_fraction=0.2, seed=11)
    train, test = split_crps(crps, 0.2, seed=11)
    Xtr = feature_matrix(train.challenges)
    Xte = feature_matrix(test.challenges)
    for j in range(8):
        model = train_logistic(Xtr, train.responses[:, j].astype(float))
        rate = np.mean(predict_bits(model.theta, Xte) == test.responses[:, j])
        assert rate == pytest.approx(report.per_bit_rate[j], abs=0.01)


def test_attack_report_says_how_each_bit_ended():
    crps = generate_crps(32, 400, width=3, seed=6)
    lazy = attack_dataset(crps, test_fraction=0.25, tol=10.0, seed=8)
    assert lazy.epochs_run == (1, 1, 1)
    assert len(lazy.final_loss) == 3
    assert all(0.0 < v < np.log(2.0) for v in lazy.final_loss)
    # the attack-word size: every bit of a 64-bit word runs to the epoch cap
    word = generate_crps(64, 750, width=64, seed=501)
    report = attack_dataset(word, test_fraction=0.25, seed=501)
    assert report.epochs_run == (500,) * 64
    assert len(report.final_loss) == 64
    assert max(report.final_loss) < np.log(2.0)


def test_attack_raw_features_on_bank_stay_near_chance():
    crps = generate_crps(16, 600, width=4, seed=21)
    report = attack_dataset(crps, test_fraction=0.25, feature="raw", seed=5)
    assert report.feature_map == "raw"
    assert 0.35 <= report.mean_rate <= 0.70
    assert report.word_exact_rate <= 0.3


def test_attack_report_csv():
    report = AttackReport(crp_count=4920, test_fraction=0.15,
                          feature_map="parity", per_bit_rate=(0.9729,),
                          mean_rate=0.9729, word_exact_rate=0.9729)
    assert AttackReport.CSV_HEADER == ("crps,test_fraction,feature_map,"
                                       "mean_rate,word_exact_rate")
    assert report.csv_row() == "4920,0.15,parity,0.9729,0.9729"
