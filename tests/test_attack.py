"""Logistic regression: numerics, training behaviour, dataset attacks."""

import numpy as np
import pytest

from puflab.attack import (DEFAULT_EPOCHS, DEFAULT_LR, DEFAULT_TOL,
                           AttackReport, _descend, attack_dataset,
                           attack_grid, cross_entropy, gradient, sigmoid)
from puflab.core import all_challenges, derive_seed, sample_chain
from puflab.crp import CrpSet, generate_crps, split_crps
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
        cross_entropy(np.zeros(3), X, np.zeros((2, 1, 1)))  # labels not 1-D/2-D
    with pytest.raises(ValueError, match="0 or 1"):    # labels enter via CrpSet
        CrpSet([[0, 1], [1, 0]], [[0.0], [0.5]])


@pytest.mark.parametrize("l2", [np.nan, np.inf, -5.0])
@pytest.mark.parametrize("numeric", [cross_entropy, gradient])
def test_loss_and_gradient_reject_bad_l2(numeric, l2):
    # l2=nan once gave a nan loss and l2=-5 a loss below the unpenalised one
    rng = np.random.default_rng(6)
    X = feature_matrix(rng.integers(0, 2, size=(30, 5)))
    y = rng.integers(0, 2, size=30).astype(float)
    with pytest.raises(ValueError, match="finite l2 >= 0"):
        numeric(rng.normal(size=6), X, y, l2=l2)


@pytest.mark.parametrize("bad", [{"lr": 0.0}, {"epochs": 0}, {"lr": np.nan},
                                 {"lr": np.inf}, {"l2": np.nan}, {"l2": -5.0},
                                 {"tol": np.nan}],
                         ids=["lr=0", "epochs=0", "lr=nan", "lr=inf", "l2=nan",
                              "l2=-5", "tol=nan"])
def test_attack_rejects_bad_hyperparameters(bad):
    # all but the first two once ran to NaN losses or a silently wrong fit
    crps = generate_crps(16, 300, width=2, seed=1)
    with pytest.raises(ValueError, match="need finite lr > 0"):
        attack_dataset(crps, **{"epochs": 50, **bad})


# ---------------------------------------------------------------------------
# training


TOY_X = np.array([[-1.0, 1.0], [1.0, 1.0]])
TOY_Y = np.array([[0.0], [1.0]])


def test_toy_problem_separates():
    theta, _, history = _descend(TOY_X, TOY_Y, 0.5, 200, 0.0, DEFAULT_TOL)
    assert (TOY_X @ theta > 0).ravel().tolist() == [False, True]
    assert theta[0, 0] > 0.0
    assert history[-1, 0] < np.log(2.0)


def test_loss_history_starts_at_log_two_and_never_rises():
    _, _, history = _descend(TOY_X, TOY_Y, 0.5, 200, 0.0, DEFAULT_TOL)
    assert history[0, 0] == pytest.approx(np.log(2.0), abs=1e-15)
    assert np.all(np.diff(history[:, 0]) <= 1e-12)

    rng = np.random.default_rng(404)
    for _ in range(10):
        m, n = int(rng.integers(20, 80)), int(rng.integers(3, 12))
        Xr = feature_matrix(rng.integers(0, 2, size=(m, n)))
        Yr = rng.integers(0, 2, size=(m, 3)).astype(float)
        _, _, hist = _descend(Xr, Yr, 0.1, 300, 0.0, DEFAULT_TOL)
        assert np.all(np.diff(hist, axis=0) <= 1e-12)


def test_training_metadata():
    theta, updates, history = _descend(TOY_X, TOY_Y, 0.5, 200, 0.0, DEFAULT_TOL)
    assert theta.shape == (2, 1)
    assert 0 < updates[0] <= 200
    assert history.shape[0] >= updates[0] + 1
    assert history[-1, 0] == pytest.approx(
        cross_entropy(theta, TOY_X, TOY_Y)[0], rel=1e-12)
    # a huge tolerance stops right after the first update
    _, lazy, _ = _descend(TOY_X, TOY_Y, 0.5, 200, 0.0, 10.0)
    assert lazy.tolist() == [1]


def test_model_learns_real_chain():
    chain = sample_chain(6, seed=3)
    chal = all_challenges(6)
    X = feature_matrix(chal)
    y = chain.respond(chal)
    theta, _, _ = _descend(X, y[:, None].astype(float), DEFAULT_LR,
                           DEFAULT_EPOCHS, 0.0, DEFAULT_TOL)
    assert np.array_equal((X @ theta > 0)[:, 0], y == 1)


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
    # every first-step gradient entry is at most 0.5 in size, so a step of the
    # smallest subnormal rounds to zero: the weights stay 0, every linear form
    # is exactly 0 and, like a dead-heat race, every bit is predicted 0
    crps = generate_crps(8, 200, width=3, seed=13)
    report = attack_dataset(crps, test_fraction=0.25, lr=5e-324, seed=2)
    _, test = split_crps(crps, 0.25, seed=2)
    assert report.epochs_run == (1, 1, 1)
    np.testing.assert_allclose(report.final_loss, np.log(2.0), rtol=0, atol=1e-15)
    zeros = np.mean(test.responses == 0, axis=0)
    assert report.per_bit_rate == tuple(float(r) for r in zeros)
    assert report.word_exact_rate == float(np.mean(np.all(test.responses == 0,
                                                          axis=1)))


def test_predict_consistent_with_linear_form():
    """The report scores the sign of the fitted linear form on the test rows."""
    crps = generate_crps(12, 400, width=3, seed=21)
    report = attack_dataset(crps, test_fraction=0.25, epochs=60, seed=4)
    train, test = split_crps(crps, 0.25, seed=4)
    theta, _, _ = _descend(feature_matrix(train.challenges),
                           train.responses.astype(float), DEFAULT_LR, 60, 0.0,
                           DEFAULT_TOL)
    hits = (feature_matrix(test.challenges) @ theta > 0) == test.responses
    assert report.per_bit_rate == tuple(float(r) for r in hits.mean(axis=0))
    assert report.word_exact_rate == float(np.all(hits, axis=1).mean())
    assert 0.5 < report.mean_rate < 1.0


def test_positive_scaling_keeps_predictions():
    """A one-update fit is -lr times the first gradient, so every lr > 0
    gives positively scaled weights and the same predictions."""
    crps = generate_crps(16, 500, width=4, seed=33)
    base = attack_dataset(crps, test_fraction=0.25, tol=10.0, seed=3)
    assert base.epochs_run == (1,) * 4
    for lr in (0.001, 3.7, 1000.0):
        scaled = attack_dataset(crps, test_fraction=0.25, lr=lr, tol=10.0,
                                seed=3)
        assert scaled.epochs_run == base.epochs_run
        assert scaled.per_bit_rate == base.per_bit_rate
        assert scaled.word_exact_rate == base.word_exact_rate


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
    """The batched multi-column fit scores like eight independent fits.

    The split depends only on the row count and the seed, so attacking each
    one-bit dataset with the same seed trains and tests on the same rows.
    """
    crps = generate_crps(32, 2000, width=8, seed=808)
    report = attack_dataset(crps, test_fraction=0.2, seed=11)
    for j in range(8):
        one = attack_dataset(CrpSet(crps.challenges, crps.responses[:, [j]]),
                             test_fraction=0.2, seed=11)
        assert one.per_bit_rate[0] == pytest.approx(report.per_bit_rate[j],
                                                    abs=0.01)
        assert one.final_loss[0] == pytest.approx(report.final_loss[j],
                                                  rel=1e-9)


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


def test_attack_grid_cells_are_prefix_attacks():
    crps = generate_crps(16, 300, width=2, seed=17)
    counts, fractions = (120, 300, 200), (0.2, 0.35)
    grid = attack_grid(crps, counts, fractions, seed=17, feature="raw",
                       epochs=60)
    # rows of counts, fractions across
    assert [[(r.crp_count, r.test_fraction) for r in row] for row in grid] == [
        [(count, fraction) for fraction in fractions] for count in counts]
    for i, count in enumerate(counts):
        for j, fraction in enumerate(fractions):
            assert grid[i][j] == attack_dataset(
                crps.subset(np.arange(count)), fraction, feature="raw",
                epochs=60, seed=derive_seed(17, 3, i, j))
    with pytest.raises(IndexError):
        attack_grid(crps, (300, 301), (0.2,), seed=17)


def test_attack_report_csv():
    report = AttackReport(crp_count=4920, test_fraction=0.15,
                          feature_map="parity", per_bit_rate=(0.9729,),
                          mean_rate=0.9729, word_exact_rate=0.9729)
    assert AttackReport.CSV_HEADER == ("crps,test_fraction,feature_map,"
                                       "mean_rate,word_exact_rate")
    assert report.csv_row() == "4920,0.15,parity,0.9729,0.9729"
