"""Logistic-regression modeling attacks on collected CRP data.

``attack_dataset`` scores a dataset into an ``AttackReport`` by plain
full-batch gradient descent on the cross-entropy loss, written directly
against numpy.  A response word with w bits is attacked as w independent
binary problems; they are trained side by side as the columns of one weight
matrix so every epoch costs two matrix products, and a column freezes on its
own as soon as an epoch stops improving its loss.  ``attack_grid`` attacks
every prefix size at every held-out fraction, the grid of ``puflab sweep``.

``sigmoid``, ``cross_entropy`` and ``gradient`` are the public numerics.  The
sigmoid and the loss are evaluated in overflow-safe forms built on one shared
``e = exp(-|z|)``, so an epoch takes a single ``exp`` and uses it for both the
loss and the gradient.  The descent computes its loss and gradient with the
same private helpers as ``cross_entropy`` and ``gradient``, so checking the
analytic gradient against finite differences checks the arithmetic the attack
runs; every fit records its loss trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import derive_seed
from .crp import CrpSet, split_crps
from .features import feature_matrix

__all__ = [
    "sigmoid",
    "cross_entropy",
    "gradient",
    "attack_dataset",
    "attack_grid",
    "AttackReport",
]

DEFAULT_LR = 0.05
DEFAULT_EPOCHS = 500
DEFAULT_TOL = 1e-7


def _sigmoid(z, e, out=None, tmp=None):
    """Logistic function of z given e = exp(-|z|): 1/(1+e) where z >= 0, else e/(1+e)."""
    # e <= 1, so the numerator max(e, z >= 0) is 1 exactly where z >= 0
    return np.divide(np.maximum(e, z >= 0, out=out), np.add(1.0, e, out=tmp), out=out)


def _softplus(z, e, out=None, tmp=None):
    """log(1 + exp(z)) given e = exp(-|z|), in the form that never overflows."""
    return np.add(np.maximum(z, 0.0, out=out), np.log1p(e, out=tmp), out=out)


def sigmoid(z):
    """Numerically stable logistic function, exact at 0 and safe at |z| ~ 1000."""
    z = np.asarray(z, dtype=np.float64)
    return _sigmoid(z, np.exp(-np.abs(z)))[()]


def _check_xy(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty (m, d) matrix")
    if y.shape[:1] != X.shape[:1]:
        raise ValueError("X and y must agree on the number of rows")
    if y.ndim not in (1, 2):
        raise ValueError("y must be (m,) labels or an (m, k) label matrix")
    return X, y


def _check_hyperparameters(lr=DEFAULT_LR, epochs=1, l2=0.0, tol=0.0):
    """Reject what would run to NaN losses or a silently wrong fit."""
    if not (0 < lr < np.inf and epochs >= 1 and tol >= 0 and 0 <= l2 < np.inf):
        raise ValueError("need finite lr > 0, epochs >= 1, tol >= 0, finite l2 >= 0")


def _loss(W, Z, E, Y, l2, out=None, tmp=None):
    """Per-column mean loss and ridge term of logits Z = X @ W given E = exp(-|Z|),
    optionally in scratch ``out`` and ``tmp`` of Z's shape."""
    loss = np.mean(np.subtract(_softplus(Z, E, out, tmp), np.multiply(Y, Z, out=tmp),
                               out=out), axis=0)
    if l2:
        loss = loss + 0.5 * l2 * np.sum(W[:-1] ** 2, axis=0) / len(Z)
    return loss


def _gradient(X, W, R, l2):
    """Gradient of ``_loss`` at W given the residuals R = sigmoid(X @ W) - Y."""
    G = X.T @ R / len(X)
    if l2:
        G[:-1] += l2 * W[:-1] / len(X)
    return G


def cross_entropy(weights, X, y, l2: float = 0.0) -> float:
    """Mean cross-entropy of sigmoid(X @ weights) against 0/1 labels.

    The optional ridge term penalises every weight except the bias (last
    entry) and is scaled by 1 / rows like the data term.  Computed as
    softplus(z) - y * z, which never overflows.
    """
    X, y = _check_xy(X, y)
    _check_hyperparameters(l2=l2)
    weights = np.asarray(weights, dtype=np.float64)
    z = X @ weights
    loss = _loss(weights, z, np.exp(-np.abs(z)), y, l2)
    return float(loss) if np.ndim(loss) == 0 else loss


def gradient(weights, X, y, l2: float = 0.0) -> np.ndarray:
    """Analytic gradient of ``cross_entropy`` with respect to the weights."""
    X, y = _check_xy(X, y)
    _check_hyperparameters(l2=l2)
    weights = np.asarray(weights, dtype=np.float64)
    return _gradient(X, weights, sigmoid(X @ weights) - y, l2)


def _descend(X, Y, lr, epochs, l2, tol):
    """Batched gradient descent; returns (theta, updates per column, loss history).

    ``history[t, j]`` is column j's loss after min(t, updates[j]) steps: row 0
    is the loss of the zero vector and frozen columns carry their last value
    forward, so every column's trace is the full loss trajectory of its own
    descent.  That descent is independent of the other columns only up to
    rounding: BLAS takes another path for a lone column than for a block, so
    a bit fitted inside a word need not be bit-equal to the same bit fitted
    alone (at 563 and 1500 rows, all 64 bits of a word differed in their last
    bits).

    The active columns' weights ``Ta`` and labels ``Ya`` are contiguous blocks,
    compacted only on an epoch where a column stalls.  Every matrix product
    is a fresh one of the active block, since BLAS results can depend on the
    column count and the output buffer.  Elementwise steps reuse per-fit
    scratch, as fresh (m, k) temporaries page-fault when the heap is trimmed.
    """
    _check_hyperparameters(lr, epochs, l2, tol)
    m, d = X.shape
    k = Y.shape[1]
    theta = np.zeros((d, k))
    updates = np.zeros(k, dtype=np.int64)
    prev = np.full(k, np.inf)
    history = []
    cols = np.arange(k)
    Ta, Ya = theta[:, cols], Y[:, cols]
    bufs = np.empty((3, m * k))
    for _ in range(epochs):
        Z = X @ Ta
        E, S, T = bufs[:, :Z.size].reshape(3, *Z.shape)
        np.exp(np.negative(np.abs(Z, out=E), out=E), out=E)
        cur = _loss(Ta, Z, E, Ya, l2, S, T)
        stalled = (prev[cols] - cur) < tol
        prev[cols] = cur
        history.append(prev.copy())
        if stalled.any():
            theta[:, cols[stalled]] = Ta[:, stalled]
            keep = ~stalled
            cols, Ta, Ya = cols[keep], Ta[:, keep], Ya[:, keep]
            Z, E, S, T = Z[:, keep], E[:, keep], None, None  # fresh this epoch
            if cols.size == 0:
                break
        Ta -= lr * _gradient(X, Ta, np.subtract(_sigmoid(Z, E, S, T), Ya, out=S), l2)
        updates[cols] += 1
    theta[:, cols] = Ta
    history.append(cross_entropy(theta, X, Y, l2=l2))
    return theta, updates, np.vstack(history)


def predict_bits(weights, X) -> np.ndarray:
    """1 exactly where a bit's linear form X @ weights is positive, so a dead heat reads 0."""
    return (X @ weights > 0).astype(np.uint8)


@dataclass(frozen=True)
class AttackReport:
    """Outcome of one train/test attack run.

    Per bit, ``epochs_run`` counts its updates (``epochs`` at the cap, fewer
    when it stalled) and ``final_loss`` is its train loss at the end.  The
    split seed is not kept: the caller passed it.
    """

    crp_count: int
    test_fraction: float
    feature_map: str
    per_bit_rate: tuple
    mean_rate: float
    word_exact_rate: float
    epochs_run: tuple = ()
    final_loss: tuple = ()

    CSV_HEADER = "crps,test_fraction,feature_map,mean_rate,word_exact_rate"

    def csv_row(self) -> str:
        return (f"{self.crp_count},{self.test_fraction:g},{self.feature_map},"
                f"{self.mean_rate:.4f},{self.word_exact_rate:.4f}")


def attack_dataset(crps: CrpSet, test_fraction: float = 0.15,
                   feature: str = "parity",
                   lr: float = DEFAULT_LR, epochs: int = DEFAULT_EPOCHS,
                   l2: float = 0.0, tol: float = DEFAULT_TOL,
                   seed=None) -> AttackReport:
    """Split a dataset, fit one model per response bit, score on the held-out part.

    Only the split consumes randomness (via ``seed``); given the dataset and
    hyperparameters the rest is deterministic.  ``mean_rate`` averages the
    per-bit prediction rates; ``word_exact_rate`` is the fraction of test rows
    whose whole response word is reproduced.
    """
    train, test = split_crps(crps, test_fraction, seed=seed)
    X_train = feature_matrix(train.challenges, feature)
    X_test = feature_matrix(test.challenges, feature)
    theta, updates, history = _descend(X_train, train.responses.astype(np.float64),
                                       lr, epochs, l2, tol)
    predicted = predict_bits(theta, X_test)
    actual = test.responses
    per_bit = np.mean(predicted == actual, axis=0)
    word_exact = np.mean(np.all(predicted == actual, axis=1))
    return AttackReport(
        crp_count=len(crps),
        test_fraction=test_fraction,
        feature_map=feature,
        per_bit_rate=tuple(float(r) for r in per_bit),
        mean_rate=float(per_bit.mean()),
        word_exact_rate=float(word_exact),
        epochs_run=tuple(int(u) for u in updates),
        final_loss=tuple(float(v) for v in history[-1]),
    )


def attack_grid(crps: CrpSet, counts, fractions, seed=None, **fit) -> list:
    """``attack_dataset`` of each prefix ``counts[i]`` at each ``fractions[j]``,
    in rows of counts, split by ``derive_seed(seed, 3, i, j)``; keys 0-2 belong
    to ``generate_crps``.  ``fit`` holds the feature map and training options."""
    return [[attack_dataset(subset, fraction, seed=derive_seed(seed, 3, i, j), **fit)
             for j, fraction in enumerate(fractions)]
            for i, subset in enumerate(crps.subset(np.arange(c)) for c in counts)]
