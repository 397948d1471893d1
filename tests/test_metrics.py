"""Population quality figures."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puflab.core
import puflab.metrics
from puflab.core import (BLOCK_ROWS, derive_seed, random_challenges,
                         sample_chain, sample_multibit)
from puflab.metrics import (QualityReport, bit_aliasing, evaluate_quality,
                            uniformity, uniqueness)


# ---------------------------------------------------------------------------
# uniformity


def test_uniformity_hand_values():
    assert uniformity(np.zeros(10, dtype=np.uint8)) == 0.0
    assert uniformity(np.ones(10, dtype=np.uint8)) == 1.0
    assert uniformity([1, 0, 1, 0]) == 0.5
    assert uniformity([[1, 1], [0, 0]]) == 0.5


def test_uniformity_validation():
    with pytest.raises(ValueError):
        uniformity([])
    with pytest.raises(ValueError):
        uniformity([0, 1, 2])
    # a fraction or NaN is rejected, not floored to 0
    for bad in ([0.5, 0.5], [np.nan, 1.0], [0, -1]):
        with pytest.raises(ValueError, match="response bits must be 0 or 1"):
            uniformity(bad)
    assert uniformity([1.0, 0.0, 1.0, 1.0]) == 0.75
    assert uniformity([True, False]) == 0.5


# ---------------------------------------------------------------------------
# uniqueness


def test_uniqueness_hand_values():
    assert uniqueness([[0, 0], [1, 1]]) == 1.0
    assert uniqueness([[0, 1], [0, 1]]) == 0.0
    got = uniqueness([[0, 0], [1, 1], [0, 1]])
    assert got == pytest.approx(2.0 / 3.0)


def test_uniqueness_order_invariant_and_word_shaped():
    rng = np.random.default_rng(20)
    stack = rng.integers(0, 2, size=(5, 40))
    perm = stack[rng.permutation(5)]
    assert uniqueness(stack) == pytest.approx(uniqueness(perm))
    words = stack.reshape(5, 10, 4)
    assert uniqueness(words) == pytest.approx(uniqueness(stack))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 12), shape=st.sampled_from([(1,), (7,), (5, 3), (40, 1)]),
       p=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_uniqueness_is_the_mean_over_all_pairs(k, shape, p, seed):
    stack = np.random.default_rng(seed).random((k, *shape)) < p
    pairs = [np.mean(stack[i] != stack[j]) for i in range(k) for j in range(i + 1, k)]
    assert uniqueness(stack) == pytest.approx(np.mean(pairs), rel=1e-12, abs=0)


def test_uniqueness_validation():
    with pytest.raises(ValueError):
        uniqueness([[0, 1]])          # one instance
    with pytest.raises(ValueError):
        uniqueness([0, 1])            # 1-D


def test_empty_populations_raise():
    """A population with no rows or no challenges has no figure, not a nan."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="responses must not be empty"):
            uniformity(np.zeros((0, 4), np.uint8))
        empty = np.zeros((2, 0, 3), np.uint8)
        with pytest.raises(ValueError, match="at least two instances and one challenge"):
            uniqueness(empty)
        with pytest.raises(ValueError, match="stack must not be empty"):
            bit_aliasing(empty)


def test_uniqueness_of_independent_chains():
    chal = random_challenges(500, 64, seed=56)
    stack = np.stack([sample_chain(64, seed=derive_seed(55, k)).respond(chal)
                      for k in range(20)])
    assert 0.45 <= uniqueness(stack) <= 0.55


# ---------------------------------------------------------------------------
# bit aliasing


def test_bit_aliasing_hand_values():
    stack = np.array([[[1, 0], [1, 0]],
                      [[1, 1], [0, 0]]])
    assert bit_aliasing(stack).tolist() == [0.75, 0.25]
    assert bit_aliasing(np.zeros((3, 5, 2), dtype=np.uint8)).tolist() == [0.0, 0.0]


def test_bit_aliasing_single_bit_is_pooled_uniformity():
    rng = np.random.default_rng(21)
    stack = rng.integers(0, 2, size=(6, 30))
    alias = bit_aliasing(stack)
    assert alias.shape == (1,)
    assert np.array_equal(alias, bit_aliasing(stack[:, :, None]))  # its 3-D form, w = 1
    assert alias[0] == pytest.approx(uniformity(stack))


# ---------------------------------------------------------------------------
# whole studies


def test_quality_study_noise_free(monkeypatch):
    # no chain is noisy, so the study draws no disturbances at all
    def no_noise(*args):
        raise AssertionError("a noise-free study drew noise")
    monkeypatch.setattr(puflab.metrics, "_rng", no_noise)
    report = evaluate_quality(8, 2, 20, seed=7)
    assert report.reliability == 1.0
    assert report.seed == 7
    assert report.instances == 2 and report.challenges == 20
    assert 0.0 <= report.uniformity <= 1.0
    assert 0.0 <= report.uniqueness <= 1.0
    assert len(report.bit_aliasing) == 1
    text = report.lines()
    assert "reliability  1.0000" in text
    assert "seed         7" in text


def test_quality_study_is_reproducible():
    a = evaluate_quality(16, 3, 50, width=2, repeats=2, noise_sigma=0.3, seed=5)
    b = evaluate_quality(16, 3, 50, width=2, repeats=2, noise_sigma=0.3, seed=5)
    assert a == b


def test_reliability_decays_with_noise():
    rels = [evaluate_quality(32, 3, 300, repeats=2, noise_sigma=s,
                             seed=77).reliability
            for s in (0.0, 0.01, 0.1, 1.0)]
    assert rels[0] == 1.0
    assert rels[0] >= rels[1] >= rels[2] >= rels[3]
    assert rels[3] < 1.0


def test_reliability_approaches_coin_at_huge_noise():
    # at 1e308 the disturbances overflow to +-inf, which keeps their sign,
    # without a warning (pyproject's filterwarnings fail on any)
    for sigma in (500.0, 1e308):
        report = evaluate_quality(16, 3, 400, repeats=3, noise_sigma=sigma, seed=99)
        assert 0.45 <= report.reliability <= 0.55


def test_population_uniformity_bands():
    chal = random_challenges(800, 64, seed=124)
    unis = [uniformity(sample_chain(64, seed=derive_seed(123, k)).respond(chal))
            for k in range(30)]
    assert 0.45 <= np.mean(unis) <= 0.55     # pooled value is tight
    assert min(unis) >= 0.35                 # single devices wander further
    assert max(unis) <= 0.65


def test_multibit_study_and_aliasing_band():
    report = evaluate_quality(16, 10, 400, width=4, seed=31)
    assert len(report.bit_aliasing) == 4
    assert all(0.40 <= a <= 0.60 for a in report.bit_aliasing)
    assert 0.45 <= report.uniqueness <= 0.55
    assert "min" in report.lines()[-1]       # multi-bit aliasing shows a range


def _reference_quality(n, instances, challenges, width=1, repeats=5,
                       noise_sigma=0.0, seed=None):
    """The study written as one ``respond`` per instance plus one per repeat."""
    chal = random_challenges(challenges, n, seed=derive_seed(seed, 1))
    stack, noisy = [], []
    for i in range(instances):
        puf = sample_multibit(n, width, seed=derive_seed(seed, 0, i),
                              noise_sigma=noise_sigma)
        stack.append(puf.respond(chal))
        noisy.append([puf.respond(chal, noise_seed=derive_seed(seed, 2, i, t))
                      for t in range(repeats)])
    stack = np.stack(stack)
    noisy = np.stack(noisy, axis=1)
    return QualityReport(
        n_stages=n, width=width, instances=instances, challenges=challenges,
        repeats=repeats, noise_sigma=noise_sigma, seed=seed,
        uniformity=uniformity(stack.reshape(instances, -1)),
        uniqueness=uniqueness(stack),
        reliability=float(1.0 - np.count_nonzero(noisy != stack) / noisy.size),
        bit_aliasing=tuple(float(v) for v in bit_aliasing(stack)))


STUDIES = [  # n, instances, challenges, width, repeats, sigma, master seed
    (32, 3, 300, 1, 2, 0.1, 61),
    (32, 3, 300, 1, 2, 1.0, 61),
    (64, 4, 777, 4, 3, 0.2, 61),
    (16, 5, 513, 1, 4, 0.5, 61),
    (24, 3, 256, 6, 2, 0.0, 61),
    (64, 20, 1000, 4, 5, 0.05, 61),          # the population workload's size
    (16, 4, 300, 3, 3, 0.3, 2 ** 64 + 61),   # a master wider than 64 bits
]


# a study at the usual master seed 61 is named by its sizes alone
@pytest.mark.seeded
@pytest.mark.parametrize(
    "n, instances, challenges, width, repeats, sigma, seed", STUDIES,
    ids=["-".join(map(str, s[:6] if s[6] == 61 else s)) for s in STUDIES])
def test_quality_study_matches_per_repeat_reference(n, instances, challenges,
                                                    width, repeats, sigma, seed):
    args = dict(n=n, instances=instances, challenges=challenges, width=width,
                repeats=repeats, noise_sigma=sigma, seed=seed)
    assert evaluate_quality(**args) == _reference_quality(**args)


@pytest.mark.seeded
def test_chain_bank_and_study_disturb_through_one_helper(monkeypatch):
    """A chain's, a bank's and a study's noisy read-outs all add their noise
    through ``core._disturb``: shifting its result moves all three."""
    puf = sample_multibit(16, 3, seed=4, noise_sigma=0.5)
    chal = random_challenges(2 * BLOCK_ROWS + 1, 16, seed=5)
    study = dict(n=16, instances=3, challenges=100, width=2, repeats=2,
                 noise_sigma=0.5, seed=8)

    def read_outs():
        return (puf.chains[0].respond(chal, noise_seed=6).tolist(),
                puf.respond(chal, noise_seed=6).tolist(), evaluate_quality(**study))
    before = read_outs()
    disturb = puflab.core._disturb
    assert puflab.metrics._disturb is disturb

    def shifted(*args):
        return disturb(*args) + 1e9
    monkeypatch.setattr(puflab.core, "_disturb", shifted)
    monkeypatch.setattr(puflab.metrics, "_disturb", shifted)
    after = read_outs()
    assert all(a != b for a, b in zip(before, after))
    assert after[1] == [[1, 1, 1]] * len(chal)


def test_quality_study_memory_does_not_grow_with_repeats():
    def peak(repeats):
        tracemalloc.start()
        try:
            evaluate_quality(32, instances=6, challenges=2000, width=8,
                             repeats=repeats, noise_sigma=0.5, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the first study in a process also pays numpy's one-off allocations
    evaluate_quality(8, 2, 20, repeats=2, noise_sigma=0.5, seed=0)
    assert peak(20) <= 1.25 * peak(2)


def test_quality_study_validation():
    with pytest.raises(ValueError):
        evaluate_quality(8, 1, 20, seed=1)
    with pytest.raises(ValueError):
        evaluate_quality(8, 2, 0, seed=1)
    with pytest.raises(ValueError):
        evaluate_quality(8, 2, 20, repeats=0, seed=1)
    with pytest.raises(ValueError, match="two repeats"):
        evaluate_quality(8, 2, 20, repeats=1, noise_sigma=0.5, seed=1)
    for sigma, width in itertools.product((0.0, 0.5), (0, 2 ** 63, 2 ** 64)):
        with pytest.raises(ValueError, match=f"width must be >= 1 and <= {2 ** 63 - 1}"):
            evaluate_quality(8, 2, 10, width=width, noise_sigma=sigma, seed=1)
    for sigma in (np.nan, np.inf, -0.5):
        with pytest.raises(ValueError, match="noise_sigma must be finite and non-neg"):
            evaluate_quality(8, 2, 20, noise_sigma=sigma, seed=1)


def test_seeded_noisy_read_outs_read_no_os_entropy(monkeypatch):
    """A seeded noisy read-out or study builds every generator from its seed,
    none as a seedless default_rng() whose state is then overwritten."""
    seeded = np.random.default_rng

    def seeded_only(seed=None):
        if seed is None:
            raise AssertionError("default_rng() called without a seed")
        return seeded(seed)
    monkeypatch.setattr(np.random, "default_rng", seeded_only)
    puf = sample_multibit(16, 3, seed=4, noise_sigma=0.5)
    chal = random_challenges(2 * BLOCK_ROWS + 1, 16, seed=5)
    assert np.any(puf.respond(chal, noise_seed=6) != puf.respond(chal))
    report = evaluate_quality(16, 3, 100, width=2, repeats=2, noise_sigma=0.5,
                              seed=8)
    assert report.reliability < 1.0


def test_seedless_study_reports_its_master_seed():
    args = dict(n=16, instances=3, challenges=50, width=2, repeats=2,
                noise_sigma=0.3)
    report = evaluate_quality(**args)
    assert isinstance(report.seed, int)
    assert evaluate_quality(**args, seed=report.seed) == report


def test_report_seed_none_renders_dash():
    report = QualityReport(n_stages=4, width=1, instances=2, challenges=5,
                           repeats=1, noise_sigma=0.0, seed=None,
                           uniformity=0.5, uniqueness=0.5, reliability=1.0,
                           bit_aliasing=(0.5,))
    assert "seed         -" in report.lines()
