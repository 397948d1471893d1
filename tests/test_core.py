"""Race simulation, linear reduction, seeding and challenge enumeration."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puflab.core
from puflab.core import (BLOCK_ROWS, ArbiterChain, DelayParams, MultiBitPuf,
                         _bank_streams, _delta, _derive_seeds, _draw_delays,
                         _entropy, _sample_population, _seed_entropy,
                         _StreamWords, all_challenges, derive_seed,
                         linear_disagreements, random_challenges, sample_chain,
                         sample_multibit, to_linear)
from puflab.features import feature_matrix
from puflab.metrics import evaluate_quality


# ---------------------------------------------------------------------------
# seeds


def test_derive_seed_is_deterministic_and_keyed():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 0) != derive_seed(1, 1)
    assert derive_seed(1, 0) != derive_seed(2, 0)
    assert derive_seed(1, 0) != derive_seed(1, 0, 0)
    assert derive_seed(7, np.int64(4)) == derive_seed(7, 4)
    assert 0 <= derive_seed(0) < 2 ** 64


MASTERS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 128 + 3, 2 ** 200,
           np.random.SeedSequence().entropy, np.uint64(9), [1, 2], (5,),
           [0, 2 ** 40])
KEY_ROWS = st.integers(1, 3).flatmap(lambda depth: st.lists(
    st.lists(st.integers(0, 2 ** 32 - 1), min_size=depth, max_size=depth),
    min_size=1, max_size=6))


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)
@given(master=st.sampled_from(MASTERS), keys=KEY_ROWS)
def test_batched_stream_seeds_equal_seed_sequence(master, keys):
    """One hashing pass over many keys gives every derived seed, and one over
    their chains the words from which numpy's PCG64 builds every default_rng
    state and every normal of one SeedSequence per chain stream; the master's
    own bank streams come from the same hasher."""
    seeds = _derive_seeds(master, keys)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(master, *key) for key in keys]
    width = len(keys[0])
    streams = _bank_streams(_seed_entropy(seeds), width)
    assert streams.shape == (len(keys), width, 4)
    for seed, row in zip(seeds.tolist(), streams):
        for k, words in enumerate(row):
            want = np.random.default_rng(derive_seed(seed, k))
            got = np.random.Generator(np.random.PCG64(_StreamWords(words)))
            assert got.bit_generator.state == want.bit_generator.state
            assert np.array_equal(got.standard_normal(1000),
                                  want.standard_normal(1000))
    for k, words in enumerate(_bank_streams(_entropy(master), width)[0]):
        assert (np.random.PCG64(_StreamWords(words)).state
                == np.random.default_rng(derive_seed(master, k)).bit_generator.state)


@pytest.mark.seeded
def test_stream_words_seed_only_pcg64():
    words = _bank_streams(_entropy(7), 2)[0, 1]
    wrapped = _StreamWords(np.repeat(words, 2)[::2])   # a strided view
    assert wrapped.generate_state(4, "uint64").tolist() == words.tolist()
    assert (np.random.PCG64(wrapped).state
            == np.random.default_rng(derive_seed(7, 1)).bit_generator.state)
    for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64),
                           (5, np.uint64)):
        with pytest.raises(ValueError, match="4 uint64 words"):
            wrapped.generate_state(n_words, dtype)


def test_batched_seeds_take_any_master_and_key():
    """Any master hashes in the one pass; a key is one 32-bit word, and no
    caller can reach 2**32 without 2**32 rows, so a larger key is refused."""
    for master, keys in (([3, 4], [[0], [5]]), (np.uint64(9), [[1]]),
                         ((), [[0, 2 ** 32 - 1]])):
        assert _derive_seeds(master, keys).tolist() == [derive_seed(master, *k)
                                                        for k in keys]
    for keys in ([[2 ** 32, 1]], [[0, 2 ** 40]]):
        with pytest.raises(ValueError, match="keys must be < 2"):
            _derive_seeds(7, keys)
    with pytest.raises(ValueError):
        _derive_seeds(-1, [[0]])
    with pytest.raises(TypeError):
        _derive_seeds(1.5, [[0]])
    assert _derive_seeds(5, np.empty((0, 3))).shape == (0,)


def test_seeded_streams_never_derive_row_by_row(monkeypatch):
    """A sequence seed is hashed in the batched pass, as an int is: a bank's
    delays, its noisy read-out and a quality study never call ``derive_seed``."""
    want_bank = sample_multibit(8, 4, seed=[1, 2], noise_sigma=0.5)
    chal = random_challenges(50, 8, seed=3)
    want_words = want_bank.respond(chal, noise_seed=[1, 2])
    want_report = evaluate_quality(8, 3, 40, width=2, repeats=2, noise_sigma=0.5,
                                   seed=[1, 2])

    def no_derive(*args):
        raise AssertionError("derived a seed row by row")
    monkeypatch.setattr(puflab.core, "derive_seed", no_derive)
    bank = sample_multibit(8, 4, seed=[1, 2], noise_sigma=0.5)
    assert np.array_equal(bank._weights, want_bank._weights)
    assert np.array_equal(bank.respond(chal, noise_seed=[1, 2]), want_words)
    assert evaluate_quality(8, 3, 40, width=2, repeats=2, noise_sigma=0.5,
                            seed=[1, 2]) == want_report


# ---------------------------------------------------------------------------
# construction


def test_delay_params_validation():
    p = DelayParams()
    assert p.mean == 10.0 and p.sigma == 0.5
    with pytest.raises(ValueError):
        DelayParams(10.0, 0.0)
    with pytest.raises(ValueError):
        DelayParams(10.0, -1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            DelayParams(bad, 0.5)
        with pytest.raises(ValueError):
            DelayParams(10.0, bad)


def test_sample_chain_shape_and_determinism():
    chain = sample_chain(8, seed=42)
    assert chain.n_stages == 8
    assert chain.delays.shape == (8, 4)
    assert np.array_equal(chain.delays, sample_chain(8, seed=42).delays)
    assert not np.array_equal(chain.delays, sample_chain(8, seed=43).delays)
    custom = sample_chain(4, params=DelayParams(3.0, 0.1), seed=1)
    assert 2.0 < custom.delays.mean() < 4.0


def test_sample_chain_validation():
    with pytest.raises(ValueError):
        sample_chain(0, seed=1)
    with pytest.raises(ValueError):
        sample_chain(4, seed=1, noise_sigma=-0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            sample_chain(4, seed=1, noise_sigma=bad)


def test_chain_delay_array_checked_and_frozen():
    with pytest.raises(ValueError):
        ArbiterChain(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ArbiterChain(np.zeros((0, 4)))
    for bad in (np.nan, np.inf):
        delays = np.ones((2, 4))
        delays[1, 2] = bad
        with pytest.raises(ValueError):
            ArbiterChain(delays)
    chain = ArbiterChain(np.ones((2, 4)))
    with pytest.raises(ValueError):
        chain.delays[0, 0] = 5.0


def test_delays_stay_below_the_overflow_bound():
    """Every delay must be below float max / (4n + 4) in magnitude, the bound
    under which neither the race nor the folded read-out can overflow."""
    limit = np.finfo(float).max / (4 * 64 + 4)
    for bad in (1e307, limit, -limit):
        with pytest.raises(ValueError, match=r"\|d\| < float max / \(4n \+ 4\)"):
            ArbiterChain(np.full((64, 4), bad))
    with pytest.raises(ValueError, match="float max"):
        sample_multibit(64, 4, params=DelayParams(10.0, 1e307), seed=1)
    with pytest.raises(ValueError, match="float max"):
        sample_chain(8, params=DelayParams(1e308, 0.5), seed=1)
    # just inside the bound the race and the fold run without overflowing
    signs = np.where(np.random.default_rng(3).random((64, 4)) < 0.5, -1.0, 1.0)
    chain = ArbiterChain(signs * np.nextafter(limit, 0))
    chal = random_challenges(300, 64, seed=4)
    assert np.all(np.isfinite(chain.delta(chal)))
    assert np.all(np.isfinite(_delta(feature_matrix(chal, "parity"),
                                     MultiBitPuf([chain])._weights)))


def test_bank_checks_each_delay_once(monkeypatch):
    """A sampled bank's delays are checked by its chains alone, not again as a
    stack."""
    calls = []
    check = puflab.core._check_delays
    monkeypatch.setattr(puflab.core, "_check_delays",
                        lambda d: calls.append(d.shape) or check(d))
    sample_multibit(8, 4, seed=1)
    assert calls == [(8, 4)] * 4


def test_delay_draw_peaks_near_its_result():
    """Every stream draws straight into the stacked result, so the draw holds
    no second full-size copy of the delays."""
    rngs = [np.random.default_rng(derive_seed(5, k)) for k in range(256)]
    tracemalloc.start()
    try:
        delays = _draw_delays(rngs, 64, DelayParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delays.shape == (256, 64, 4)
    assert np.array_equal(delays[3], _drawn_delays(5, 3, 64, DelayParams()))
    assert peak < 1.1 * delays.nbytes


# ---------------------------------------------------------------------------
# race semantics


def test_single_stage_straight_race():
    # challenge 0 keeps the signals on their own rails
    assert ArbiterChain([[1.0, 2.0, 0.0, 0.0]]).respond([0]) == 1
    assert ArbiterChain([[5.0, 1.0, 0.0, 0.0]]).respond([0]) == 0


def test_single_stage_crossed_race():
    # challenge 1 swaps the rails: top picks up d_bt, bottom picks up d_tb
    assert ArbiterChain([[0.0, 0.0, 2.0, 1.0]]).respond([1]) == 1
    assert ArbiterChain([[0.0, 0.0, 1.0, 2.0]]).respond([1]) == 0


def test_dead_heat_is_zero():
    chain = ArbiterChain([[1.0, 1.0, 1.0, 1.0]])
    assert chain.respond([0]) == 0
    assert chain.respond([1]) == 0
    assert chain.delta([0]) == 0.0


def test_two_stage_race_traced_by_hand():
    chain = ArbiterChain([[1.0, 2.0, 3.0, 4.0],
                          [5.0, 6.0, 7.0, 9.0]])
    got = chain.delta(all_challenges(2))
    assert got.tolist() == [2.0, -3.0, 0.0, -1.0]
    assert chain.respond(all_challenges(2)).tolist() == [1, 0, 0, 0]


def _scalar_race(delays, challenge):
    """The race on two floats, one addition per stage in stage order."""
    top = bottom = 0.0
    for (d_tt, d_bb, d_tb, d_bt), bit in zip(delays.tolist(), challenge.tolist()):
        if bit:
            top, bottom = bottom + d_bt, top + d_tb
        else:
            top, bottom = top + d_tt, bottom + d_bb
    return bottom - top


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 70), m=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_race_rounds_as_the_scalar_loop(n, m, seed):
    """Bit for bit, sign bits included, also on a 0.1 grid, where exact ties
    and the order of rounding decide the result."""
    chal = random_challenges(m, n, seed=seed)
    sampled = sample_chain(n, seed=seed).delays
    for delays in (sampled, np.round(sampled, 1)):
        got = ArbiterChain(delays).delta(chal)
        want = np.array([_scalar_race(delays, c) for c in chal])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_respond_shapes():
    chain = sample_chain(6, seed=9)
    single = chain.respond([0, 1, 0, 1, 1, 0])   # a one-row batch
    assert single.shape == (1,) and single.dtype == np.uint8
    batch = chain.respond(all_challenges(6))
    assert batch.shape == (64,) and batch.dtype == np.uint8
    assert batch[0b010110] == single


def test_challenge_validation():
    chain = sample_chain(4, seed=2)
    with pytest.raises(ValueError):
        chain.respond([0, 1])
    with pytest.raises(ValueError):
        chain.respond([0, 1, 2, 0])
    # a fraction or NaN is rejected, not floored to 0
    for bad in ([0, 0.5, 1, 0], [0, np.nan, 1, 0]):
        with pytest.raises(ValueError, match="challenge bits must be 0 or 1"):
            chain.respond(bad)
        with pytest.raises(ValueError, match="challenge bits must be 0 or 1"):
            sample_multibit(4, width=2, seed=2).respond(bad)
    exact = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    assert np.array_equal(chain.respond(exact),
                          chain.respond(exact.astype(np.uint8)))
    assert np.array_equal(chain.respond(exact.astype(bool)),
                          chain.respond(exact.astype(np.uint8)))


# ---------------------------------------------------------------------------
# linear reduction


def test_one_batch_rule_for_race_bank_and_features():
    """A 1-D challenge is a one-row batch everywhere; deeper arrays are not."""
    chain = sample_chain(4, seed=2)
    bank = sample_multibit(4, width=3, seed=2)
    cube = np.zeros((2, 2, 4), dtype=np.uint8)
    for read_out in (chain.respond, chain.delta, bank.respond, feature_matrix):
        with pytest.raises(ValueError, match=r"challenges must be an \(m, n\) "
                                             r"bit array with n >= 1"):
            read_out(cube)
    one = [1, 0, 0, 1]
    assert chain.delta(one).shape == (1,)
    assert bank.respond(one, noise_seed=4).shape == (1, 3)
    assert feature_matrix(one).shape == (1, 5)
    with pytest.raises(ValueError, match="challenge has 3 bits, device expects 4"):
        bank.respond([1, 0, 0])
    assert linear_disagreements(chain, one).size == 0
    assert np.array_equal(linear_disagreements(chain, one),
                          linear_disagreements(chain, [one]))


def test_to_linear_frozen_single_stage():
    chain = ArbiterChain([[1.0, 2.0, 2.0, 1.0]])
    assert to_linear(chain).weights.tolist() == [0.0, 1.0]
    flat = ArbiterChain(np.zeros((3, 4)))
    assert to_linear(flat).weights.tolist() == [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):   # the folded weights are read-only
        to_linear(chain).weights[0] = 2.0


def test_linear_equivalence_exhaustive_small_n():
    for n in range(1, 9):
        for idx in range(5):
            chain = sample_chain(n, seed=derive_seed(300, n, idx))
            assert linear_disagreements(chain, all_challenges(n)).size == 0


def test_linear_equivalence_random_wide():
    chain = sample_chain(64, seed=64)
    chal = random_challenges(2000, 64, seed=65)
    assert linear_disagreements(chain, chal).size == 0


def test_linear_disagreements_names_the_corrupted_challenges(monkeypatch):
    chain = sample_chain(6, seed=8)
    chal = all_challenges(6)
    w = to_linear(chain).weights

    def corrupt_fold(corrupt):   # the bank folds its stacked chains through _fold
        monkeypatch.setattr(puflab.core, "_fold", lambda d: corrupt(fold(d)))

    fold = puflab.core._fold
    corrupt_fold(np.negative)
    assert np.array_equal(linear_disagreements(chain, chal), np.arange(64))
    # raising the bias weight by 1 flips exactly the races ending in (-1, 0]
    delta = chain.delta(chal)
    expected = np.flatnonzero((delta > -1.0) & (delta <= 0.0))
    assert 0 < expected.size < 64
    corrupt_fold(lambda v: v + np.eye(7)[6][:, None])
    assert np.array_equal(linear_disagreements(chain, chal), expected)
    monkeypatch.undo()
    assert linear_disagreements(chain, chal).size == 0
    assert np.array_equal(to_linear(chain).weights, w)


def test_stage_local_shifts_cancel():
    """Adding one constant to both straight delays and another to both crossed
    delays of a stage changes neither the weights nor any response."""
    chain = sample_chain(12, seed=13)
    chal = random_challenges(400, 12, seed=14)
    shifted = chain.delays.copy()
    shifted[5, 0] += 3.7   # d_tt
    shifted[5, 1] += 3.7   # d_bb
    shifted[5, 2] += -1.2  # d_tb
    shifted[5, 3] += -1.2  # d_bt
    other = ArbiterChain(shifted)
    np.testing.assert_allclose(to_linear(other).weights, to_linear(chain).weights)
    assert np.array_equal(other.respond(chal), chain.respond(chal))


# ---------------------------------------------------------------------------
# multi-bit bank


def _drawn_delays(seed, k, n, params):
    """Chain k's delays as written out here, independent of the library's draw:
    the normals of ``default_rng(derive_seed(seed, k))``."""
    rng = np.random.default_rng(derive_seed(seed, k))
    return rng.normal(params.mean, params.sigma, (n, 4))


@pytest.mark.seeded
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 24), width=st.integers(1, 8), master=st.sampled_from(MASTERS),
       mean=st.floats(-50, 50), sigma=st.floats(0.01, 20))
def test_multibit_width_and_chain_reconstruction(n, width, master, mean, sigma):
    """Chain k of a bank is drawn from ``derive_seed(seed, k)`` alone, at any
    width, master and delay distribution, and the bank folds each chain."""
    puf = sample_multibit(16, 16, seed=500)
    assert puf.width == 16 and puf.n_stages == 16
    narrow = sample_multibit(16, width=4, seed=500)
    assert narrow.width == 4
    for k in range(4):
        rebuilt = sample_chain(16, seed=derive_seed(500, k))
        assert np.array_equal(narrow.chains[k].delays, rebuilt.delays)
    params = DelayParams(mean, sigma)
    bank = sample_multibit(n, width, params=params, seed=master)
    assert bank.width == width and bank.n_stages == n
    for k, chain in enumerate(bank.chains):
        assert np.array_equal(chain.delays, _drawn_delays(master, k, n, params))
        assert np.array_equal(bank._weights[:, k], to_linear(chain).weights)
    # without a seed the bank draws one fresh master, each chain its own stream
    fresh = sample_multibit(n, width, params=params).chains
    assert all(not np.array_equal(a.delays, b.delays)
               for i, a in enumerate(fresh) for b in fresh[i + 1:])


def _assert_chain_read_outs(puf, chal, noise_seed):
    """Column k of the bank's read-out is chain k's race under its own seed."""
    words = puf.respond(chal, noise_seed=noise_seed)
    assert words.shape == (len(chal), puf.width)
    for k, chain in enumerate(puf.chains):
        child = None if noise_seed is None else derive_seed(noise_seed, k)
        assert np.array_equal(words[:, k], chain.respond(chal, noise_seed=child))
    return words


@pytest.mark.seeded
def test_multibit_word_is_per_chain_bits():
    """The bank's folded weights answer like each chain's race, bit for bit,
    over several evaluation blocks and with per-chain noise streams."""
    puf = sample_multibit(8, width=5, seed=31, noise_sigma=0.4)
    chal = random_challenges(2 * BLOCK_ROWS + 37, 8, seed=32)
    _assert_chain_read_outs(puf, chal, None)
    words = _assert_chain_read_outs(puf, chal, 99)
    assert np.any(words != puf.respond(chal))
    single = puf.respond(chal[0])
    assert single.shape == (1, 5)
    assert np.array_equal(single, puf.respond(chal)[:1])


def _mixed_bank():
    """Five 8-stage chains, two of them quiet."""
    return MultiBitPuf(sample_chain(8, seed=derive_seed(41, k), noise_sigma=s)
                       for k, s in enumerate((0.4, 0.0, 1.5, 0.0, 0.2)))


@pytest.mark.seeded
def test_mixed_bank_columns_are_chain_read_outs():
    """Quiet chains beside noisy ones, over three blocks."""
    puf = _mixed_bank()
    chal = random_challenges(2 * BLOCK_ROWS + 37, 8, seed=42)
    for noise_seed in (None, 7, 123456789):
        _assert_chain_read_outs(puf, chal, noise_seed)
    diff = _delta(feature_matrix(chal), puf._weights)
    assert np.array_equal(diff > 0, puf.respond(chal))


def test_multibit_noise_seed_range():
    """A bank takes every noise seed that ``derive_seed`` takes, as a chain
    does, and bit k is chain k's read-out under ``derive_seed(noise_seed, k)``;
    a seed that a chain refuses, the bank refuses with the same error."""
    puf = _mixed_bank()
    chal = random_challenges(40, 8, seed=46)
    for noise_seed in (0, 2 ** 32, 2 ** 63, 2 ** 64 - 1, np.uint64(2 ** 64 - 1),
                       2 ** 64, 2 ** 200, [1, 2]):
        _assert_chain_read_outs(puf, chal, noise_seed)
    for bad, error in ((-1, ValueError), (1.5, TypeError)):
        with pytest.raises(error) as chain_error:
            puf.chains[0].respond(chal, noise_seed=bad)
        with pytest.raises(error, match=re.escape(str(chain_error.value))):
            puf.respond(chal, noise_seed=bad)


def test_whole_matrix_delta_is_block_products_and_bank_read_out():
    """``_delta`` of features encoded once gives the same products as
    per-block encoding, and its signs are the bank's read-out: what makes a
    quality study's bits its banks'."""
    m = 2 * BLOCK_ROWS + 37
    puf = _mixed_bank()
    chal = random_challenges(m, 8, seed=45)
    got = _delta(feature_matrix(chal, "parity"), puf._weights)
    assert got.shape == (m, 5)
    weights = np.column_stack([to_linear(c).weights for c in puf.chains])
    per_block = np.vstack([feature_matrix(chal[s:s + BLOCK_ROWS]) @ weights
                           for s in range(0, m, BLOCK_ROWS)])
    assert np.array_equal(got, per_block)
    assert np.array_equal(got > 0, puf.respond(chal))


def test_multibit_delta_matches_chain_races():
    puf = sample_multibit(24, width=6, seed=43)
    chal = random_challenges(2 * BLOCK_ROWS + 37, 24, seed=44)
    race = np.column_stack([c.delta(chal) for c in puf.chains])
    assert np.allclose(_delta(feature_matrix(chal), puf._weights), race,
                       rtol=0.0, atol=1e-9)


def test_multibit_hand_built_word():
    up = ArbiterChain([[1.0, 2.0, 0.0, 0.0]])     # challenge 0 -> 1
    down = ArbiterChain([[5.0, 1.0, 0.0, 0.0]])   # challenge 0 -> 0
    puf = MultiBitPuf([up, down, up])
    assert puf.respond([0]).tolist() == [[1, 0, 1]]


def test_bank_is_frozen():
    """A bank is a frozen dataclass: its chains are a tuple that cannot be
    rebound, its folded weights are read-only, and it compares by identity."""
    chains = [sample_chain(6, seed=derive_seed(47, k)) for k in range(3)]
    puf = MultiBitPuf(chains)
    with pytest.raises(dataclasses.FrozenInstanceError):
        puf.chains = chains[:1]
    assert isinstance(puf.chains, tuple)
    assert puf.chains == tuple(chains)
    from_generator = MultiBitPuf(c for c in chains)
    assert isinstance(from_generator.chains, tuple)
    assert from_generator.chains == tuple(chains)
    with pytest.raises(ValueError, match="read-only"):
        puf._weights[0, 0] = 1.0
    assert puf != from_generator and puf == puf
    assert len({puf, from_generator, puf}) == 2   # hashable, by identity


def test_quiet_bank_ignores_its_noise_seed(monkeypatch):
    """A bank of quiet chains draws no noise and hashes no noise stream,
    whatever seed it is given."""
    puf = sample_multibit(8, width=4, seed=48)
    chal = random_challenges(2 * BLOCK_ROWS + 37, 8, seed=49)
    clean = puf.respond(chal)

    def no_streams(*args):
        raise AssertionError("a quiet bank hashed its noise streams")
    monkeypatch.setattr(puflab.core, "_bank_streams", no_streams)
    for noise_seed in (0, 7, 2 ** 64 - 1, 2 ** 64, 1.5):
        assert np.array_equal(puf.respond(chal, noise_seed=noise_seed), clean)
    with pytest.raises(AssertionError, match="hashed its noise streams"):
        _mixed_bank().respond(chal, noise_seed=7)   # a noisy bank does hash them


@pytest.mark.seeded
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 24), width=st.integers(1, 8), instances=st.integers(1, 4),
       master=st.sampled_from(MASTERS), mean=st.floats(-50, 50),
       sigma=st.floats(0.01, 20), repeats=st.integers(0, 3))
def test_population_weights_are_sampled_banks(n, width, instances, master, mean,
                                              sigma, repeats):
    """One batched pass gives every bank's folded weights bit for bit, each a
    C-contiguous slice, and every noisy read-out's chain streams beside them."""
    params = DelayParams(mean, sigma)
    weights, streams = _sample_population(n, width, params, master, instances,
                                          repeats)
    assert weights.shape == (instances, n + 1, width)
    for i, w in enumerate(weights):
        seed = derive_seed(master, 0, i)
        want = [to_linear(ArbiterChain(_drawn_delays(seed, k, n, params))).weights
                for k in range(width)]
        assert w.flags.c_contiguous
        assert np.array_equal(w, np.column_stack(want))
    assert streams.shape == (instances, repeats, width, 4)
    for i, t, k in np.ndindex(streams.shape[:3]):
        want = np.random.default_rng(derive_seed(derive_seed(master, 2, i, t), k))
        got = np.random.PCG64(_StreamWords(streams[i, t, k]))
        assert got.state == want.bit_generator.state


def test_multibit_validation():
    with pytest.raises(ValueError):
        MultiBitPuf([])
    with pytest.raises(ValueError):
        MultiBitPuf([sample_chain(4, seed=1), sample_chain(5, seed=2)])
    for width in (0, 2 ** 63, 2 ** 64):   # np.arange(2**63) would be empty
        with pytest.raises(ValueError, match=f"width must be >= 1 and <= {2 ** 63 - 1}"):
            sample_multibit(4, width=width, seed=1)
    with pytest.raises(ValueError):
        sample_multibit(4, 2, seed=-1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_multibit(0, 2, seed=1)


# ---------------------------------------------------------------------------
# noise


def test_noise_only_with_seed_and_level():
    chain = sample_chain(16, seed=5, noise_sigma=5.0)
    chal = random_challenges(200, 16, seed=6)
    clean = ArbiterChain(chain.delays).respond(chal)
    # without a noise seed the noisy instance is its own reference
    assert np.array_equal(chain.respond(chal), clean)
    noisy = chain.respond(chal, noise_seed=77)
    assert np.array_equal(noisy, chain.respond(chal, noise_seed=77))
    assert np.sum(noisy != clean) > 0
    # zero level ignores the seed
    quiet = ArbiterChain(chain.delays, noise_sigma=0.0)
    assert np.array_equal(quiet.respond(chal, noise_seed=77), clean)


def test_noise_flips_grow_with_sigma():
    """With a shared noise seed the flip set of a smaller sigma is contained
    in the flip set of a larger one."""
    base = sample_chain(16, seed=5)
    chal = random_challenges(200, 16, seed=6)
    clean = base.respond(chal)
    flips = []
    for sigma in (0.5, 5.0, 50.0):
        noisy = ArbiterChain(base.delays, noise_sigma=sigma)
        flips.append(noisy.respond(chal, noise_seed=77) != clean)
    assert 0 < np.sum(flips[0]) < np.sum(flips[1]) < np.sum(flips[2])
    assert not np.any(flips[0] & ~flips[1])
    assert not np.any(flips[1] & ~flips[2])


def test_noise_past_float_max_keeps_its_sign():
    """A disturbance that overflows to +-inf still has the noise's sign, so a
    chain's and a bank's seeded read-outs run without an overflow warning;
    beside such chains a quiet one still reads its noise-free bits."""
    puf = sample_multibit(12, width=3, seed=8, noise_sigma=1e308)
    chal = random_challenges(2 * BLOCK_ROWS + 37, 12, seed=9)
    words = _assert_chain_read_outs(puf, chal, noise_seed=123)
    for k in range(puf.width):   # bit k reads the sign of chain k's normals
        z = np.random.default_rng(derive_seed(123, k)).standard_normal(len(chal))
        assert np.array_equal(words[:, k], z > 0)
    mixed = MultiBitPuf(ArbiterChain(c.delays, 1e308 if c.noise_sigma else 0.0)
                        for c in _mixed_bank().chains)
    chal = random_challenges(2 * BLOCK_ROWS + 37, 8, seed=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = _assert_chain_read_outs(mixed, chal, noise_seed=123)
    quiet = [k for k, c in enumerate(mixed.chains) if c.noise_sigma == 0.0]
    assert quiet == [1, 3]
    assert np.array_equal(words[:, quiet], mixed.respond(chal)[:, quiet])


def test_noisy_bank_disturbs_its_whole_word_per_block(monkeypatch):
    """A noisy read-out makes one ``_disturb`` call per block, each with every
    column, quiet chains included."""
    calls = []
    disturb = puflab.core._disturb

    def spy(diff, rngs, sigma, out):
        calls.append((diff.shape, out.shape, np.shape(sigma)))
        return disturb(diff, rngs, sigma, out)
    monkeypatch.setattr(puflab.core, "_disturb", spy)
    m = 2 * BLOCK_ROWS + 37
    _mixed_bank().respond(random_challenges(m, 8, seed=11), noise_seed=7)
    assert calls == [((rows, 5), (5, rows), (5, 1)) for rows in (BLOCK_ROWS, BLOCK_ROWS, 37)]


def test_multibit_noise_reproducible():
    puf = sample_multibit(12, width=3, seed=8, noise_sigma=10.0)
    chal = random_challenges(100, 12, seed=9)
    a = puf.respond(chal, noise_seed=123)
    assert np.array_equal(a, puf.respond(chal, noise_seed=123))
    assert np.sum(a != puf.respond(chal)) > 0


# ---------------------------------------------------------------------------
# challenge enumeration


def test_all_challenges_is_binary_count():
    got = all_challenges(3)
    assert got.shape == (8, 3)
    assert got.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
                            [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
    with pytest.raises(ValueError):
        all_challenges(0)
    with pytest.raises(ValueError):
        all_challenges(25)


def test_random_challenges_shape_and_determinism():
    a = random_challenges(100, 7, seed=1)
    assert a.shape == (100, 7) and a.dtype == np.uint8
    assert set(np.unique(a)) <= {0, 1}
    assert np.array_equal(a, random_challenges(100, 7, seed=1))
    assert not np.array_equal(a, random_challenges(100, 7, seed=2))
    with pytest.raises(ValueError):
        random_challenges(0, 7)
    with pytest.raises(ValueError):
        random_challenges(5, 0)
