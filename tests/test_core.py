"""Race simulation, linear reduction, seeding and challenge enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puflab.core
from puflab.core import (BLOCK_ROWS, ArbiterChain, DelayParams, LinearModel,
                         MultiBitPuf, _chain_streams, _derive_seeds,
                         _StreamWords, all_challenges, derive_seed,
                         linear_disagreements, random_challenges, sample_chain,
                         sample_multibit, to_linear)
from puflab.features import feature_matrix


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


MASTERS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 128 + 3,
           np.random.SeedSequence().entropy)
KEY_ROWS = st.integers(1, 3).flatmap(lambda depth: st.lists(
    st.lists(st.integers(0, 2 ** 32 - 1), min_size=depth, max_size=depth),
    min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(master=st.sampled_from(MASTERS), keys=KEY_ROWS)
def test_batched_stream_seeds_equal_seed_sequence(master, keys):
    """One hashing pass over many keys gives every derived seed, and one over
    their chains the words from which numpy's PCG64 builds every default_rng
    state and every normal of one SeedSequence per chain stream."""
    seeds = _derive_seeds(master, keys)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(master, *key) for key in keys]
    width = len(keys[0])
    streams = _chain_streams(seeds, width)
    assert streams.shape == (len(keys), width, 4)
    for seed, row in zip(seeds.tolist(), streams):
        for k, words in enumerate(row):
            want = np.random.default_rng(derive_seed(seed, k))
            got = np.random.Generator(np.random.PCG64(_StreamWords(words)))
            assert got.bit_generator.state == want.bit_generator.state
            assert np.array_equal(got.standard_normal(1000),
                                  want.standard_normal(1000))


def test_stream_words_seed_only_pcg64():
    words = _chain_streams([7], 2)[0, 1]
    wrapped = _StreamWords(np.repeat(words, 2)[::2])   # a strided view
    assert wrapped.generate_state(4, "uint64").tolist() == words.tolist()
    assert (np.random.PCG64(wrapped).state
            == np.random.default_rng(derive_seed(7, 1)).bit_generator.state)
    for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64),
                           (5, np.uint64)):
        with pytest.raises(ValueError, match="4 uint64 words"):
            wrapped.generate_state(n_words, dtype)


def test_batched_seeds_take_any_master_and_key():
    for master, keys in (([3, 4], [[0], [5]]), (7, [[2 ** 32, 1], [0, 2 ** 40]]),
                         (np.uint64(9), [[1]])):
        assert _derive_seeds(master, keys).tolist() == [derive_seed(master, *k)
                                                        for k in keys]
    with pytest.raises(ValueError):
        _derive_seeds(-1, [[0]])
    assert _derive_seeds(5, np.empty((0, 3))).shape == (0,)


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


def test_respond_shapes():
    chain = sample_chain(6, seed=9)
    single = chain.respond([0, 1, 0, 1, 1, 0])
    assert isinstance(single, int)
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

    def corrupt_fold(corrupt):   # the bank folds each chain through to_linear
        monkeypatch.setattr(puflab.core, "to_linear",
                            lambda c: LinearModel(corrupt(to_linear(c).weights)))

    corrupt_fold(np.negative)
    assert np.array_equal(linear_disagreements(chain, chal), np.arange(64))
    # raising the bias weight by 1 flips exactly the races ending in (-1, 0]
    delta = chain.delta(chal)
    expected = np.flatnonzero((delta > -1.0) & (delta <= 0.0))
    assert 0 < expected.size < 64
    corrupt_fold(lambda v: v + np.eye(7)[6])
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


def test_multibit_width_and_chain_reconstruction():
    puf = sample_multibit(16, 16, seed=500)
    assert puf.width == 16 and puf.n_stages == 16
    narrow = sample_multibit(16, width=4, seed=500)
    assert narrow.width == 4
    for k in range(4):
        rebuilt = sample_chain(16, seed=derive_seed(500, k))
        assert np.array_equal(narrow.chains[k].delays, rebuilt.delays)


def _assert_chain_read_outs(puf, chal, noise_seed):
    """Column k of the bank's read-out is chain k's race under its own seed."""
    words = puf.respond(chal, noise_seed=noise_seed)
    assert words.shape == (len(chal), puf.width)
    for k, chain in enumerate(puf.chains):
        child = None if noise_seed is None else derive_seed(noise_seed, k)
        assert np.array_equal(words[:, k], chain.respond(chal, noise_seed=child))
    return words


def test_multibit_word_is_per_chain_bits():
    """The bank's folded weights answer like each chain's race, bit for bit,
    over several evaluation blocks and with per-chain noise streams."""
    puf = sample_multibit(8, width=5, seed=31, noise_sigma=0.4)
    chal = random_challenges(2 * BLOCK_ROWS + 37, 8, seed=32)
    _assert_chain_read_outs(puf, chal, None)
    words = _assert_chain_read_outs(puf, chal, 99)
    assert np.any(words != puf.respond(chal))
    single = puf.respond(chal[0])
    assert single.shape == (5,)
    assert np.array_equal(single, puf.respond(chal)[0])


def _mixed_bank():
    """Five 8-stage chains, two of them quiet."""
    return MultiBitPuf(sample_chain(8, seed=derive_seed(41, k), noise_sigma=s)
                       for k, s in enumerate((0.4, 0.0, 1.5, 0.0, 0.2)))


def test_mixed_bank_columns_are_chain_read_outs():
    """Quiet chains beside noisy ones, over three blocks."""
    puf = _mixed_bank()
    chal = random_challenges(2 * BLOCK_ROWS + 37, 8, seed=42)
    for noise_seed in (None, 7, 123456789):
        _assert_chain_read_outs(puf, chal, noise_seed)
    diff = puf.delta_of_features(feature_matrix(chal))
    assert np.array_equal(diff > 0, puf.respond(chal))


def test_multibit_noise_seed_range():
    """A bank's noise seed is an int in [0, 2**64): anything else would be
    cast to some other uint64 seed, so it is refused."""
    puf = _mixed_bank()
    chal = random_challenges(40, 8, seed=46)
    for bad in (1.5, -1, 2 ** 64, [1, 2]):
        with pytest.raises(ValueError, match=r"noise_seed must be None or an int"):
            puf.respond(chal, noise_seed=bad)
    for noise_seed in (0, 2 ** 32, 2 ** 63, 2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
        _assert_chain_read_outs(puf, chal, noise_seed)


def test_multibit_delta_of_features_is_delta_bit_for_bit():
    """Features encoded once give the same products as per-block encoding."""
    m = 2 * BLOCK_ROWS + 37
    puf = _mixed_bank()
    chal = random_challenges(m, 8, seed=45)
    got = puf.delta_of_features(feature_matrix(chal, "parity"))
    assert got.shape == (m, 5)
    weights = np.column_stack([to_linear(c).weights for c in puf.chains])
    per_block = np.vstack([feature_matrix(chal[s:s + BLOCK_ROWS]) @ weights
                           for s in range(0, m, BLOCK_ROWS)])
    assert np.array_equal(got, per_block)
    assert np.array_equal(got > 0, puf.respond(chal))
    for bad in (np.ones((3, 8)), np.ones(9), np.ones((3, 10))):
        with pytest.raises(ValueError, match="features must have shape"):
            puf.delta_of_features(bad)


def test_multibit_delta_matches_chain_races():
    puf = sample_multibit(24, width=6, seed=43)
    chal = random_challenges(2 * BLOCK_ROWS + 37, 24, seed=44)
    race = np.column_stack([c.delta(chal) for c in puf.chains])
    assert np.allclose(puf.delta_of_features(feature_matrix(chal)), race,
                       rtol=0.0, atol=1e-9)


def test_multibit_hand_built_word():
    up = ArbiterChain([[1.0, 2.0, 0.0, 0.0]])     # challenge 0 -> 1
    down = ArbiterChain([[5.0, 1.0, 0.0, 0.0]])   # challenge 0 -> 0
    puf = MultiBitPuf([up, down, up])
    assert puf.respond([0]).tolist() == [1, 0, 1]


def test_multibit_validation():
    with pytest.raises(ValueError):
        MultiBitPuf([])
    with pytest.raises(ValueError):
        MultiBitPuf([sample_chain(4, seed=1), sample_chain(5, seed=2)])
    with pytest.raises(ValueError):
        sample_multibit(4, width=0, seed=1)


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
