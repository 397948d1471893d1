"""Raw and parity challenge encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puflab.features import FEATURE_MAPS, feature_matrix


def _reference(bits, kind):
    """The float form: signs 1 - 2c, suffix products by a reversed cumprod,
    then the bias column stacked on."""
    signs = 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)
    if kind == "parity":
        signs = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    return np.hstack([signs, np.ones((signs.shape[0], 1))])


def test_kind_accepts_strings():
    from puflab.attack import attack_dataset
    from puflab.crp import generate_crps
    assert FEATURE_MAPS == ("raw", "parity")
    with pytest.raises(ValueError, match="'raw' or 'parity'"):
        feature_matrix([[0, 1]], "bogus")
    with pytest.raises(ValueError, match="'raw' or 'parity'"):
        attack_dataset(generate_crps(4, 20, seed=1), feature="bogus")


def test_phi_hand_values():
    assert feature_matrix([0, 0, 0, 0], "parity")[0].tolist() == [1, 1, 1, 1, 1]
    # signs (-1, 1): suffix products are -1*1 and 1
    assert feature_matrix([1, 0], "parity")[0].tolist() == [-1, 1, 1]
    assert feature_matrix([1, 1], "parity")[0].tolist() == [1, -1, 1]
    assert feature_matrix([0, 1], "parity")[0].tolist() == [-1, -1, 1]


def test_raw_hand_values():
    assert feature_matrix([1, 1, 1, 1], "raw")[0].tolist() == [-1, -1, -1, -1, 1]
    assert feature_matrix([1, 0], "raw")[0].tolist() == [-1, 1, 1]
    assert feature_matrix([0], "raw")[0].tolist() == [1, 1]


def test_shapes_and_dtype():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=(7, 12))
    for kind in FEATURE_MAPS:
        feats = feature_matrix(bits, kind)
        assert feats.shape == (7, 13)
        assert feats.dtype == np.float64
        assert np.all(np.isin(feats, (-1.0, 1.0)))
        assert np.all(feats[:, -1] == 1.0)


def test_batch_matches_single_rows():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=(20, 9))
    par = feature_matrix(bits, "parity")
    rw = feature_matrix(bits, "raw")
    for i in range(20):
        assert np.array_equal(par[i], feature_matrix(bits[i], "parity")[0])
        assert np.array_equal(rw[i], feature_matrix(bits[i], "raw")[0])


def test_flipping_one_bit():
    """Bit j touches raw entry j only, but parity entries 0..j."""
    rng = np.random.default_rng(7)
    c = rng.integers(0, 2, size=10)
    for j in range(10):
        flipped = c.copy()
        flipped[j] ^= 1
        dr = feature_matrix(flipped, "raw")[0] / feature_matrix(c, "raw")[0]
        dp = feature_matrix(flipped, "parity")[0] / feature_matrix(c, "parity")[0]
        assert dr[j] == -1 and np.sum(dr == -1) == 1
        assert np.all(dp[:j + 1] == -1) and np.all(dp[j + 1:] == 1)


def test_parity_is_injective():
    from puflab.core import all_challenges
    feats = feature_matrix(all_challenges(6), "parity")
    assert len({tuple(row) for row in feats}) == 64


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 130),
       m=st.one_of(st.sampled_from([0, 1, 255, 256, 257]),
                   st.integers(0, 600)),
       seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["parity", "raw"]),
       dtype=st.sampled_from([np.uint8, np.bool_, np.float64, np.float32,
                              np.int64]))
def test_matches_cumprod_reference(n, m, seed, kind, dtype):
    bits = np.random.default_rng(seed).integers(0, 2, size=(m, n), dtype=np.uint8)
    given_bits = bits.astype(dtype)
    feats = feature_matrix(given_bits, kind)
    assert feats.dtype == np.float64 and feats.flags.c_contiguous
    assert feats.shape == (m, n + 1)
    assert np.array_equal(feats, _reference(bits, kind))
    assert np.all(np.abs(feats) == 1.0)       # so no -0.0 either
    assert np.array_equal(given_bits, bits)   # the input is left as it was


def test_input_validation():
    with pytest.raises(ValueError):
        feature_matrix([[0, 1], [1, 2]])
    # a fraction or NaN is rejected, not floored to 0 (which gave a -0.0 entry)
    for bad in ([[0.5, 1]], [[np.nan, 1]], [[1.0, 0.0], [0.0, 0.25]]):
        for kind in FEATURE_MAPS:
            with pytest.raises(ValueError, match="challenge bits must be 0 or 1"):
                feature_matrix(bad, kind)
    with pytest.raises(ValueError):
        feature_matrix([["0", "1"]])
    with pytest.raises(ValueError):
        feature_matrix([[0, -1]])
    with pytest.raises(ValueError):
        feature_matrix(np.zeros((2, 0), dtype=np.uint8))
    with pytest.raises(ValueError):
        feature_matrix(np.zeros((2, 2, 2), dtype=np.uint8))
