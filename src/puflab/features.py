"""Challenge encodings used by the modeling attack.

The two ``FEATURE_MAPS`` from an n-bit challenge to an (n+1)-entry float
vector over {-1, +1}, both with a fixed +1 bias as the last entry:

* ``raw``    -- entry i is 1 - 2*c_i (bit 0 -> +1, bit 1 -> -1).
* ``parity`` -- entry i is the product of (1 - 2*c_j) over j = i..n, the
  transform under which an arbiter chain's response is a linear threshold
  function.  That product is 1 - 2*(c_i xor ... xor c_n), so
  ``feature_matrix`` xor-scans the uint8 bits from the last stage and writes
  exact +-1 entries (never -0.0) and the bias into one C-contiguous array.
"""

from __future__ import annotations

import numpy as np

from .bits import _bit_array

__all__ = ["FEATURE_MAPS", "feature_matrix"]

FEATURE_MAPS = ("raw", "parity")


def _challenge_batch(challenges, n=None) -> np.ndarray:
    """Challenges as an (m, n) uint8 batch, a 1-D challenge as one row."""
    bits = _bit_array(np.atleast_2d(challenges), "challenge bits")
    if bits.ndim != 2 or bits.shape[1] < 1:
        raise ValueError("challenges must be an (m, n) bit array with n >= 1")
    if n is not None and bits.shape[1] != n:
        raise ValueError(f"challenge has {bits.shape[1]} bits, device expects {n}")
    return bits


def feature_matrix(challenges, kind: str = "parity") -> np.ndarray:
    """Encode a batch of challenges as a C-contiguous (m, n+1) float64 matrix."""
    if kind not in FEATURE_MAPS:
        raise ValueError(f"feature map must be 'raw' or 'parity', not {kind!r}")
    bits = _challenge_batch(challenges)
    if kind == "parity":
        # scan the (n, m) transpose: one vector xor per stage across all rows
        bits = np.bitwise_xor.accumulate(bits.T[::-1], axis=0)[::-1].T
    feats = np.empty((bits.shape[0], bits.shape[1] + 1))
    feats[:, :-1] = 1 - 2 * bits.view(np.int8)
    feats[:, -1] = 1.0
    return feats
