"""Challenge encodings used by the modeling attack.

Two maps from an n-bit challenge to an (n+1)-entry float vector over
{-1, +1}, both with a fixed +1 bias as the last entry:

* ``raw``    -- entry i is 1 - 2*c_i (bit 0 -> +1, bit 1 -> -1).
* ``parity`` -- entry i is the product of (1 - 2*c_j) over j = i..n, the
  cumulative-product transform under which an arbiter chain's response is a
  linear threshold function.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["FeatureKind", "feature_matrix"]


class FeatureKind(str, Enum):
    RAW = "raw"
    PARITY = "parity"

    def __str__(self) -> str:
        return self.value


def feature_matrix(challenges, kind: FeatureKind = FeatureKind.PARITY) -> np.ndarray:
    """Encode a batch of challenges as an (m, n+1) feature matrix."""
    kind = FeatureKind(kind)
    bits = np.atleast_2d(np.asarray(challenges))
    if bits.ndim != 2 or bits.shape[1] < 1:
        raise ValueError("challenges must be an (m, n) bit array with n >= 1")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("challenge bits must be 0 or 1")
    signs = 1.0 - 2.0 * bits.astype(np.float64)
    if kind is FeatureKind.PARITY:
        feats = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    else:
        feats = signs
    bias = np.ones((bits.shape[0], 1))
    return np.hstack([feats, bias])

