"""Statistical quality figures for populations of simulated instances.

All figures live on [0, 1] and compare raw response bits:

* uniformity   -- fraction of 1s an instance produces (ideal 0.5),
* uniqueness   -- average normalised Hamming distance between the responses
                  of distinct instances to the same challenges (ideal 0.5),
* bit_aliasing -- per response-bit-position fraction of 1s across instances
                  and challenges (ideal 0.5 everywhere),
* reliability  -- 1 minus the average flip rate of repeated noisy read-outs
                  against the noise-free reference (ideal 1.0).

``evaluate_quality`` runs the whole study from one master seed.  Noise seeds
do not depend on the noise level, so studies that differ only in it see scaled
copies of the same disturbances and comparable reliabilities.  The population
is sampled and folded in one batched pass (``core._sample_population``), which
holds every chain's delays at once (instances * width * n * 32 bytes, 6.5 MB
at 50 x 64 x 64) and builds no chain or bank object; it draws through the
same ``core._draw_delays`` as ``sample_multibit``, so its weights equal a
sampled bank's bit for bit.  The shared challenges are encoded once
(m * (n+1) * 8 bytes of parity features, 0.5 MB at 1000 x 64) and each
instance's delay differences once, in the same ``BLOCK_ROWS`` products as a
bank's read-out and one instance at a time, since a product stacked across
instances rounds differently.  Each noisy repeat disturbs the differences
through ``core._disturb``, the noise draw of a chain's and a bank's read-out,
into one reused (width, m) buffer and is scored before the next, so memory
does not grow with repeats.  A noise-free study runs no repeats.  The
SeedSequence words of every chain's delay and noise stream, 32 bytes a
stream, are hashed up front in one pass of ``core._bank_streams``, the hasher
of every bank, and numpy's own PCG64 is built from them, exactly equal to
``default_rng(derive_seed(s, k))``.
Without a seed the study draws one fresh master seed, derives everything from
it and reports it as its seed, so the study can be rerun.

The figures take bits by ``bits``' one rule: 1-D or 2-D responses, a 2-D or
3-D stack.  An empty population, with no rows or no challenges, raises
``ValueError``; it has no figure, and its mean would be a nan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import _bit_array
from .core import (DelayParams, _delta, _disturb, _rng, _sample_population,
                   derive_seed, random_challenges)
# perfbench's tracer wraps metrics.sample_multibit until ROADMAP item 1 retargets it
from .core import sample_multibit  # noqa: F401
from .features import feature_matrix

__all__ = [
    "uniformity",
    "uniqueness",
    "bit_aliasing",
    "QualityReport",
    "evaluate_quality",
]


def uniformity(responses) -> float:
    """Fraction of 1s over all response bits of one instance."""
    if not (arr := _bit_array(responses, "response bits", (1, 2))).size:
        raise ValueError("responses must not be empty")
    return float(np.mean(arr))


def uniqueness(stack) -> float:
    """Mean pairwise normalised Hamming distance across instances.

    ``stack`` holds one instance per leading index: (k, m) response bits or
    (k, m, w) response words, all to the same challenges.  A position where
    ``ones`` of the k instances read 1 differs in ones * (k - ones) pairs.
    """
    arr = _bit_array(stack, "stack bits", (2, 3))
    k = arr.shape[0]
    if k < 2 or not arr.size:
        raise ValueError("uniqueness needs at least two instances and one challenge")
    ones = arr.reshape(k, -1).sum(axis=0, dtype=np.int64)
    return float(2 * np.sum(ones * (k - ones)) / (k * (k - 1) * ones.size))


def bit_aliasing(stack) -> np.ndarray:
    """Fraction of 1s per response bit position, pooled over instances/challenges."""
    if not (arr := _bit_array(stack, "stack bits", (2, 3))).size:
        raise ValueError("stack must not be empty")
    return arr.reshape(*arr.shape[:2], -1).mean(axis=(0, 1))


@dataclass(frozen=True)
class QualityReport:
    """Quality study over a population of same-shaped instances."""

    n_stages: int
    width: int
    instances: int
    challenges: int
    repeats: int
    noise_sigma: float
    seed: object
    uniformity: float
    uniqueness: float
    reliability: float
    bit_aliasing: tuple

    def lines(self):
        alias = self.bit_aliasing
        alias_txt = (f"{alias[0]:.4f}" if len(alias) == 1 else
                     f"min {min(alias):.4f} / max {max(alias):.4f}")
        return [
            f"instances    {self.instances}",
            f"stages       {self.n_stages}",
            f"width        {self.width}",
            f"challenges   {self.challenges}",
            f"repeats      {self.repeats}",
            f"noise_sigma  {self.noise_sigma:g}",
            f"seed         {'-' if self.seed is None else self.seed}",
            f"uniformity   {self.uniformity:.4f}",
            f"uniqueness   {self.uniqueness:.4f}",
            f"reliability  {self.reliability:.4f}",
            f"bit_aliasing {alias_txt}",
        ]


def evaluate_quality(n: int, instances: int, challenges: int, width: int = 1,
                     repeats: int = 5, noise_sigma: float = 0.0, seed=None,
                     params: DelayParams = DelayParams()) -> QualityReport:
    """Sample a population and compute all four quality figures.

    Instance i is sampled from ``derive_seed(seed, 0, i)`` and its repeated
    noisy read-outs use ``derive_seed(seed, 2, i, t)``; the challenge set
    comes from ``derive_seed(seed, 1)``.  None of these depend on
    ``noise_sigma``, which is what makes reliabilities comparable across
    noise levels.  ``seed=None`` draws a fresh master seed, the report's ``seed``.
    """
    if instances < 2:
        raise ValueError("need at least two instances")
    if challenges < 1 or repeats < 1:
        raise ValueError("challenges and repeats must be >= 1")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError("noise_sigma must be finite and non-negative")
    if noise_sigma > 0 and repeats < 2:
        raise ValueError("a noisy reliability study needs at least two repeats")
    master = np.random.SeedSequence().entropy if seed is None else seed
    weights, streams = _sample_population(n, width, params, master, instances,
                                          repeats if noise_sigma > 0 else 0)
    chal = random_challenges(challenges, n, seed=derive_seed(master, 1))
    feats = feature_matrix(chal, "parity")
    stack = np.empty((instances, challenges, width), dtype=np.uint8)
    noise = np.empty((width, challenges))
    flips = 0
    for i, repeat_words in enumerate(streams):
        diff = _delta(feats, weights[i])   # per instance: stacked products move bits
        ref = stack[i] = diff > 0
        for words in repeat_words:   # a noisy repeat: chain k's read-out in row k
            noisy = _disturb(diff, map(_rng, words), noise_sigma, noise)
            flips += np.count_nonzero((noisy > 0) != ref.T)
    return QualityReport(
        n_stages=n,
        width=width,
        instances=instances,
        challenges=challenges,
        repeats=repeats,
        noise_sigma=noise_sigma,
        seed=master,
        uniformity=uniformity(stack.reshape(instances, -1)),
        uniqueness=uniqueness(stack),
        reliability=float(1.0 - flips / (repeats * stack.size)),
        bit_aliasing=tuple(float(v) for v in bit_aliasing(stack)),
    )
