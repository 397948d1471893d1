"""Delay-race simulation of arbiter chains.

An arbiter chain switches a rising edge through ``n`` two-input stages.  Each
stage holds four path delays (d_tt, d_bb, d_tb, d_bt).  The race follows the
two wires' arrival times (top, bottom).  With challenge bit 0 a stage passes
both signals straight through and adds (d_tt, d_bb); with bit 1 it crosses
them, swapping the two times before it adds (d_bt, d_tb), so the new top is
the old bottom + d_bt and the new bottom the old top + d_tb.  The arbiter at
the end compares arrival times and outputs 1 exactly when the bottom signal
arrives later (bottom - top > 0); a dead heat counts as 0.

The race is equivalent to a linear threshold function over the parity
transform of the challenge: ``to_linear`` folds the 4n stage delays into n+1
weights ``w``, and ``w`` dotted with the parity features of any challenge is
positive exactly where ``chain.respond(c)`` is 1.  Measurement noise is
modelled as a single Gaussian disturbance added to the final delay difference.

A multi-bit instance is a bank of independent chains sharing one challenge,
one response bit per chain.  The bank folds its chains once, when built, and
responds through the folded weights, the only linear evaluator here;
``ArbiterChain.delta`` keeps the race as the reference oracle for the fold,
and ``linear_disagreements`` checks a chain's race against its one-chain
bank.  ``MultiBitPuf.respond(c, s)`` is the read-out;
``MultiBitPuf.delta_of_features`` gives the noise-free differences of parity
features, ``delta_of_features(feature_matrix(c)) > 0`` being ``respond(c)``,
so one challenge set is encoded once for many banks.

Chain k's noise stream under seed s is ``default_rng(derive_seed(s, k))``,
for s in [0, 2**64), the range of ``derive_seed``.  ``_chain_streams`` hashes
many streams' SeedSequence words in one batched pass, and numpy's own PCG64 is
built from them (``_rng``), exactly equal to ``default_rng(derive_seed(s, k))``.
A bank with no noisy chain hashes no stream.

Every delay is drawn on one path, ``_draw_delays``: each stream's
``normal(mean, sigma, (n, 4))``, stacked and checked against the overflow
bound of ``_check_delays``.  ``sample_chain`` draws from ``default_rng(seed)``;
``sample_multibit`` draws chain k from ``default_rng(derive_seed(seed, k))``,
built by ``_rng`` from one batched hash of its chains' words; a quality study
draws its whole population in one call, ``_sample_population``, after hashing
every bank's chain streams with the study's noise streams.  A bank and a study
both fold their stacked delays with one ``_fold``, the elementwise arithmetic
of ``to_linear``, so a study's weights are its banks' bit for bit without
building a chain or a bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import _challenge_batch, feature_matrix

__all__ = [
    "DelayParams",
    "ArbiterChain",
    "MultiBitPuf",
    "LinearModel",
    "derive_seed",
    "sample_chain",
    "sample_multibit",
    "to_linear",
    "all_challenges",
    "random_challenges",
    "linear_disagreements",
]

# Rows a bank multiplies at a time; ``respond`` also encodes block by block, so
# its float64 temporaries stay a few (BLOCK_ROWS, n+1) arrays at any batch size.
BLOCK_ROWS = 256


@dataclass(frozen=True)
class DelayParams:
    """Normal distribution the individual path delays are drawn from."""

    mean: float = 10.0
    sigma: float = 0.5

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and > 0")


def derive_seed(master, *key) -> int:
    """Derive an independent child seed from a master seed and an index path.

    Children for distinct key paths are statistically independent and do not
    depend on the order they are derived in, so any part of a seeded
    experiment can be reproduced in isolation.
    """
    spawn = tuple(int(k) for k in key)
    ss = np.random.SeedSequence(master, spawn_key=spawn)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# numpy.random.SeedSequence's constants: O'Neill's seed_seq hash, whose output
# NEP 19 keeps stable, so one pass over uint32 words in uint64 arrays gives the
# same seeds as one SeedSequence per row.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _generate_state(entropy, n_words):
    """(rows, n_words) uint64: ``generate_state(n_words, np.uint64)`` of the
    SeedSequence whose assembled entropy is each row of ``entropy``, 32-bit
    words in a (rows, >= 4) uint64 array."""
    def hashmix(value):   # takes the next hash constant per call, as numpy's loop
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = (_MIX_L * x - _MIX_R * y) & _MASK32
        return x ^ x >> 16
    const, mult = _INIT_A, _MULT_A
    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    const, mult = _INIT_B, _MULT_B
    words = [hashmix(pool[i % 4]) for i in range(2 * n_words)]
    return np.column_stack([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])])


def _seed_entropy(seeds):
    """(rows, 4) entropy words of uint64 seeds: low word, high word, padding."""
    zero = np.zeros_like(seeds)
    return np.column_stack([seeds & _MASK32, seeds >> 32, zero, zero])


def _derive_seeds(master, keys) -> np.ndarray:
    """``derive_seed(master, *key)`` for every row of a (rows, depth) key array,
    as uint64.  A non-negative int master of any size is hashed with all the
    keys in one pass; other entropy, or a key from 2**32 up, takes
    ``derive_seed`` row by row."""
    keys = np.asarray(keys, dtype=np.uint64)
    if not (isinstance(master, (int, np.integer)) and master >= 0
            and keys.max(initial=0) <= _MASK32):
        return np.array([derive_seed(master, *key) for key in keys.tolist()],
                        dtype=np.uint64)
    master = int(master)   # its 32-bit words, zero-padded to SeedSequence's 4
    words = [master >> s & _MASK32 for s in range(0, max(master.bit_length(), 128), 32)]
    entropy = np.tile(np.array(words, dtype=np.uint64), (len(keys), 1))
    return _generate_state(np.hstack([entropy, keys]), 1)[:, 0]


def _chain_streams(noise_seeds, width):
    """(len(noise_seeds), width, 4) uint64: entry (r, k) holds the 4 words that
    seed the PCG64 of ``default_rng(derive_seed(noise_seeds[r], k))``, chain
    k's stream under uint64 seed ``noise_seeds[r]``: 32 bytes until drawn."""
    entropy = _seed_entropy(np.repeat(np.asarray(noise_seeds, dtype=np.uint64), width))
    chains = np.tile(np.arange(width, dtype=np.uint64), len(noise_seeds))
    seeds = _generate_state(np.column_stack([entropy, chains]), 1)[:, 0]
    return _generate_state(_seed_entropy(seeds), 4).reshape(-1, width, 4)


class _StreamWords(np.random.bit_generator.ISeedSequence):
    """A stream's 4 words from ``_chain_streams``, the seed numpy's PCG64 takes:
    ``Generator(PCG64(_StreamWords(words)))`` is ``default_rng(derive_seed(s, k))``."""

    def __init__(self, words):
        self._words = np.ascontiguousarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("stream words seed only PCG64's 4 uint64 words")
        return self._words


def _rng(words):
    """``default_rng(derive_seed(s, k))``, built from the 4 PCG64 seed words
    that ``_chain_streams`` or ``sample_multibit`` hash for it."""
    return np.random.Generator(np.random.PCG64(_StreamWords(words)))


@dataclass(frozen=True, eq=False)
class ArbiterChain:
    """A single arbiter chain: (n, 4) path delays plus an optional noise level.

    ``delays`` is a read-only (n, 4) array, columns (d_tt, d_bb, d_tb, d_bt),
    each finite and below float max / (4n + 4) in magnitude (``_check_delays``).
    ``noise_sigma`` is the standard deviation of the Gaussian disturbance on
    the final delay difference; it is only applied when an evaluation is given
    an explicit ``noise_seed``, so the same instance serves as its own
    noise-free reference.
    """

    delays: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self):
        delays = np.array(self.delays, dtype=np.float64)
        if delays.ndim != 2 or delays.shape[1] != 4 or delays.shape[0] < 1:
            raise ValueError("delays must have shape (n, 4) with n >= 1")
        _check_delays(delays)
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and non-negative")
        delays.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))

    @property
    def n_stages(self) -> int:
        return self.delays.shape[0]

    def delta(self, challenges, noise_seed=None) -> np.ndarray:
        """Final arrival-time difference (bottom - top), shape (m,).

        ``times`` holds the two wires' arrival times, row 0 top and row 1
        bottom.  A straight stage adds (d_tt, d_bb); a crossing stage swaps
        the two times, then adds (d_bt, d_tb).  Each time takes one addition
        per stage, in stage order.
        """
        bits = _challenge_batch(challenges, self.n_stages)
        straight, swapped = self.delays[:, :2, None], self.delays[:, [3, 2], None]
        times = np.zeros((2, len(bits)))
        for crossed, d_straight, d_swapped in zip(bits.T.view(bool), straight, swapped):
            times = np.where(crossed, times[::-1] + d_swapped, times + d_straight)
        diff = times[1] - times[0]
        if noise_seed is not None and self.noise_sigma > 0.0:
            rng = np.random.default_rng(noise_seed)
            with np.errstate(over="ignore"):   # an overflow to +-inf keeps the sign
                diff = diff + self.noise_sigma * rng.standard_normal(len(bits))
        return diff

    def respond(self, challenges, noise_seed=None) -> np.ndarray:
        """Response bits, shape (m,): 1 where the final difference is positive."""
        return (self.delta(challenges, noise_seed=noise_seed) > 0).astype(np.uint8)

    def __repr__(self):
        return f"ArbiterChain(n_stages={self.n_stages}, noise_sigma={self.noise_sigma})"


@dataclass(frozen=True, eq=False)
class MultiBitPuf:
    """A bank of independent arbiter chains sharing one challenge.

    Chain k produces response bit k, so an instance with ``width`` chains of
    n stages maps an n-bit challenge to a ``width``-bit response word.
    ``chains`` is stored as a tuple.  The chains are folded once, here, into a
    read-only (n+1, width) weight matrix whose column k is
    ``to_linear(chains[k]).weights``; responses come from that matrix, not
    from the race.
    """

    chains: tuple[ArbiterChain, ...]

    def __post_init__(self):
        object.__setattr__(self, "chains", tuple(self.chains))
        if not self.chains:
            raise ValueError("need at least one chain")
        if any(c.n_stages != self.n_stages for c in self.chains):
            raise ValueError("all chains must have the same number of stages")
        weights = _fold(np.stack([c.delays for c in self.chains]))
        weights.setflags(write=False)
        object.__setattr__(self, "_weights", weights)

    @property
    def width(self) -> int:
        return len(self.chains)

    @property
    def n_stages(self) -> int:
        return self.chains[0].n_stages

    def _noise_draw(self, noise_seed):
        """``draw(m)``: the next m rows of (m, width) noise, noisy chain k's from
        its stream ``default_rng(derive_seed(noise_seed, k))``; None, with no
        stream hashed, for no seed or a bank with no noisy chain."""
        noise = [(k, c.noise_sigma) for k, c in enumerate(self.chains)
                 if c.noise_sigma > 0.0]
        if noise_seed is None or not noise:
            return None
        words = _chain_streams([noise_seed], self.width)[0]
        rngs = [_rng(words[k]) for k, _ in noise]

        def draw(m):
            out = np.zeros((m, self.width))
            for (k, sigma), rng in zip(noise, rngs):
                out[:, k] = sigma * rng.standard_normal(m)
            return out
        return draw

    def delta_of_features(self, feats) -> np.ndarray:
        """(m, width) noise-free differences of an (m, n+1) parity feature
        matrix, in the same ``BLOCK_ROWS`` products as ``respond``: column k is
        ``chains[k].delta(c)`` up to rounding, and ``> 0`` is ``respond(c)``."""
        if np.ndim(feats) != 2 or np.shape(feats)[1] != self.n_stages + 1:
            raise ValueError(f"features must have shape (m, {self.n_stages + 1})")
        return _delta(feats, self._weights)

    def respond(self, challenges, noise_seed=None) -> np.ndarray:
        """Response words, shape (m, width).

        Under noise every chain draws its own disturbance from a seed derived
        per chain index, so a word is reproducible from ``noise_seed`` alone
        and bit k matches ``chains[k].respond(c, derive_seed(noise_seed, k))``.
        ``noise_seed`` is None or an int in [0, 2**64).
        """
        bits = _challenge_batch(challenges, self.n_stages)
        if noise_seed is not None and not (isinstance(noise_seed, (int, np.integer))
                                           and 0 <= int(noise_seed) < 2 ** 64):
            raise ValueError("noise_seed must be None or an int in [0, 2**64)")
        draw = self._noise_draw(noise_seed)
        out = np.empty((bits.shape[0], self.width), dtype=np.uint8)
        for start in range(0, bits.shape[0], BLOCK_ROWS):
            block = bits[start:start + BLOCK_ROWS]
            diff = self.delta_of_features(feature_matrix(block, "parity"))
            if draw:
                with np.errstate(over="ignore"):   # +-inf keeps the noise's sign
                    diff += draw(block.shape[0])
            out[start:start + BLOCK_ROWS] = diff > 0
        return out

    def __repr__(self):
        return f"MultiBitPuf(width={self.width}, n_stages={self.n_stages})"


def _delta(feats, weights):
    """(m, width) ``feats @ weights``, one product per ``BLOCK_ROWS`` rows: the
    noise-free differences of a bank with (n+1, width) ``weights``."""
    out = np.empty((len(feats), weights.shape[1]))
    for start in range(0, len(feats), BLOCK_ROWS):
        out[start:start + BLOCK_ROWS] = feats[start:start + BLOCK_ROWS] @ weights
    return out


@dataclass(frozen=True)
class LinearModel:
    """A chain's threshold form from ``to_linear``: the response is 1 exactly
    where its read-only (n+1,) ``weights`` dot the parity features above 0."""

    weights: np.ndarray


def _draw_delays(rngs, n, params):
    """(streams, n, 4) delays, slice r drawn by the r-th of the ``rngs`` as
    ``normal(mean, sigma, (n, 4))``: the one delay draw of every chain, bank
    and population."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _check_delays(np.stack([rng.normal(params.mean, params.sigma, (n, 4))
                                   for rng in rngs]))


def _check_delays(delays):
    """``delays``, (..., n, 4), if each is finite and below float max / (4n + 4)
    in magnitude: under that bound no race, fold or product of the n + 1 folded
    weights with parity features overflows.  NaN fails the comparison too; the
    bound divides, since 4n + 4 times a delay can overflow."""
    if not np.abs(delays).max() < np.finfo(float).max / (4 * delays.shape[-2] + 4):
        raise ValueError("delays must be finite with |d| < float max / (4n + 4)")
    return delays


def sample_chain(n: int, params: DelayParams = DelayParams(), seed=None,
                 noise_sigma: float = 0.0) -> ArbiterChain:
    """Draw a fresh n-stage chain, all 4n path delays i.i.d. normal."""
    delays, = _draw_delays([np.random.default_rng(seed)], n, params)
    return ArbiterChain(delays, noise_sigma=noise_sigma)


def sample_multibit(n: int, width: int, params: DelayParams = DelayParams(),
                    seed=None, noise_sigma: float = 0.0) -> MultiBitPuf:
    """Draw a multi-bit instance of ``width`` n-stage chains.

    Chain k is sampled from the child seed ``derive_seed(seed, k)``, so any
    single chain can be rebuilt without instantiating the whole bank; all
    ``width`` child seeds and stream words are hashed in one batched pass.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    seeds = _derive_seeds(seed, np.arange(width)[:, None])
    delays = _draw_delays(map(_rng, _generate_state(_seed_entropy(seeds), 4)), n, params)
    return MultiBitPuf([ArbiterChain(d, noise_sigma) for d in delays])


def to_linear(chain: ArbiterChain) -> LinearModel:
    """Fold a chain's 4n path delays into the n+1 weights of its threshold form.

    With a_i = d_bb,i - d_tt,i and b_i = d_tb,i - d_bt,i the final difference
    equals the inner product of these weights with the parity features:

        w_1     = (a_1 - b_1) / 2
        w_k     = (a_{k-1} + b_{k-1}) / 2 + (a_k - b_k) / 2    (2 <= k <= n)
        w_{n+1} = (a_n + b_n) / 2
    """
    w = _fold(chain.delays[None])[:, 0]
    w.setflags(write=False)
    return LinearModel(w)


def _fold(delays):
    """C-contiguous (..., n+1, width) weights of (..., width, n, 4) delays,
    column k folding chain k; the arithmetic is elementwise, so a stacked fold
    equals ``to_linear`` of each chain bit for bit."""
    d = np.moveaxis(delays, -3, -1)     # (..., n, 4, width)
    a, b = d[..., 1, :] - d[..., 0, :], d[..., 2, :] - d[..., 3, :]
    w = np.zeros(a.shape[:-2] + (a.shape[-2] + 1, a.shape[-1]))
    w[..., :-1, :] = (a - b) / 2.0      # w_k gets (a_k - b_k) / 2,
    w[..., 1:, :] += (a + b) / 2.0      # w_{k+1} gets (a_k + b_k) / 2
    return w


def _sample_population(n, width, params, master, instances, noise_seeds):
    """(instances, n+1, width) weights whose slice i is bank i's ``_weights``,
    bank i being ``sample_multibit(n, width, params, derive_seed(master, 0, i))``
    drawn through the same ``_draw_delays`` call as every other bank; and the
    ``_chain_streams`` words of the uint64 ``noise_seeds``, hashed in the same
    pass as the banks' chain streams."""
    keys = np.column_stack([np.zeros(instances, int), np.arange(instances)])
    streams = _chain_streams(np.append(_derive_seeds(master, keys), noise_seeds), width)
    delays = _draw_delays(map(_rng, streams[:instances].reshape(-1, 4)), n, params)
    return _fold(delays.reshape(instances, width, n, 4)), streams[instances:]


def all_challenges(n: int) -> np.ndarray:
    """Every n-bit challenge as a (2**n, n) bit array, first bit most significant."""
    if not 1 <= n <= 24:
        raise ValueError("exhaustive enumeration supported for 1 <= n <= 24")
    idx = np.arange(2 ** n, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    return ((idx[:, None] >> shifts) & 1).astype(np.uint8)


def random_challenges(m: int, n: int, seed=None) -> np.ndarray:
    """m uniform n-bit challenges as an (m, n) bit array."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(m, n), dtype=np.uint8)


def linear_disagreements(chain: ArbiterChain, challenges) -> np.ndarray:
    """Indices of the challenges where the race and the one-chain bank, which
    responds through the folded weights, disagree; the result should be empty."""
    folded = MultiBitPuf([chain]).respond(challenges)[:, 0]
    return np.flatnonzero(chain.respond(challenges) != folded)
