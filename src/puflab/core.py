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
modelled as a single Gaussian disturbance added to the final delay difference,
always by ``_disturb``: a chain's, a bank's and a quality study's noisy
read-outs fill a buffer with each stream's normals, scale it and add the
differences there, so a bank's column k is chain k's read-out by construction.
A noisy bank read-out disturbs every column, a quiet chain's by 0 * z, which
moves no bit.

A multi-bit instance is a bank of independent chains sharing one challenge,
one response bit per chain.  The bank folds its chains once, when built, and
responds through the folded weights, the only linear evaluator here;
``ArbiterChain.delta`` keeps the race as the reference oracle for the fold,
and ``linear_disagreements`` checks a chain's race against its one-chain
bank.  ``MultiBitPuf.respond(c, s)`` is the read-out.  ``_delta`` is the one
product of parity features and folded weights, in ``BLOCK_ROWS`` row blocks:
a bank's read-out and a quality study both take their noise-free differences
from it, so a study's bits are its banks' bit for bit.

Chain k's stream under seed s is ``default_rng(derive_seed(s, k))``, for any
seed ``derive_seed`` takes.  ``_bank_streams`` is the one hasher of those
streams: given the SeedSequence entropy words of any number of seeds
(``_entropy`` of any master, ``_seed_entropy`` of uint64 seeds), it hashes
every seed's ``width`` streams in one batched pass, for a bank's delays, a
bank's noise and a quality study's banks and noise alike.  numpy's own PCG64
is built from those words (``_rng``), exactly equal to
``default_rng(derive_seed(s, k))``.  A bank with no noisy chain hashes no
noise stream.

Every delay is drawn on one path, ``_draw_delays``: each stream's
``normal(mean, sigma, (n, 4))``, written straight into one stacked array.
Each delay is checked once against the overflow bound of ``_check_delays``,
by the chain that holds it or, for a study, by ``_sample_population``.
``sample_chain`` draws from ``default_rng(seed)``; ``sample_multibit`` draws
chain k from ``default_rng(derive_seed(seed, k))``, built by ``_rng`` from
``_bank_streams``; a quality study draws its whole population in one call,
``_sample_population``, which keys every bank and noisy read-out of the study
and hashes all their chain streams in one ``_bank_streams`` call.  A bank and a
study both fold their stacked delays with one ``_fold``, the elementwise
arithmetic of ``to_linear``, so a study's weights are its banks' bit for bit
without building a chain or a bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy's own SeedSequence entropy assembly: private, so the seeded tests pin _entropy
from numpy.random.bit_generator import _coerce_to_uint32_array

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


def _entropy(master):
    """(1, >= 4) uint64: the 32-bit words ``SeedSequence(master)`` assembles
    from any master it takes, zero-padded to 4 as a spawn key pads them."""
    words = _coerce_to_uint32_array(np.random.SeedSequence(master).entropy)
    return np.append(words, np.zeros(4, np.uint32)[len(words):]).astype(np.uint64)[None]


def _derive_seeds(master, keys) -> np.ndarray:
    """``derive_seed(master, *key)`` for every row of a (rows, depth) key array,
    as uint64, hashed with all the keys in one pass.  A key is one 32-bit word,
    so one from 2**32 up is refused."""
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.max(initial=0) > _MASK32:
        raise ValueError("keys must be < 2**32")
    return _generate_state(np.hstack([_entropy(master).repeat(len(keys), 0), keys]), 1)[:, 0]


def _bank_streams(entropy, width):
    """(rows, width, 4) uint64: entry (r, k) holds the 4 words that seed the
    PCG64 of ``default_rng(derive_seed(s, k))``, chain k's stream under the seed
    s whose ``_entropy`` is row r of ``entropy``: the delay or noise streams of
    one bank per row, all hashed in one pass."""
    if not 1 <= width <= np.iinfo(np.intp).max:   # past it np.arange(width) is empty
        raise ValueError(f"width must be >= 1 and <= {np.iinfo(np.intp).max}")
    chains = np.tile(np.arange(width, dtype=np.uint64), len(entropy))[:, None]
    seeds = _generate_state(np.hstack([entropy.repeat(width, 0), chains]), 1)[:, 0]
    return _generate_state(_seed_entropy(seeds), 4).reshape(-1, width, 4)


class _StreamWords(np.random.bit_generator.ISeedSequence):
    """A stream's 4 words from ``_bank_streams``, the seed numpy's PCG64 takes:
    ``Generator(PCG64(_StreamWords(words)))`` is ``default_rng(derive_seed(s, k))``."""

    def __init__(self, words):
        self._words = np.ascontiguousarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("stream words seed only PCG64's 4 uint64 words")
        return self._words


def _rng(words):
    """``default_rng(derive_seed(s, k))``, built from the 4 PCG64 seed words
    that ``_bank_streams`` hashes for it."""
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
            diff = _disturb(diff[:, None], [np.random.default_rng(noise_seed)],
                            self.noise_sigma, np.empty((1, len(bits))))[0]
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

    def respond(self, challenges, noise_seed=None) -> np.ndarray:
        """Response words, shape (m, width).

        Under noise every column k is disturbed from its stream
        ``default_rng(derive_seed(noise_seed, k))``, one ``_disturb`` call per
        ``BLOCK_ROWS`` block for the whole word, a quiet chain's column by
        0 * z, which moves no bit.  So a word is reproducible from
        ``noise_seed`` alone and bit k is
        ``chains[k].respond(c, derive_seed(noise_seed, k))`` for any seed
        that ``derive_seed`` takes.  A bank with no noisy chain hashes no
        stream and ignores its ``noise_seed``, as a quiet chain does.
        """
        bits = _challenge_batch(challenges, self.n_stages)
        sigmas, rngs = np.array([[c.noise_sigma] for c in self.chains]), []
        if noise_seed is not None and sigmas.any():
            rngs = list(map(_rng, _bank_streams(_entropy(noise_seed), self.width)[0]))
        out = np.empty((bits.shape[0], self.width), dtype=np.uint8)
        for start in range(0, bits.shape[0], BLOCK_ROWS):
            block = bits[start:start + BLOCK_ROWS]
            diff = _delta(feature_matrix(block, "parity"), self._weights)
            if rngs:   # a quiet chain adds 0 * z, and -0.0 still reads 0
                diff = _disturb(diff, rngs, sigmas, np.empty((self.width, len(block)))).T
            out[start:start + BLOCK_ROWS] = diff > 0
        return out

    def __repr__(self):
        return f"MultiBitPuf(width={self.width}, n_stages={self.n_stages})"


def _disturb(diff, rngs, sigma, out):
    """(k, m) ``out`` with row j set to ``diff[:, j] + sigma_j * z``, z the next
    m normals of ``rngs[j]``, for (m, k) noise-free differences ``diff`` and a
    scalar or (k, 1) ``sigma``: the one noise draw of every chain, bank and
    quality study."""
    for rng, row in zip(rngs, out):
        rng.standard_normal(out=row)
    with np.errstate(over="ignore"):   # +-inf past float max keeps the noise's sign
        out *= sigma
        out += diff.T
    return out


def _delta(feats, weights):
    """(m, width) ``feats @ weights``, one product per ``BLOCK_ROWS`` rows: the
    noise-free differences of a bank with (n+1, width) ``weights``, for its
    read-out and a quality study alike."""
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
    """(len(rngs), n, 4) delays, slice r drawn by ``rngs[r]`` as
    ``normal(mean, sigma, (n, 4))``, each straight into the result: the one
    delay draw of every chain, bank and population, unchecked until a chain or
    ``_sample_population`` checks it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.fromiter((rng.normal(params.mean, params.sigma, (n, 4)) for rng in rngs),
                       np.dtype((float, (n, 4))), len(rngs))


def _check_delays(delays):
    """``delays``, (..., n, 4), if each is finite and below float max / (4n + 4)
    in magnitude: under that bound no race, fold or product of the n + 1 folded
    weights with parity features overflows.  NaN fails the comparison too; the
    bound divides, since 4n + 4 times a delay can overflow."""
    bound = np.finfo(float).max / (4 * delays.shape[-2] + 4)
    if not np.maximum(delays.max(), -delays.min()) < bound:
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
    delays = _draw_delays(list(map(_rng, _bank_streams(_entropy(seed), width)[0])), n, params)
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


def _sample_population(n, width, params, master, instances, repeats):
    """(instances, n+1, width) weights whose slice i is bank i's ``_weights``,
    bank i being ``sample_multibit(n, width, params, derive_seed(master, 0, i))``
    drawn through the same ``_draw_delays`` call as every other bank; and the
    (instances, repeats, width, 4) ``_bank_streams`` words of each noisy
    read-out (i, t) under ``derive_seed(master, 2, i, t)``, hashed in the same
    pass as the banks' chain streams."""
    banks = np.column_stack([np.zeros(instances, int), np.arange(instances)])
    reads = np.indices((instances, repeats)).reshape(2, -1).T
    seeds = np.append(_derive_seeds(master, banks),
                      _derive_seeds(master, np.insert(reads, 0, 2, axis=1)))
    streams = _bank_streams(_seed_entropy(seeds), width)
    rngs = list(map(_rng, streams[:instances].reshape(-1, 4)))
    delays = _check_delays(_draw_delays(rngs, n, params))
    return (_fold(delays.reshape(instances, width, n, 4)),
            streams[instances:].reshape(instances, repeats, width, 4))


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
