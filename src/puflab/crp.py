"""Challenge-response datasets: generation, persistence, splitting, import.

On-disk format (``puf-crp v1``) is a plain text file::

    # puf-crp v1
    # challenge_bits=64 response_bits=64
    # meta seed=1234
    challenge_hex,response_hex
    09283C630815977C,FF00FF0000FF00FF
    ...

Hex words are uppercase, zero padded to ceil(bits / 4) digits, most
significant bit first; meta values are single lines of ASCII.
``generate_crps`` draws a dataset from a seeded bank and ``save_crps`` writes
it.  ``load_crps`` is strict and reports the first offending line;
``import_hex_rows`` is the lenient path for pulling in externally logged
tables (tab- or comma-separated, Verilog-style width prefixes allowed) and
rejects malformed rows one by one instead of giving up.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .bits import HexFormatError, _bit_array, format_hex_word, parse_hex_word
from .core import DelayParams, derive_seed, random_challenges, sample_multibit

__all__ = [
    "DatasetError",
    "CrpSet",
    "generate_crps",
    "load_crps",
    "save_crps",
    "split_crps",
    "import_hex_rows",
]

MAGIC = "# puf-crp v1"
COLUMNS = "challenge_hex,response_hex"

_SHAPE_RE = re.compile(r"^# challenge_bits=(\d+) response_bits=(\d+)$")
_META_KEY_RE = re.compile(r"[A-Za-z0-9_.-]+")
# one line of ASCII, which save_crps writes and load_crps reads back as one
# value: str.splitlines also breaks at \x0b, \x0c and \x1c-\x1e
_META_VALUE_RE = re.compile(r"[\x00-\x09\x0e-\x1b\x1f-\x7f]*")
_META_RE = re.compile(rf"^# meta ({_META_KEY_RE.pattern})=({_META_VALUE_RE.pattern})$")


class DatasetError(ValueError):
    """Raised for files or rows that do not follow the dataset format.  The
    message starts with ``line N: ``, and ``line`` holds N, 1-based."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class CrpSet:
    """Paired (m, n) challenges and (m, w) responses plus free-form metadata.

    Both matrices follow ``bits``' one rule as 2-D arrays with at least one bit
    per word, and have the same row count.  The set holds its own read-only
    uint8 copies, and ``meta`` is a read-only mapping of str to str; to change
    metadata, build a new set.
    """

    challenges: np.ndarray
    responses: np.ndarray
    meta: object = None

    def __post_init__(self):
        challenges = _bit_array(np.array(self.challenges), "challenge bits", (2,))
        responses = _bit_array(np.array(self.responses), "response bits", (2,))
        if challenges.shape[0] != responses.shape[0]:
            raise ValueError("challenges and responses must have the same row count")
        challenges.setflags(write=False)
        responses.setflags(write=False)
        meta = {} if self.meta is None else {str(k): str(v)
                                             for k, v in dict(self.meta).items()}
        for key, value in meta.items():
            if not _META_KEY_RE.fullmatch(key):
                raise ValueError(f"bad meta key {key!r}")
            if not _META_VALUE_RE.fullmatch(value):
                raise ValueError(f"meta value for {key!r} must be one line of ASCII")
        object.__setattr__(self, "challenges", challenges)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "meta", MappingProxyType(meta))

    @property
    def challenge_bits(self) -> int:
        return self.challenges.shape[1]

    @property
    def response_bits(self) -> int:
        return self.responses.shape[1]

    def __len__(self) -> int:
        return self.challenges.shape[0]

    def __repr__(self):
        return (f"CrpSet(rows={len(self)}, challenge_bits={self.challenge_bits}, "
                f"response_bits={self.response_bits})")

    def subset(self, indices) -> "CrpSet":
        """New set holding the given rows (metadata carried over)."""
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"row indices must be integers, not {idx.dtype}")
        # checked before the cast, which would wrap a uint64 index to a negative one
        if idx.size and not -len(self) <= int(idx.min()) <= int(idx.max()) < len(self):
            raise IndexError(f"row index out of range for {len(self)} rows")
        idx = idx.astype(np.int64)
        return CrpSet(self.challenges[idx], self.responses[idx], self.meta)


def generate_crps(n: int, count: int, width: int = 1, seed=None,
                  params: DelayParams = DelayParams(),
                  noise_sigma: float = 0.0) -> CrpSet:
    """Sample a fresh instance and collect ``count`` uniformly random CRPs.

    All randomness branches off the one master seed -- instance delays, the
    challenge stream and (when ``noise_sigma`` > 0) the measurement noise use
    independent derived child seeds -- so the same arguments always rebuild a
    byte-identical dataset, and the recorded metadata is enough to regenerate
    it.  Challenges are drawn with replacement, so duplicates may occur.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    puf = sample_multibit(n, width, params=params, seed=derive_seed(seed, 0),
                          noise_sigma=noise_sigma)
    challenges = random_challenges(count, n, seed=derive_seed(seed, 1))
    noise_seed = derive_seed(seed, 2) if noise_sigma > 0 else None
    responses = puf.respond(challenges, noise_seed=noise_seed)
    meta = {
        "generator": "arbiter-bank",
        "delay_mean": params.mean,
        "delay_sigma": params.sigma,
        "noise_sigma": noise_sigma,
    }
    if seed is not None:
        meta["seed"] = seed
    return CrpSet(challenges, responses, meta)


def save_crps(path, crps: CrpSet):
    """Write a set in the puf-crp v1 text format (canonical, reproducible)."""
    lines = [MAGIC,
             f"# challenge_bits={crps.challenge_bits} "
             f"response_bits={crps.response_bits}"]
    for key in sorted(crps.meta):
        lines.append(f"# meta {key}={crps.meta[key]}")
    lines.append(COLUMNS)
    lines += [f"{format_hex_word(chal)},{format_hex_word(resp)}"
              for chal, resp in zip(crps.challenges, crps.responses)]
    _write_text(path, lines)


def _write_text(path, lines):
    """Write ``lines`` as ASCII, each ended by "\\n": the one artifact writer of
    ``save_crps`` and the CLI reports."""
    data = ("\n".join(lines) + "\n").encode("ascii")  # fails before the file opens
    with open(os.fspath(path), "wb") as fh:
        fh.write(data)


def load_crps(path) -> CrpSet:
    """Read a puf-crp v1 file; any malformed line raises with its line number."""
    # bytes.splitlines breaks only on \n, \r\n and \r: every line number
    # below, the non-ASCII one included, counts lines of this one split
    with open(os.fspath(path), "rb") as fh:
        rows = fh.read().splitlines()
    bad = next((i for i, row in enumerate(rows) if not row.isascii()), None)
    if bad is not None:
        byte = next(b for b in rows[bad] if b > 0x7F)
        raise DatasetError(f"non-ASCII byte 0x{byte:02X}", line=bad + 1)
    lines = [row.decode("ascii") for row in rows]
    if not lines or lines[0] != MAGIC:
        raise DatasetError(f"expected header {MAGIC!r}", line=1)
    if len(lines) < 2 or not (shape := _SHAPE_RE.match(lines[1])):
        raise DatasetError("expected '# challenge_bits=<n> response_bits=<m>'",
                           line=2)
    n_bits, r_bits = int(shape.group(1)), int(shape.group(2))
    if n_bits < 1 or r_bits < 1:
        raise DatasetError("challenge_bits and response_bits must be >= 1", line=2)

    meta = {}
    pos = 2
    while pos < len(lines) and lines[pos].startswith("#"):
        m = _META_RE.match(lines[pos])
        if not m:
            raise DatasetError("bad meta line, expected '# meta key=value' with "
                               "a one-line value", line=pos + 1)
        if m.group(1) in meta:
            raise DatasetError(f"repeated meta key {m.group(1)!r}", line=pos + 1)
        meta[m.group(1)] = m.group(2)
        pos += 1
    if pos >= len(lines) or lines[pos] != COLUMNS:
        raise DatasetError(f"expected column header {COLUMNS!r}", line=pos + 1)
    pos += 1

    challenges, responses = [], []
    for lineno in range(pos, len(lines)):
        row = lines[lineno].strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != 2:
            raise DatasetError("expected 'challenge_hex,response_hex'",
                               line=lineno + 1)
        try:
            challenges.append(parse_hex_word(parts[0], n_bits))
            responses.append(parse_hex_word(parts[1], r_bits))
        except HexFormatError as exc:
            raise DatasetError(str(exc), line=lineno + 1) from exc

    return CrpSet(np.array(challenges, dtype=np.uint8).reshape(-1, n_bits),
                  np.array(responses, dtype=np.uint8).reshape(-1, r_bits), meta)


def split_crps(crps: CrpSet, test_fraction: float, seed=None):
    """Random train/test split; returns (train, test).

    The held-out size is max(1, floor(test_fraction * rows)); e.g. 750 rows at
    fraction 0.15 leave 638 for training and 112 for testing.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be strictly between 0 and 1")
    m = len(crps)
    n_test = max(1, int(np.floor(test_fraction * m)))
    if n_test >= m:
        raise ValueError("split leaves no training rows")
    perm = np.random.default_rng(seed).permutation(m)
    return crps.subset(perm[n_test:]), crps.subset(perm[:n_test])


def import_hex_rows(source, challenge_bits: int, response_bits: int):
    """Lenient import of externally logged CRP tables.

    ``source`` is a path (``str``, ``bytes`` or path-like, as for ``open``) or
    an iterable of text or bytes lines.  Each data row holds a challenge word
    and a response word separated by whitespace or a comma; challenge words
    may carry a Verilog-style width prefix (``64h9283c...``).  Blank lines and
    ``#`` comments are skipped.  Malformed rows do not abort the import: they
    are collected as ``(line_number, reason)`` pairs.  Bytes (a file is read
    as bytes) decode as ASCII with a non-ASCII byte as U+FFFD, so only its
    row is rejected.

    Returns ``(crps, rejected)`` where ``crps`` covers the well-formed rows.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(os.fspath(source), "rb") as fh:
            source = fh.read().splitlines()
    lines = [line.decode("ascii", "replace") if isinstance(line, bytes) else str(line)
             for line in source]

    challenges, responses, rejected = [], [], []
    for lineno, raw in enumerate(lines, start=1):
        row = raw.strip()
        if not row or row.startswith("#"):
            continue
        parts = [p for p in re.split(r"[,\s]+", row) if p]
        if len(parts) != 2:
            rejected.append((lineno, "expected a challenge word and a response word"))
            continue
        try:
            chal = parse_hex_word(parts[0], challenge_bits)
            resp = parse_hex_word(parts[1], response_bits)
        except HexFormatError as exc:
            rejected.append((lineno, str(exc)))
            continue
        challenges.append(chal)
        responses.append(resp)

    crps = CrpSet(np.array(challenges, dtype=np.uint8).reshape(-1, challenge_bits),
                  np.array(responses, dtype=np.uint8).reshape(-1, response_bits))
    return crps, rejected
