"""Fixed-width bit vectors and their hex codec.

Challenges and responses are bit vectors with a canonical text rendering:
uppercase hex, zero-padded to ceil(width / 4) digits, no prefix.  Bit 1 of
the vector is the most significant bit of the hex word.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = ["HexFormatError", "parse_hex_word", "format_hex_word"]

# Verilog-style width/base prefix in ASCII digits, e.g. "64h..." or "64'h...".
_PREFIX = re.compile(r"^[0-9]+'?[hH]")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class HexFormatError(ValueError):
    """Malformed hex word.  ``offset`` points at the offending character."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


def parse_hex_word(text: str, width: int) -> np.ndarray:
    """Parse a hex word into a bit vector of exactly ``width`` bits.

    Accepts an optional Verilog-style prefix (``64h9283...``, ``64'h92...``)
    or bare hex digits, case-insensitive.  Values shorter than the width are
    left-padded with zero bits; more digits (or a larger value) than the
    width allows raises :class:`HexFormatError`.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    token = text.strip()
    m = _PREFIX.match(token)
    start = m.end() if m else 0
    digits = token[start:]
    if not digits:
        raise HexFormatError(f"no hex digits in {text!r}", offset=start)
    for i, ch in enumerate(digits):
        if ch not in _HEX_DIGITS:
            raise HexFormatError(
                f"invalid hex character {ch!r} at offset {start + i} in {text!r}",
                offset=start + i,
            )
    max_digits = (width + 3) // 4
    if len(digits) > max_digits:
        raise HexFormatError(
            f"{len(digits)} hex digits exceed width {width} "
            f"(at most {max_digits} allowed)"
        )
    value = int(digits, 16)
    if value >> width:
        raise HexFormatError(f"value {digits} does not fit in {width} bits")
    nbytes = (width + 7) // 8
    raw = np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8)
    return np.unpackbits(raw)[-width:].copy()


def _bit_array(values, what: str) -> np.ndarray:
    """``values`` as uint8, once every entry is exactly 0 or 1 (0.5 raises)."""
    arr = np.asarray(values)
    ok = (arr.max(initial=0) <= 1 if arr.dtype == np.uint8
          else np.all((arr == 0) | (arr == 1)))
    if not ok:
        raise ValueError(f"{what} must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def format_hex_word(bits) -> str:
    """Render a bit vector as canonical hex: uppercase, zero-padded, MSB first."""
    arr = _bit_array(bits, "bit values")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-D bit sequence")
    width = arr.size
    pad = (-width) % 8
    padded = np.concatenate([np.zeros(pad, dtype=np.uint8), arr])
    value = int.from_bytes(np.packbits(padded).tobytes(), "big")
    return f"{value:0{(width + 3) // 4}X}"

