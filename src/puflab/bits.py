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
_PREFIX = re.compile(r"^([0-9]+)'?[hH]")
_NOT_HEX = re.compile(r"[^0-9a-fA-F]")


class HexFormatError(ValueError):
    """Malformed hex word.  A bad character's message names its offset."""


def parse_hex_word(text: str, width: int) -> np.ndarray:
    """Parse a hex word into a bit vector of exactly ``width`` bits.

    Accepts bare hex digits, case-insensitive, after an optional Verilog-style
    prefix of this width (``64h9283...`` or ``64'h92...`` at width 64).  Shorter
    values are left-padded with zero bits; another prefix width, or more digits
    (or a larger value) than the width allows, raises :class:`HexFormatError`.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    token = text.strip()
    m = _PREFIX.match(token)
    if m and m[1].lstrip("0") != str(width):
        raise HexFormatError(f"prefix width {m[1]} is not {width} in {text!r}")
    start = m.end() if m else 0
    digits = token[start:]
    if not digits:
        raise HexFormatError(f"no hex digits in {text!r}")
    bad = _NOT_HEX.search(token, start)
    if bad:
        raise HexFormatError(f"invalid hex character {bad[0]!r} at offset "
                             f"{bad.start()} in {text!r}")
    max_digits = (width + 3) // 4
    if len(digits) > max_digits:
        raise HexFormatError(
            f"{len(digits)} hex digits exceed width {width} "
            f"(at most {max_digits} allowed)"
        )
    value = int(digits, 16)
    if value >> width:
        raise HexFormatError(f"value {digits} does not fit in {width} bits")
    # the pad bits go below the value, where unpackbits' count= drops them
    raw = (value << (-width % 8)).to_bytes((width + 7) // 8, "big")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=width)


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
    # packbits zero-fills the last byte's low bits; shift them off the value
    value = int.from_bytes(np.packbits(arr).tobytes(), "big") >> (-arr.size % 8)
    return f"{value:0{(arr.size + 3) // 4}X}"

