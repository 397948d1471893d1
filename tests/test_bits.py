"""Hex codec behaviour."""

import numpy as np
import pytest

from puflab.bits import HexFormatError, format_hex_word, parse_hex_word


def test_parse_prefixed_word_is_msb_first():
    bits = parse_hex_word("64h9283c630815977c", 64)
    assert bits.shape == (64,)
    assert bits.dtype == np.uint8
    # 15 digits pad to 0x09283C630815977C; the top byte is 0000 1001
    assert bits[:8].tolist() == [0, 0, 0, 0, 1, 0, 0, 1]
    assert bits[-4:].tolist() == [1, 1, 0, 0]


def test_format_is_canonical_uppercase_padded():
    bits = parse_hex_word("64h9283c630815977c", 64)
    assert format_hex_word(bits) == "09283C630815977C"
    assert format_hex_word([0, 0, 0, 0]) == "0"
    assert format_hex_word([1]) == "1"
    assert format_hex_word([0, 1, 0, 1, 1]) == "0B"  # 5 bits -> 2 digits


def test_prefix_variants_and_case_agree():
    reference = parse_hex_word("09283C630815977C", 64)
    for text in ("64h9283c630815977c", "64'h9283c630815977c",
                 "64H9283C630815977C", "9283c630815977c"):
        assert np.array_equal(parse_hex_word(text, 64), reference)


def test_prefix_width_must_be_the_word_width():
    with pytest.raises(HexFormatError) as exc:
        parse_hex_word("8'hFFFF", 64)
    assert str(exc.value) == "prefix width 8 is not 64 in \"8'hFFFF\""
    assert exc.value.offset == 0
    with pytest.raises(HexFormatError, match="prefix width 32 is not 64"):
        parse_hex_word("32h0000ABCD", 64)
    assert parse_hex_word("8hA5", 8).tolist() == [1, 0, 1, 0, 0, 1, 0, 1]


def test_short_value_left_pads_with_zeros():
    bits = parse_hex_word("5", 16)
    assert bits[:13].tolist() == [0] * 13
    assert bits[13:].tolist() == [1, 0, 1]


def test_width_not_multiple_of_four():
    assert parse_hex_word("5", 3).tolist() == [1, 0, 1]
    assert format_hex_word([1, 0, 1]) == "5"
    with pytest.raises(HexFormatError):
        parse_hex_word("F", 3)  # value 15 needs 4 bits


def test_invalid_character_reports_offset():
    with pytest.raises(HexFormatError) as exc:
        parse_hex_word("12G4", 16)
    assert exc.value.offset == 2
    with pytest.raises(HexFormatError) as exc:
        parse_hex_word("64hABCX", 64)
    assert exc.value.offset == 6  # prefix "64h" occupies offsets 0..2
    # a prefix takes ASCII digits only; Arabic-Indic "64h" is not a prefix
    with pytest.raises(HexFormatError) as exc:
        parse_hex_word("\u0666\u0664hFF", 8)
    assert exc.value.offset == 0


def test_too_many_digits_rejected():
    with pytest.raises(HexFormatError, match="17 hex digits"):
        parse_hex_word("FFFF0000FFFFFFF00", 64)
    with pytest.raises(HexFormatError):
        parse_hex_word("100", 8)  # 3 digits > ceil(8 / 4)


def test_empty_and_bad_width():
    with pytest.raises(HexFormatError):
        parse_hex_word("", 8)
    with pytest.raises(HexFormatError):
        parse_hex_word("64h", 64)  # prefix without digits
    with pytest.raises(ValueError):
        parse_hex_word("A", 0)


def test_format_input_validation():
    with pytest.raises(ValueError):
        format_hex_word([])
    with pytest.raises(ValueError):
        format_hex_word([0, 2, 1])
    with pytest.raises(ValueError):
        format_hex_word([[0, 1], [1, 0]])
    # a fraction or NaN is rejected, not floored to 0
    for bad in ([0.5, 1], [np.nan, 1], [0, -1]):
        with pytest.raises(ValueError, match="bit values must be 0 or 1"):
            format_hex_word(bad)
    assert format_hex_word([1.0, 0.0, 1.0]) == "5"
    assert format_hex_word(np.array([True, False, True])) == "5"


def test_randomized_roundtrip():
    rng = np.random.default_rng(90210)
    for _ in range(1000):
        width = int(rng.integers(1, 81))
        bits = rng.integers(0, 2, size=width, dtype=np.uint8)
        text = format_hex_word(bits)
        assert len(text) == (width + 3) // 4
        assert text == text.upper()
        assert np.array_equal(parse_hex_word(text, width), bits)
        # a lowercase, prefixed rendering parses to the same bits
        assert np.array_equal(parse_hex_word(f"{width}h{text.lower()}", width),
                              bits)

