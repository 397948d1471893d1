"""Dataset generation, the puf-crp v1 file format, splitting and import."""

import numpy as np
import pytest

from puflab.bits import format_hex_word
from puflab.core import (DelayParams, derive_seed, random_challenges,
                         sample_multibit)
from puflab.crp import (CrpSet, DatasetError, generate_crps, import_hex_rows,
                        load_crps, save_crps, split_crps)

# Ten logged rows as they came off an external capture: tab separated,
# Verilog-prefixed 64-bit challenges, 64-bit responses.  Four of the response
# words carry a stray 17th digit and must be turned away row by row.
LOGGED_ROWS = [
    "64h9283c630815977c\tFF00FF0000FF00FF",
    "64h824e3d711516856b\tFFFF0000FFFFFFF00",
    "64h92304516c4bb0240\tFF00FFFF0000FF00",
    "64h200fbac6d9bb7303\t0000FFFFFF00FF00",
    "64h6844dcc6a582ac22\t000000FFFFFFF0000",
    "64h686d3ec2141a7dfb\t00FFFFFF00FF0000",
    "64h6494978f8293cf35\tFF000000FF0000FF",
    "64hef911feddf105f4e\t00FF00FF000000FF",
    "64h7b2869d1d09564d2\t0000FFFF00FFFFFFF",
    "64hf0d856b216b4c3a3\tFF00FFFFFF0000000",
]
BAD_LINES = (2, 5, 9, 10)
GOOD_CHALLENGES = ["09283C630815977C", "92304516C4BB0240", "200FBAC6D9BB7303",
                   "686D3EC2141A7DFB", "6494978F8293CF35", "EF911FEDDF105F4E"]


# ---------------------------------------------------------------------------
# CrpSet


def test_crpset_basic():
    crps = CrpSet([[0, 1], [1, 0], [1, 1]], [[1], [0], [1]], {"seed": 9})
    assert len(crps) == 3
    assert crps.challenge_bits == 2
    assert crps.response_bits == 1
    assert crps.meta == {"seed": "9"}
    sub = crps.subset([2, 0])
    assert sub.challenges.tolist() == [[1, 1], [0, 1]]
    assert sub.responses.tolist() == [[1], [1]]
    assert sub.meta == {"seed": "9"}


def test_subset_takes_only_integer_indices():
    crps = CrpSet([[0, 0], [0, 1], [1, 0], [1, 1]], [[0], [1], [0], [1]])
    # a mask is not a row list, and a float index is not a row
    for bad in ([True, False, True, False], [0.7, 2.9], np.array([1.0])):
        with pytest.raises(ValueError, match="integers"):
            crps.subset(bad)
    assert len(crps.subset([])) == 0
    assert crps.subset(np.array([3, 1], dtype=np.uint8)).challenges.tolist() == [
        [1, 1], [0, 1]]


def test_subset_rejects_out_of_range_indices():
    crps = CrpSet([[0, 0], [0, 1], [1, 0]], [[0], [1], [1]])
    # 2**64 - 1 would wrap to -1, the last row, once cast to int64
    for bad in (np.array([2 ** 64 - 1], dtype=np.uint64), [3], [0, -4],
                np.array([2 ** 63], dtype=np.uint64)):
        with pytest.raises(IndexError, match="out of range for 3 rows"):
            crps.subset(bad)
    assert crps.subset([-3, 2]).challenges.tolist() == [[0, 0], [1, 0]]
    assert crps.subset(np.array([2], dtype=np.uint64)).responses.tolist() == [[1]]


def test_crpset_validation():
    with pytest.raises(ValueError):
        CrpSet([[0, 1]], [[1], [0]])               # row mismatch
    with pytest.raises(ValueError):
        CrpSet([[0, 2]], [[1]])                    # non-bit
    with pytest.raises(ValueError):
        CrpSet(np.zeros((1, 0)), [[1]])            # empty words
    with pytest.raises(ValueError):
        CrpSet([[0]], [[1]], {"bad key!": 1})
    with pytest.raises(ValueError):
        CrpSet([[0]], [[1]], {"seed\n": 1})       # key that ends a line
    # a value must come back from save_crps/load_crps as written: one line
    # by str.splitlines, all ASCII
    for value in ("two\nlines", "cr\rlf", "fs\x1csep", "ff\x0c", "tail\n",
                  "caf\u00e9", "\u2028"):
        with pytest.raises(ValueError, match="one line of ASCII"):
            CrpSet([[0]], [[1]], {"note": value})
    with pytest.raises(ValueError):
        CrpSet([0, 1], [[1]])                      # 1-D challenges
    # a fraction or NaN is rejected, not floored to 0
    for bad in ([[0.5, 1]], [[np.nan, 1]], [[0, -1]]):
        with pytest.raises(ValueError, match="challenges bits must be 0 or 1"):
            CrpSet(bad, [[1]])
        with pytest.raises(ValueError, match="responses bits must be 0 or 1"):
            CrpSet([[0, 1]], bad)
    exact = CrpSet([[0.0, 1.0]], [[True]])
    assert exact.challenges.dtype == np.uint8 and exact.challenges.tolist() == [[0, 1]]
    assert exact.responses.dtype == np.uint8 and exact.responses.tolist() == [[1]]
    own = np.array([[0, 1]], dtype=np.uint8)
    crps = CrpSet(own, [[1]])
    own[0, 0] = 1                                  # the set keeps its own copy
    assert crps.challenges.tolist() == [[0, 1]]


# ---------------------------------------------------------------------------
# generation


def test_generate_is_reproducible():
    a = generate_crps(16, 200, width=3, seed=11)
    b = generate_crps(16, 200, width=3, seed=11)
    assert np.array_equal(a.challenges, b.challenges)
    assert np.array_equal(a.responses, b.responses)
    assert a.meta == b.meta
    assert a.meta["seed"] == "11"
    assert a.meta["generator"] == "arbiter-bank"
    c = generate_crps(16, 200, width=3, seed=12)
    assert not np.array_equal(a.responses, c.responses)


def test_generate_default_params_are_delay_params():
    a = generate_crps(8, 20, seed=3)
    b = generate_crps(8, 20, seed=3, params=DelayParams())
    assert np.array_equal(a.challenges, b.challenges)
    assert np.array_equal(a.responses, b.responses)
    assert a.meta == b.meta


def test_generate_shapes_and_validation():
    crps = generate_crps(8, 50, seed=1)
    assert crps.challenges.shape == (50, 8)
    assert crps.responses.shape == (50, 1)
    with pytest.raises(ValueError):
        generate_crps(8, 0, seed=1)


def test_generate_answers_with_the_seeded_bank():
    crps = generate_crps(6, 10, width=4, seed=2)
    assert crps.responses.shape == (10, 4)
    bank = sample_multibit(6, 4, seed=derive_seed(2, 0))
    assert np.array_equal(crps.responses, bank.respond(crps.challenges))


def test_challenges_are_uniform_per_position():
    bits = random_challenges(100_000, 64, seed=7)
    means = bits.mean(axis=0)
    assert means.min() > 0.49 and means.max() < 0.51


# ---------------------------------------------------------------------------
# save / load


def test_save_load_roundtrip(tmp_path):
    crps = generate_crps(12, 120, width=2, seed=99)
    path = tmp_path / "ds.csv"
    save_crps(path, crps)
    back = load_crps(path)
    assert np.array_equal(back.challenges, crps.challenges)
    assert np.array_equal(back.responses, crps.responses)
    assert back.meta == crps.meta


def test_saved_file_layout(tmp_path):
    crps = CrpSet([[1, 0, 1, 0]], [[1, 1]], {"seed": 5, "alpha": "z"})
    path = tmp_path / "ds.csv"
    save_crps(path, crps)
    lines = path.read_text().splitlines()
    assert lines[0] == "# puf-crp v1"
    assert lines[1] == "# challenge_bits=4 response_bits=2"
    assert lines[2] == "# meta alpha=z"       # meta keys sorted
    assert lines[3] == "# meta seed=5"
    assert lines[4] == "challenge_hex,response_hex"
    assert lines[5] == "A,3"


def test_save_is_byte_stable(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_crps(p1, generate_crps(16, 300, width=2, seed=5))
    save_crps(p2, generate_crps(16, 300, width=2, seed=5))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_reports_offending_line(tmp_path):
    crps = generate_crps(8, 5, seed=3)
    path = tmp_path / "ds.csv"
    save_crps(path, crps)
    lines = path.read_text().splitlines()

    bad = lines.copy()
    bad[0] = "# wrong magic"
    (tmp_path / "m.csv").write_text("\n".join(bad) + "\n")
    with pytest.raises(DatasetError, match="line 1"):
        load_crps(tmp_path / "m.csv")

    bad = lines.copy()
    bad[1] = "# challenge_bits=x response_bits=1"
    (tmp_path / "s.csv").write_text("\n".join(bad) + "\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_crps(tmp_path / "s.csv")

    bad = lines.copy()
    bad.insert(2, "# stray comment")
    (tmp_path / "c.csv").write_text("\n".join(bad) + "\n")
    with pytest.raises(DatasetError, match="line 3"):
        load_crps(tmp_path / "c.csv")

    bad = [l for l in lines if l != "challenge_hex,response_hex"]
    (tmp_path / "h.csv").write_text("\n".join(bad) + "\n")
    with pytest.raises(DatasetError, match="challenge_hex,response_hex"):
        load_crps(tmp_path / "h.csv")

    # corrupt the third data row; header block of this file is 6 lines
    data_start = lines.index("challenge_hex,response_hex") + 1
    bad = lines.copy()
    bad[data_start + 2] = "ZZ,0"
    (tmp_path / "x.csv").write_text("\n".join(bad) + "\n")
    with pytest.raises(DatasetError, match=f"line {data_start + 3}"):
        load_crps(tmp_path / "x.csv")

    bad = lines.copy()
    bad[data_start] = "AB"
    (tmp_path / "f.csv").write_text("\n".join(bad) + "\n")
    with pytest.raises(DatasetError, match=f"line {data_start + 1}"):
        load_crps(tmp_path / "f.csv")

    bad = lines.copy()
    bad[data_start + 1] = "\u00c9F,1"
    (tmp_path / "u.csv").write_text("\n".join(bad) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError,
                       match=f"line {data_start + 2}: non-ASCII byte 0xC3"):
        load_crps(tmp_path / "u.csv")

    # rows and the non-ASCII line number come from one split of the bytes
    head = [b"# puf-crp v1", b"# challenge_bits=8 response_bits=1",
            b"challenge_hex,response_hex"]
    (tmp_path / "cr.csv").write_bytes(
        b"\r".join(head + [b"A5,1", b"\xC9F,0", b"3C,1"]) + b"\r")
    with pytest.raises(DatasetError, match="line 5: non-ASCII byte 0xC9"):
        load_crps(tmp_path / "cr.csv")

    # a meta key is set once; its repeat is named at its own line
    (tmp_path / "dup.csv").write_bytes(b"\n".join(
        head[:2] + [b"# meta seed=1", b"# meta seed=2"] + head[2:] + [b"A5,1"])
        + b"\n")
    with pytest.raises(DatasetError, match="line 4: repeated meta key 'seed'"):
        load_crps(tmp_path / "dup.csv")

    # a zero width, and a word prefix of another width, are named at their line
    (tmp_path / "zero.csv").write_bytes(
        b"\n".join([head[0], b"# challenge_bits=0 response_bits=1", head[2]]) + b"\n")
    with pytest.raises(DatasetError, match="^line 2: challenge_bits and "
                                           "response_bits must be >= 1$"):
        load_crps(tmp_path / "zero.csv")
    (tmp_path / "prefix.csv").write_bytes(
        b"\n".join(head + [b"A5,1", b"16hA5,0"]) + b"\n")
    with pytest.raises(DatasetError,
                       match="^line 5: prefix width 16 is not 8 in '16hA5'$"):
        load_crps(tmp_path / "prefix.csv")

    # a form feed is not a line break: strip() drops it from line 4, and the
    # bad row on line 5 is still reported as line 5
    (tmp_path / "ff.csv").write_bytes(
        b"\n".join(head + [b"A5,1\x0c", b"ZZ,0"]) + b"\n")
    with pytest.raises(DatasetError, match="line 5: "):
        load_crps(tmp_path / "ff.csv")
    # blank data rows, between the rows and after them, are skipped
    (tmp_path / "ff_ok.csv").write_bytes(
        b"\n".join(head + [b"A5,1\x0c", b"", b"  ", b"3C,0", b""]) + b"\n")
    crps = load_crps(tmp_path / "ff_ok.csv")
    assert crps.challenges.tolist() == [
        [1, 0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 1, 1, 1, 0, 0]]
    assert crps.responses.tolist() == [[1], [0]]


def test_load_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# puf-crp v1\n"
                    "# challenge_bits=8 response_bits=1\n"
                    "# meta note=empty\n"
                    "challenge_hex,response_hex\n")
    crps = load_crps(path)
    assert len(crps) == 0
    assert crps.challenge_bits == 8
    assert crps.meta == {"note": "empty"}


# ---------------------------------------------------------------------------
# splitting


def test_split_sizes_frozen():
    crps = generate_crps(8, 100, seed=1)
    train, test = split_crps(crps, 0.25, seed=2)
    assert (len(train), len(test)) == (75, 25)
    crps = generate_crps(8, 750, seed=1)
    train, test = split_crps(crps, 0.15, seed=2)
    assert (len(train), len(test)) == (638, 112)


def test_split_is_seeded_partition():
    crps = generate_crps(10, 80, seed=4)
    tr1, te1 = split_crps(crps, 0.3, seed=9)
    tr2, te2 = split_crps(crps, 0.3, seed=9)
    assert np.array_equal(te1.challenges, te2.challenges)
    assert np.array_equal(tr1.challenges, tr2.challenges)
    # every original row appears exactly once across the two parts
    union = np.vstack([tr1.challenges, te1.challenges])
    assert np.array_equal(np.sort(union.view("V10").ravel()),
                          np.sort(crps.challenges.view("V10").ravel()))
    _, te3 = split_crps(crps, 0.3, seed=10)
    assert not np.array_equal(te1.challenges, te3.challenges)


def test_split_validation():
    crps = generate_crps(8, 10, seed=1)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split_crps(crps, bad, seed=1)
    single = crps.subset([0])
    with pytest.raises(ValueError, match="no training rows"):
        split_crps(single, 0.5, seed=1)


# ---------------------------------------------------------------------------
# lenient import


def test_import_rejects_bad_rows_with_line_numbers():
    crps, rejected = import_hex_rows(LOGGED_ROWS, 64, 64)
    assert [line for line, _ in rejected] == list(BAD_LINES)
    for _, reason in rejected:
        assert "17" in reason and "64" in reason
    assert len(crps) == 6
    got = [format_hex_word(c) for c in crps.challenges]
    assert got == GOOD_CHALLENGES
    assert format_hex_word(crps.responses[0]) == "FF00FF0000FF00FF"
    assert crps.challenge_bits == 64 and crps.response_bits == 64


def test_import_from_file(tmp_path):
    path = tmp_path / "logged.txt"
    path.write_text("\n".join(LOGGED_ROWS) + "\n")
    crps, rejected = import_hex_rows(path, 64, 64)
    assert [line for line, _ in rejected] == list(BAD_LINES)
    assert len(crps) == 6


def test_import_from_bytes_path(tmp_path):
    # a bytes path names a file, as for open() and load_crps
    path = tmp_path / "one.txt"
    path.write_text("64h9283c630815977c\tFF00FF0000FF00FF\n")
    crps, rejected = import_hex_rows(bytes(path), 64, 64)
    assert rejected == []
    assert [format_hex_word(c) for c in crps.challenges] == ["09283C630815977C"]


def test_import_from_file_rejects_only_the_non_ascii_row(tmp_path):
    path = tmp_path / "logged.txt"
    path.write_text("# captured at 20\u00b0C\n0,1\n\u00c9F,1\n3,0\n",
                    encoding="utf-8")
    crps, rejected = import_hex_rows(path, 8, 1)
    assert [line for line, _ in rejected] == [3]
    assert "invalid hex character" in rejected[0][1]
    assert crps.challenges.tolist() == [[0] * 8, [0] * 6 + [1, 1]]
    assert crps.responses.tolist() == [[1], [0]]


def test_import_skips_comments_and_blanks():
    rows = ["# captured 2026-01-01", "", "64h9283c630815977c  FF00FF0000FF00FF",
            "   ", "200fbac6d9bb7303,0000FFFFFF00FF00"]
    crps, rejected = import_hex_rows(rows, 64, 64)
    assert rejected == []
    assert len(crps) == 2


def test_import_rejects_a_prefix_of_another_width():
    rows = ["32h0000ABCD\t1", "64h0000ABCD\t1"]
    crps, rejected = import_hex_rows(rows, 64, 1)
    assert rejected == [(1, "prefix width 32 is not 64 in '32h0000ABCD'")]
    assert [format_hex_word(c) for c in crps.challenges] == ["000000000000ABCD"]
    # a prefix too long for int() is rejected as that one row, not raised
    huge = "9" * 5000 + "hABCD"
    crps, rejected = import_hex_rows([huge + "\t1", "064hABCD\t1"], 64, 1)
    assert rejected == [(1, f"prefix width {'9' * 5000} is not 64 in {huge!r}")]
    assert len(crps) == 1


def test_import_never_keeps_half_a_row():
    rows = ["64h9283c630815977c\tZZZZ",        # good challenge, bad response
            "notahexword\tFF00FF0000FF00FF",   # bad challenge, good response
            "FF00FF0000FF00FF",                # one column
            "a b c"]                           # three columns
    crps, rejected = import_hex_rows(rows, 64, 64)
    assert len(crps) == 0
    assert [line for line, _ in rejected] == [1, 2, 3, 4]


def test_import_all_rows_good():
    rows = ["0,1", "3,0", "F,1"]
    crps, rejected = import_hex_rows(rows, 4, 1)
    assert rejected == []
    assert crps.challenges.tolist() == [[0, 0, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]]
    assert crps.responses.tolist() == [[1], [0], [1]]
