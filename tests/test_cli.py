"""Command line behaviour: outputs, config handling, exit codes."""

import random
import re
import shutil
import subprocess
import sys

import pytest

import puflab.cli
import puflab.core
from puflab.cli import COMMANDS, main
from puflab.crp import load_crps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_dataset(tmp_path, capsys):
    out = tmp_path / "ds.csv"
    code, stdout, _ = run(capsys, "generate", "--n", "16", "--count", "300",
                          "--seed", "9", "-o", str(out))
    assert code == 0
    assert f"wrote {out}: 300 rows" in stdout
    assert "challenge_bits=16 response_bits=1" in stdout
    assert "seed=9" in stdout
    crps = load_crps(out)
    assert len(crps) == 300
    assert crps.meta["seed"] == "9"


def test_generate_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["generate", "--n", "24", "--chains", "2", "--count", "150",
            "--seed", "12"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_generate_validation_errors(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--n", "16", "--count", "0",
                       "-o", str(tmp_path / "x.csv"))
    assert code == 1
    assert "puflab: error:" in err and "--count" in err
    code, _, err = run(capsys, "generate", "--count", "5",
                       "-o", str(tmp_path / "x.csv"))
    assert code == 1 and "--n" in err
    code, _, err = run(capsys, "generate", "--n", "16", "--count", "5",
                       "--delay-sigma", "0", "-o", str(tmp_path / "x.csv"))
    assert code == 1
    # joined with '=', since argparse reads a separate '-inf' as an option
    for flag in ("--noise-sigma", "--delay-mean", "--delay-sigma"):
        for value in ("nan", "inf", "-inf"):
            code, _, err = run(capsys, "generate", "--n", "16", "--count", "5",
                               f"{flag}={value}", "-o", str(tmp_path / "x.csv"))
            assert code == 1
            assert err == f"puflab: error: bad value for {flag}: must be finite\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command,flag,value,reason", [
    ("generate", "--count", "0", "must be >= 1"),
    ("generate", "--seed", "-1", "must be >= 0"),
    ("generate", "--delay-sigma", "0", "must be > 0"),
    ("generate", "--noise-sigma", "-1", "must be >= 0"),
    ("attack", "--test", "1", "must be strictly between 0 and 1"),
    ("generate", "--count", "2.5",
     "invalid literal for int() with base 10: '2.5'"),
    ("generate", "--delay-sigma", "abc",
     "could not convert string to float: 'abc'"),
    ("generate", "--delay-mean", "nan", "must be finite"),
    ("generate", "--noise-sigma", "inf", "must be finite"),
    ("attack", "--test", "nan", "must be finite"),
])
def test_number_option_error_lines(tmp_path, capsys, command, flag, value,
                                   reason):
    out = tmp_path / "x.csv"
    argv = ([command, str(out)] if command == "attack"
            else [command, "--n", "16", "--count", "5", "-o", str(out)])
    code, stdout, err = run(capsys, *argv, flag, value)
    assert code == 1 and stdout == ""
    assert err == f"puflab: error: bad value for {flag}: {reason}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# attack


@pytest.fixture(scope="module")
def big_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "big.csv"
    assert main(["generate", "--n", "64", "--count", "3000", "--seed", "4242",
                 "-o", str(path)]) == 0
    return path


def test_attack_learns_and_reports(big_dataset, tmp_path, capsys):
    report_path = tmp_path / "report.csv"
    code, stdout, _ = run(capsys, "attack", str(big_dataset), "--test", "0.15",
                          "--seed", "7", "-o", str(report_path))
    assert code == 0
    lines = stdout.splitlines()
    assert f"# dataset={big_dataset}" in lines
    assert "# features=parity" in lines
    assert "# test=0.15" in lines
    header = "crps,test_fraction,feature_map,mean_rate,word_exact_rate"
    row = lines[lines.index(header) + 1]
    fields = row.split(",")
    assert fields[0] == "3000" and fields[2] == "parity"
    assert float(fields[3]) >= 0.95
    # the CSV artifact repeats exactly the echo + table that went to stdout
    saved = report_path.read_text().splitlines()
    assert saved == [l for l in lines if l.startswith("#") or "," in l]


def test_seedless_runs_echo_a_dash_for_the_seed(tmp_path, capsys):
    out = tmp_path / "throwaway.csv"
    code, stdout, _ = run(capsys, "generate", "--n", "8", "--count", "40",
                          "-o", str(out))
    assert code == 0 and stdout.rstrip("\n").endswith(", seed=-")
    code, stdout, _ = run(capsys, "attack", str(out), "--epochs", "5")
    assert code == 0 and "# seed=-" in stdout.splitlines()


def test_attack_word_dataset_prints_per_bit_range(tmp_path, capsys):
    ds = tmp_path / "w.csv"
    assert main(["generate", "--n", "16", "--chains", "4", "--count", "400",
                 "--seed", "21", "-o", str(ds)]) == 0
    code, stdout, _ = run(capsys, "attack", str(ds), "--seed", "5")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[-3].startswith("per-bit rate: min")
    assert lines[-2].startswith("epochs: ") and lines[-2].endswith(" stalled")
    assert re.fullmatch(r"final loss: min \S+ max \S+", lines[-1])
    # how training ended, from AttackReport.epochs_run
    code, stdout, _ = run(capsys, "attack", str(ds), "--seed", "5",
                          "--epochs", "40", "--tol", "0")
    assert code == 0
    assert stdout.splitlines()[-2] == ("epochs: 4/4 bits at the 40-epoch cap; "
                                       "0 stalled")
    # no epoch improves the loss by 10, so every bit stops after its first
    code, stdout, _ = run(capsys, "attack", str(ds), "--seed", "5", "--tol", "10")
    assert code == 0
    assert stdout.splitlines()[-2] == ("epochs: 0/4 bits at the 500-epoch cap; "
                                       "4 stalled")


def test_attack_says_when_a_fit_diverged(tmp_path, capsys):
    """A bit whose final loss is above ln 2, the zero vector's loss that every
    fit starts from, is counted as diverged; the count shows only when > 0."""
    ds = tmp_path / "w.csv"
    assert main(["generate", "--n", "16", "--chains", "4", "--count", "400",
                 "--seed", "21", "-o", str(ds)]) == 0
    fits = {("--lr=8",): "4 stalled; 2 diverged",   # ln 2 - 0.020 to ln 2 + 0.0076
            ("--lr=1e5",): "4 stalled; 4 diverged",
            # a step that rounds to zero keeps ln 2, up to the mean's rounding
            ("--lr=5e-324",): "4 stalled",
            (): "4 stalled",
            ("--features=parity",): "cap; 0 stalled"}
    for argv, ending in fits.items():
        code, stdout, _ = run(capsys, "attack", str(ds), "--seed", "5",
                              "--features=raw", *argv)
        assert code == 0
        epochs_line = stdout.splitlines()[-2]
        assert epochs_line.startswith("epochs: ") and epochs_line.endswith(ending)


def test_attack_usage_and_data_errors(big_dataset, tmp_path, capsys):
    code, _, err = run(capsys, "attack", str(big_dataset), "--test", "1.5")
    assert code == 1 and "--test" in err
    code, _, err = run(capsys, "attack", str(tmp_path / "missing.csv"))
    assert code == 2 and "data error" in err
    code, _, err = run(capsys, "attack", "")
    assert (code, err) == (1, "puflab: error: bad value for dataset: empty path\n")
    code, _, err = run(capsys, "attack", str(big_dataset), "--features", "fft")
    assert code == 1 and "must be 'raw' or 'parity'" in err
    for flag in ("--lr", "--l2", "--tol", "--test"):
        for value in ("nan", "inf"):
            code, _, err = run(capsys, "attack", str(big_dataset), flag, value)
            assert code == 1 and flag in err and "finite" in err


def test_attack_reports_malformed_line(tmp_path, capsys):
    ds = tmp_path / "ok.csv"
    assert main(["generate", "--n", "8", "--count", "5", "--seed", "3",
                 "-o", str(ds)]) == 0
    capsys.readouterr()
    lines = ds.read_text().splitlines()
    data_start = lines.index("challenge_hex,response_hex") + 1
    lines[data_start + 2] = "ZZ,0"
    ds.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "attack", str(ds))
    assert code == 2
    assert f"line {data_start + 3}" in err
    lines[data_start + 2] = "\u00c9F,1"
    ds.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "attack", str(ds))
    assert code == 2
    assert f"data error: line {data_start + 3}: non-ASCII" in err


def test_attack_echoes_every_path_as_one_ascii_line(tmp_path, capsys):
    ds = tmp_path / "donn\u00e9es\n.csv"
    code, stdout, _ = run(capsys, "generate", "--n", "8", "--count", "40",
                          "--seed", "3", "-o", str(ds))
    assert code == 0
    assert stdout == (f"wrote {tmp_path}/donn\\xe9es\\n.csv: 40 rows, "
                      "challenge_bits=8 response_bits=1, seed=3\n")
    report = tmp_path / "rep.csv"
    code, stdout, _ = run(capsys, "attack", str(ds), "--seed", "1",
                          "-o", str(report))
    assert code == 0
    lines = stdout.splitlines()
    assert f"# dataset={tmp_path}/donn\\xe9es\\n.csv" in lines
    assert report.read_text(encoding="ascii").splitlines() == [
        l for l in lines if l.startswith("#") or "," in l]
    # printable ASCII echoes unchanged, quotes and backslashes included
    plain = tmp_path / "it's \\ \"plain\".csv"
    plain.write_bytes(ds.read_bytes())
    code, stdout, _ = run(capsys, "attack", str(plain), "--seed", "1")
    assert code == 0 and f"# dataset={plain}" in stdout.splitlines()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_cell(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(capsys, "sweep", "--n", "16", "--counts", "200",
                          "--fractions", "0.25", "--seed", "5", "-o", str(out))
    assert code == 0
    lines = stdout.splitlines()
    header = "crps,test_fraction,feature_map,mean_rate,word_exact_rate"
    assert header in lines
    row = lines[lines.index(header) + 1]
    assert row.startswith("200,0.25,parity,")
    assert any(l.strip().startswith("crps") and "0.25" in l for l in lines)
    assert any(l.startswith("mean rate over 1 cells:") for l in lines)
    assert "# counts=200" in lines


def test_sweep_rejects_an_empty_count_list(capsys):
    code, stdout, err = run(capsys, "sweep", "--n", "8", "--counts", "")
    assert code == 1 and stdout == ""
    assert err == "puflab: error: bad value for --counts: empty list\n"


def test_sweep_prints_how_its_fits_ended(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--n", "16", "--chains", "2", "--counts", "150,300",
            "--fractions", "0.2,0.3", "--seed", "31", "-o", str(out)]
    # no epoch improves the loss by 10, so every fit stops after its first
    code, stdout, _ = run(capsys, *args, "--tol", "10")
    assert code == 0
    assert stdout.splitlines()[-2] == ("epochs: 0/8 bit fits at the 500-epoch "
                                       "cap; 8 stalled")
    assert "epochs:" not in out.read_text()
    assert "final loss" not in out.read_text()
    code, stdout, _ = run(capsys, *args, "--epochs", "30", "--tol", "0")
    assert code == 0
    assert stdout.splitlines()[-2] == ("epochs: 8/8 bit fits at the 30-epoch "
                                       "cap; 0 stalled")


def test_sweep_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--n", "16", "--chains", "2", "--counts", "150,300",
            "--fractions", "0.2", "--seed", "31"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert sum(1 for l in a.read_text().splitlines()
               if not l.startswith("#")) == 3  # header + two cells


# ---------------------------------------------------------------------------
# metrics


def test_metrics_noise_free_run(tmp_path, capsys):
    out = tmp_path / "quality.txt"
    code, stdout, _ = run(capsys, "metrics", "--n", "8", "--instances", "3",
                          "--challenges", "30", "--seed", "3", "-o", str(out))
    assert code == 0
    assert "reliability  1.0000" in stdout
    assert "instances    3" in stdout
    assert out.read_text().splitlines() == stdout.splitlines()


def test_metrics_seedless_run_prints_its_master_seed(capsys):
    args = ["metrics", "--n", "16", "--instances", "3", "--challenges", "50",
            "--repeats", "2", "--noise-sigma", "0.3"]
    code, first, _ = run(capsys, *args)
    assert code == 0
    seed = next(line.split()[1] for line in first.splitlines()
                if line.startswith("seed "))
    assert seed != "-"
    code, again, _ = run(capsys, *args, "--seed", seed)
    assert code == 0 and again == first


def test_metrics_validation(capsys):
    code, _, err = run(capsys, "metrics", "--n", "8", "--instances", "1",
                       "--challenges", "30", "--seed", "3")
    assert code == 1 and "two instances" in err
    code, _, err = run(capsys, "metrics", "--n", "8", "--instances", "3",
                       "--challenges", "30", "--noise-sigma", "0.5",
                       "--repeats", "1", "--seed", "3")
    assert code == 1 and "two repeats" in err
    code, _, err = run(capsys, "metrics", "--n", "8", "--instances", "3",
                       "--challenges", "30", "--noise-sigma", "nan",
                       "--seed", "3")
    assert code == 1 and "--noise-sigma" in err


STUDY = ["metrics", "--n", "8", "--chains", "2", "--instances", "3",
         "--challenges", "50"]


@pytest.mark.parametrize("argv", [
    STUDY + ["--delay-sigma", "1e308"],
    ["generate", "--n", "64", "--chains", "4", "--count", "200",
     "--delay-sigma", "1e307"],
    STUDY + ["--delay-mean", "1e308"],
], ids=["metrics-delay-sigma", "generate-delay-sigma", "metrics-delay-mean"])
def test_delays_past_the_overflow_bound_are_rejected(tmp_path, capsys, argv):
    out = tmp_path / "f"
    code, stdout, err = run(capsys, *argv, "--seed", "1", "-o", str(out))
    assert (code, stdout) == (1, "")
    assert err == ("puflab: error: delays must be finite with "
                   "|d| < float max / (4n + 4)\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--count", "5"],
    ["sweep", "--counts", "5"],
    ["metrics", "--instances", "2", "--challenges", "5"],
], ids=lambda argv: argv[0])
def test_bank_wider_than_an_array_index_is_rejected(tmp_path, capsys, argv):
    out = tmp_path / "f"
    code, stdout, err = run(capsys, *argv, "--n", "4", "--chains", str(2 ** 63),
                            "-o", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"puflab: error: width must be >= 1 and <= {2 ** 63 - 1}\n"
    assert not out.exists()


NUMPY_OOM = ("Unable to allocate 3.64 TiB for an array with shape (1000000000000, 4) "
             "and data type uint8")


@pytest.mark.parametrize("exc,reason", [(MemoryError(NUMPY_OOM), NUMPY_OOM),
                                        (MemoryError(), "out of memory")],
                         ids=["numpy", "bare"])
@pytest.mark.parametrize("target,argv", [
    ("generate_crps", ["generate", "--n", "4", "--count", "1000000000000", "-o", "f"]),
    ("generate_crps", ["sweep", "--n", "4", "--counts", "1000000000000"]),
    ("evaluate_quality", ["metrics", "--n", "4", "--chains", "1000000000000",
                          "--instances", "2", "--challenges", "5"]),
], ids=["generate", "sweep", "metrics"])
def test_size_too_large_for_memory_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                     target, argv, exc, reason):
    """A size that fits an array index but not in memory exits 1 with one error
    line, not a traceback.  The failed allocation is faked: under overcommit a
    real one of terabytes can succeed and get the process killed later."""
    def allocate(*args, **kwargs):
        raise exc
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(puflab.cli, target, allocate)
    assert run(capsys, *argv) == (1, "", f"puflab: error: {reason}\n")
    assert not (tmp_path / "f").exists()


def test_unwritable_out_path_is_a_data_error(tmp_path, capsys, monkeypatch):
    """An -o path that is a directory, or whose parent is missing, exits 2
    with open's own message before any command computes or prints anything."""
    def never(*args, **kwargs):
        raise AssertionError("the command started its work")
    for name in ("generate_crps", "load_crps", "evaluate_quality"):
        monkeypatch.setattr(puflab.cli, name, never)
    commands = (["generate", "--n", "8", "--count", "5"],
                ["attack", str(tmp_path / "d.csv")],
                ["sweep", "--n", "8", "--counts", "20"],
                STUDY)
    for out, why in ((tmp_path, "[Errno 21] Is a directory"),
                     (tmp_path / "missing" / "f", "[Errno 2] No such file or directory")):
        for argv in commands:
            code, stdout, err = run(capsys, *argv, "--seed", "1", "-o", str(out))
            assert (code, stdout, err) == (2, "", f"puflab: data error: {why}: "
                                                  f"{str(out)!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_extreme_delays_and_noise_run_without_warnings(tmp_path, capsys):
    """Delays inside the bound at 64 stages, and noise whose products overflow
    to +-inf, run warning-free: pyproject's filterwarnings fail on any."""
    for argv in (["generate", "--n", "64", "--chains", "4", "--count", "200",
                  "--delay-sigma", "1e305"],
                 ["metrics", "--n", "64", "--chains", "4", "--instances", "3",
                  "--challenges", "50", "--delay-sigma", "1e305",
                  "--noise-sigma", "1"],
                 ["generate", "--n", "16", "--chains", "4", "--count", "200",
                  "--noise-sigma", "1e308"],
                 STUDY + ["--noise-sigma", "1e308"]):
        code, _, err = run(capsys, *argv, "--seed", "1", "-o", str(tmp_path / "x"))
        assert (code, err) == (0, "")


def test_negative_exponent_needs_the_equals_form(tmp_path, capsys):
    """argparse reads a separate '-1e3' as an option, so it needs '='."""
    argv = ["generate", "--n", "8", "--count", "5", "-o", str(tmp_path / "x")]
    code, _, err = run(capsys, *argv, "--delay-mean", "-1e3")
    assert (code, err) == (1, "puflab: error: argument --delay-mean: "
                              "expected one argument\n")
    code, _, _ = run(capsys, *argv, "--delay-mean=-1e3")
    assert code == 0


FUZZ_FREE = ("0", "-1", "1e308", "inf", "nan", "", str(2 ** 63), str(2 ** 64), "-1e3")
FUZZ_SIZE = ("0", "-1", "1", "2", "3", "", "nan", str(2 ** 63), str(2 ** 64))
FUZZ_LOOP = FUZZ_SIZE[:-2]   # a loop count is work, so only small values
FUZZ_SIZES = {"n", "chains", "count", "counts", "instances", "challenges", "repeats"}
FUZZ_BASE = {   # a valid tiny run of each command, which the fuzz then overrides
    "generate": ["--n", "3", "--count", "3", "-o", "out"],
    "attack": ["data", "--epochs", "2"],
    "sweep": ["--n", "3", "--counts", "8", "--fractions", "0.5", "--epochs", "2"],
    "metrics": ["--n", "3", "--instances", "2", "--challenges", "3", "--repeats", "2"],
    "oracle-check": ["--n", "2", "--chains", "1", "--random-count", "2"],
}


def _fuzz_values(command, opt):
    if opt.name in ("epochs", "random-count") or (command, opt.name) == (
            "oracle-check", "chains"):
        return FUZZ_LOOP
    return FUZZ_SIZE if opt.name in FUZZ_SIZES else FUZZ_FREE


def test_seeded_cli_fuzz(tmp_path, capsys, monkeypatch):
    """Tiny runs of every command end in exit 0 or 1, never an exception or a
    warning: first with each option set to each boundary value alone, then
    with two or three options set at random, 500 runs in all."""
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--n", "3", "--count", "20", "--seed", "1",
                 "-o", "data"]) == 0
    ops = [(command, [(opt, value)]) for command, (opts, *_) in COMMANDS.items()
           for opt in opts for value in _fuzz_values(command, opt)]
    rnd = random.Random(27)
    while len(ops) < 500:
        command = rnd.choice(sorted(COMMANDS))
        opts = rnd.sample(COMMANDS[command][0], rnd.randint(2, 3))
        ops.append((command, [(o, rnd.choice(_fuzz_values(command, o))) for o in opts]))
    for command, settings in ops:
        argv = [command, *FUZZ_BASE[command],
                *(f"--{opt.name}={value}" for opt, value in settings)]
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 1), argv
        capsys.readouterr()


FUZZ_BYTES = b"0123456789ABCDEFafhxG,#=' \t\r\n\x0b\x0c\x1c\x1e\x00\xc9"


def test_seeded_dataset_fuzz(tmp_path, capsys):
    """300 copies of a tiny dataset, each with 1-4 seeded byte edits (a byte
    replaced, inserted or deleted), go through ``attack``: each exits 0, 1 or
    2 without raising, each exit 2 names its line, and a file that exits 1
    loads, so every malformed file exits 2.  Only bytes after the
    ``# challenge_bits=`` line are edited: an edited width could ask for a
    word of gigabytes, which a test must not allocate."""
    clean = tmp_path / "clean.csv"
    assert main(["generate", "--n", "8", "--chains", "3", "--count", "12",
                 "--seed", "1", "--noise-sigma", "0.5", "-o", str(clean)]) == 0
    capsys.readouterr()
    data = clean.read_bytes()
    head = data.index(b"\n", data.index(b"# challenge_bits=")) + 1
    rnd = random.Random(31)
    codes = []
    for op in range(300):
        body = bytearray(data[head:])
        for _ in range(rnd.randint(1, 4)):
            at = rnd.randrange(len(body) + 1)
            byte = rnd.choice([rnd.randrange(256), rnd.choice(FUZZ_BYTES)])
            edit = rnd.randrange(3)
            if edit == 0 or not body:
                body.insert(at, byte)
            elif edit == 1:
                body[at - 1] = byte
            else:
                del body[at - 1]
        path = tmp_path / f"f{op}.csv"
        path.write_bytes(data[:head] + body)
        try:
            code = main(["attack", str(path), "--epochs", "2"])
        except Exception as exc:
            pytest.fail(f"{bytes(body)!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), bytes(body)
        if code == 2:
            assert re.match(r"puflab: data error: line \d+: ", err), (bytes(body), err)
        if code == 1:   # a usage error, such as a split with no rows left to train
            load_crps(path)
        codes.append(code)
    assert {0, 2} <= set(codes)


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_tiny_exhaustive(capsys):
    code, stdout, _ = run(capsys, "oracle-check", "--n", "1", "--chains", "1")
    assert code == 0
    assert "0 mismatches / 2 checks" in stdout


def test_oracle_check_default_scope(capsys):
    code, stdout, _ = run(capsys, "oracle-check", "--chains", "1",
                          "--random-count", "50")
    assert code == 0
    lines = stdout.splitlines()
    assert any(l.startswith("n=1:") for l in lines)
    assert any(l.startswith("n=12:") for l in lines)
    assert "n=64: 1 chains x 50 challenges (random), 0 disagreements" in lines
    assert lines[-1].endswith("mismatches / 8240 checks")  # 2^1..2^12 + 50
    # the random pass runs at 64 stages; no option sets another width
    code, stdout, err = run(capsys, "oracle-check", "--random-width", "64")
    assert code == 1 and stdout == ""
    assert err.startswith("puflab: error: unrecognized arguments: --random-width")


def test_oracle_check_random_count_zero(capsys):
    # above 16 stages the random pass is the only one, so it cannot be empty
    code, stdout, err = run(capsys, "oracle-check", "--n", "20", "--chains", "1",
                            "--random-count", "0")
    assert code == 1 and stdout == ""
    assert err == ("puflab: error: --random-count must be >= 1 when --n is "
                   "above 16\n")
    code, stdout, _ = run(capsys, "oracle-check", "--n", "20", "--chains", "1",
                          "--random-count", "3")
    assert code == 0 and stdout.splitlines()[-1] == "0 mismatches / 3 checks"
    # without --n a zero count skips the random pass
    code, stdout, _ = run(capsys, "oracle-check", "--chains", "1",
                          "--random-count", "0")
    assert code == 0
    assert not any("challenges (random)" in l for l in stdout.splitlines())
    assert stdout.splitlines()[-1] == "0 mismatches / 8190 checks"


def test_oracle_check_corrupt_hook_names_culprits(capsys, monkeypatch):
    # oracle-check's bank folds its stacked chains through core._fold
    fold = puflab.core._fold
    monkeypatch.setattr(puflab.core, "_fold", lambda delays: -fold(delays))
    code, stdout, _ = run(capsys, "oracle-check", "--n", "2", "--chains", "1")
    assert code == 3
    assert "mismatch: n=2 chain_seed=" in stdout
    assert "challenge=" in stdout
    assert "4 mismatches / 4 checks" in stdout


# ---------------------------------------------------------------------------
# config files and plumbing


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("# dataset recipe\n"
                   "n = 16\n"
                   "count = 300\n"
                   "noise-sigma = 0.0\n"
                   "seed = 9\n")
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    code, _, _ = run(capsys, "generate", "--config", str(cfg), "-o", str(out1))
    assert code == 0
    assert len(load_crps(out1)) == 300
    # explicit flags beat the file
    code, _, _ = run(capsys, "generate", "--config", str(cfg),
                     "--count", "120", "-o", str(out2))
    assert code == 0
    assert len(load_crps(out2)) == 120
    # a UTF-8 byte-order mark before the first key is not part of it
    cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    code, _, err = run(capsys, "generate", "--config", str(cfg), "-o", str(out1))
    assert (code, err) == (0, "")
    assert len(load_crps(out1)) == 300


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 16\nbogus = 1\n")
    code, _, err = run(capsys, "generate", "--config", str(cfg), "--count",
                       "5", "-o", str(tmp_path / "x.csv"))
    assert code == 1 and "bogus" in err
    cfg.write_text("just words\n")
    code, _, err = run(capsys, "generate", "--config", str(cfg), "--count",
                       "5", "-o", str(tmp_path / "x.csv"))
    assert code == 1 and "key = value" in err
    # a form feed ends no line, so the bad line is numbered as an editor shows it
    cfg.write_bytes(b"n = 8\x0c\nbogus line\n")
    code, _, err = run(capsys, "generate", "--config", str(cfg), "--count",
                       "5", "-o", str(tmp_path / "x.csv"))
    assert code == 1 and f"{cfg}:2: expected 'key = value'" in err
    cfg.write_bytes(b"n = 8\ncount = 5 # caf\xe9\n")
    code, _, err = run(capsys, "generate", "--config", str(cfg),
                       "-o", str(tmp_path / "x.csv"))
    assert code == 1 and f"{cfg}:2: not UTF-8" in err
    code, _, err = run(capsys, "generate", "--config",
                       str(tmp_path / "nope.cfg"), "--count", "5",
                       "-o", str(tmp_path / "x.csv"))
    assert code == 1 and "cannot read config" in err


def test_config_file_rejects_duplicate_keys(tmp_path, capsys):
    # a key set twice, even spelled once with dashes, names its second line,
    # also when a flag would override the file
    cfg = tmp_path / "twice.cfg"
    for text, key in (("n = 8\nn = 16\n", "n"),
                      ("delay-mean = 9\n# again\ndelay_mean = 11\n", "delay_mean")):
        cfg.write_text(text)
        code, _, err = run(capsys, "generate", "--config", str(cfg), "--n", "8",
                           "--count", "5", "-o", str(tmp_path / "x.csv"))
        line = text.count("\n")
        assert code == 1 and f"{cfg}:{line}: duplicate key {key!r}" in err
    assert not (tmp_path / "x.csv").exists()


def test_no_command_prints_help(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "generate" in err and "oracle-check" in err


def test_unknown_command_and_flag(capsys):
    assert run(capsys, "explode")[0] == 1
    assert run(capsys, "generate", "--wat", "1")[0] == 1


def test_help_states_each_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    pages = {}
    for command in ("generate", "attack", "sweep", "metrics", "oracle-check"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        pages[command] = " ".join(capsys.readouterr().out.split())
    assert "challenge bits (stages per chain) (required)" in pages["generate"]
    assert "dataset sizes; prefixes of one drawn dataset (default 750,1650,2850,4920)" \
        in pages["sweep"]
    for command in ("attack", "sweep"):
        assert "'parity' or 'raw' (default parity)" in pages[command]
    for command in ("generate", "sweep", "metrics"):
        assert "per-path delay distribution (default 10.0)" in pages[command]
    assert "seed for the train/test split" in pages["attack"]
    assert "seed for the train/test split (" not in pages["attack"]


# ---------------------------------------------------------------------------
# installed entry points


def test_console_script_smoke():
    exe = shutil.which("puflab")
    assert exe, "puflab console script not on PATH"
    proc = subprocess.run([exe, "oracle-check", "--n", "1", "--chains", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0 mismatches / 2 checks" in proc.stdout


def test_module_entry_smoke():
    proc = subprocess.run([sys.executable, "-m", "puflab.cli", "oracle-check",
                           "--n", "1", "--chains", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0 mismatches / 2 checks" in proc.stdout
