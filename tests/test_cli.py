"""Command line behaviour: outputs, config handling, exit codes."""

import re
import shutil
import subprocess
import sys

import pytest

import puflab.core
from puflab.cli import main
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
