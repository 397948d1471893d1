"""End-to-end acceptance gates.

Seven checks covering simulator/linear-model equivalence, attack strength,
near-chance controls, numerics, population statistics, persistence and CLI
reproducibility.  Each prints one PASS/FAIL line with the measured numbers
(visible with ``pytest -s``) before asserting, and the slow ones enforce a
wall-clock budget.
"""

import os
import subprocess
import sys
import time

import numpy as np

from puflab.attack import (attack_dataset, attack_grid, cross_entropy, gradient,
                           sigmoid)
from puflab.bits import format_hex_word, parse_hex_word
from puflab.core import (all_challenges, derive_seed, linear_disagreements,
                         random_challenges, sample_chain)
from puflab.crp import generate_crps, import_hex_rows, load_crps, save_crps
from puflab.metrics import evaluate_quality

from test_crp import BAD_LINES, GOOD_CHALLENGES, LOGGED_ROWS


def _verdict(tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_race_equals_linear_model():
    t0 = time.perf_counter()
    bad = 0
    pairs = 0
    for n in range(1, 13):
        chal = all_challenges(n)
        for idx in range(100):
            chain = sample_chain(n, seed=derive_seed(101, n, idx))
            bad += len(linear_disagreements(chain, chal))
            pairs += len(chal)
    chal64 = random_challenges(10_000, 64, seed=derive_seed(101, 64))
    for idx in range(100):
        chain = sample_chain(64, seed=derive_seed(101, 64, idx))
        bad += len(linear_disagreements(chain, chal64))
        pairs += len(chal64)
    elapsed = time.perf_counter() - t0
    _verdict("criterion 1", bad == 0 and elapsed < 20.0,
             f"{bad} disagreements / {pairs} paired evaluations "
             f"in {elapsed:.1f}s (budget 20s)")


def test_criterion_2_parity_attack_beats_95_percent():
    t0 = time.perf_counter()
    crps = generate_crps(64, 4920, width=1, seed=4242)
    report = attack_dataset(crps, test_fraction=0.15, feature="parity", seed=7)
    elapsed = time.perf_counter() - t0
    held_out = int(np.floor(0.15 * 4920))
    _verdict("criterion 2", report.mean_rate >= 0.95 and elapsed < 30.0,
             f"parity rate {report.mean_rate:.4f} >= 0.95 on {held_out} "
             f"held-out of 4920 in {elapsed:.1f}s (budget 30s)")


def test_criterion_3_raw_attack_on_64bit_words_stays_near_chance():
    t0 = time.perf_counter()
    seed = 20260815
    full = generate_crps(64, 4920, width=64, seed=seed)
    # the grid of `puflab sweep --n 64 --chains 64 --features raw --seed 20260815`
    grid = attack_grid(full, (750, 1650, 2850, 4920), (0.15, 0.25, 0.35),
                       seed=seed, feature="raw")
    cells = [report.mean_rate for row in grid for report in row]
    elapsed = time.perf_counter() - t0
    grid_mean = float(np.mean(cells))
    in_band = sum(0.40 <= c <= 0.65 for c in cells)
    ok = (in_band == 12 and 0.45 <= grid_mean <= 0.60 and elapsed < 60.0)
    _verdict("criterion 3", ok,
             f"{in_band}/12 cell means in [0.40,0.65] "
             f"(span {min(cells):.4f}..{max(cells):.4f}), grid mean "
             f"{grid_mean:.4f} in [0.45,0.60], {elapsed:.1f}s (budget 60s)")


def test_criterion_4_gradient_and_sigmoid_numerics():
    rng = np.random.default_rng(606)
    from puflab.features import feature_matrix
    X = feature_matrix(rng.integers(0, 2, size=(50, 12)))
    y = rng.integers(0, 2, size=50).astype(float)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        w = rng.normal(scale=1.5, size=13)
        ana = gradient(w, X, y)
        fd = np.empty_like(ana)
        for i in range(w.size):
            e = np.zeros_like(w)
            e[i] = h
            fd[i] = (cross_entropy(w + e, X, y)
                     - cross_entropy(w - e, X, y)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(ana - fd)
                                        / np.maximum(np.abs(fd), 1e-3))))
    grad_ok = worst < 1e-6
    mid_ok = sigmoid(0.0) == 0.5
    try:
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            hi, lo = sigmoid(1000.0), sigmoid(-1000.0)
        sat_ok = hi == 1.0 and lo == 0.0
    except FloatingPointError:
        sat_ok = False
    _verdict("criterion 4", grad_ok and mid_ok and sat_ok,
             f"max relative gradient error {worst:.2e} < 1e-6 over 20 points; "
             f"sigmoid(0) == 0.5 exactly; |z|=1000 overflow-free")


def test_criterion_5_population_statistics():
    t0 = time.perf_counter()
    base = evaluate_quality(64, 50, 1000, width=1, repeats=2,
                            noise_sigma=0.0, seed=2026)
    rels = [evaluate_quality(64, 50, 1000, width=1, repeats=2,
                             noise_sigma=s, seed=2026).reliability
            for s in (0.01, 0.1, 1.0)]
    elapsed = time.perf_counter() - t0
    ok = (0.45 <= base.uniformity <= 0.55
          and 0.45 <= base.uniqueness <= 0.55
          and base.reliability == 1.0
          and rels[0] > rels[1] > rels[2])
    _verdict("criterion 5", ok,
             f"uniformity {base.uniformity:.4f}, uniqueness "
             f"{base.uniqueness:.4f} (both in [0.45,0.55]); reliability "
             f"{base.reliability} at zero noise, then "
             f"{rels[0]:.6f} > {rels[1]:.6f} > {rels[2]:.6f} "
             f"as noise grows ({elapsed:.1f}s)")


def test_criterion_6_persistence_roundtrips_and_import(tmp_path):
    rng = np.random.default_rng(909)
    words_ok = 0
    for _ in range(1000):
        width = int(rng.integers(1, 97))
        bits = rng.integers(0, 2, size=width, dtype=np.uint8)
        if np.array_equal(parse_hex_word(format_hex_word(bits), width), bits):
            words_ok += 1

    sets_ok = 0
    for case in range(50):
        crps = generate_crps(int(rng.integers(1, 33)), int(rng.integers(1, 41)),
                             width=int(rng.integers(1, 9)),
                             seed=derive_seed(909, case))
        path = tmp_path / f"rt{case}.csv"
        save_crps(path, crps)
        back = load_crps(path)
        if (np.array_equal(back.challenges, crps.challenges)
                and np.array_equal(back.responses, crps.responses)
                and back.meta == crps.meta):
            sets_ok += 1

    crps, rejected = import_hex_rows(LOGGED_ROWS, 64, 64)
    reject_lines = [line for line, _ in rejected]
    import_ok = (reject_lines == list(BAD_LINES)
                 and all("17" in reason for _, reason in rejected)
                 and [format_hex_word(c) for c in crps.challenges]
                 == GOOD_CHALLENGES)

    ok = words_ok == 1000 and sets_ok == 50 and import_ok
    _verdict("criterion 6", ok,
             f"{words_ok}/1000 word and {sets_ok}/50 dataset round-trips; "
             f"logged table: {len(reject_lines)} malformed rows rejected with "
             f"line numbers {reject_lines}, {len(crps)} well-formed imported")


def _run_cli(argv, threads):
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(threads)
    proc = subprocess.run([sys.executable, "-m", "puflab.cli"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_7_cli_outputs_are_byte_identical(tmp_path):
    paths = [tmp_path / f"gen{i}.csv" for i in (1, 2)]
    for path, threads in zip(paths, (1, 4)):
        _run_cli(["generate", "--n", "32", "--chains", "2", "--count", "250",
                  "--seed", "77", "-o", str(path)], threads)
    gen_ok = paths[0].read_bytes() == paths[1].read_bytes()

    sweeps = [tmp_path / f"sweep{i}.csv" for i in (1, 2)]
    sweep_out = []
    for path, threads in zip(sweeps, (1, 4)):
        sweep_out.append(_run_cli(["sweep", "--n", "32", "--chains", "4",
                                   "--counts", "300", "--fractions", "0.25",
                                   "--seed", "99", "-o", str(path)], threads))
    sweep_ok = (sweeps[0].read_bytes() == sweeps[1].read_bytes()
                and sweep_out[0] == sweep_out[1])

    reports = [tmp_path / f"rep{i}.csv" for i in (1, 2)]
    for path, threads in zip(reports, (1, 4)):
        _run_cli(["attack", str(paths[0]), "--test", "0.2", "--seed", "5",
                  "-o", str(path)], threads)
    attack_ok = reports[0].read_bytes() == reports[1].read_bytes()

    _verdict("criterion 7", gen_ok and sweep_ok and attack_ok,
             f"generate/sweep/attack artifacts byte-identical across 1- and "
             f"4-thread runs ({sweeps[0].stat().st_size} sweep bytes compared)")
