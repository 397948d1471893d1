"""The benchmark's workloads: inputs, the puflab command of each op, and its check.

Every op is one ``puflab.cli.main(argv)`` call made in-process with the argv
README.md documents, so the benchmark depends on the CLI and file-format
contract only.  Checks read the op's outputs after the timed phase and never
trust the code path they check: generated files are parsed here, not with
``puflab.crp.load_crps``, and their responses are compared with the folded
linear model on every row and with the stage-by-stage race on a sample.

Importing this module imports numpy and puflab, so it belongs inside the
timed set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from puflab import cli
from puflab.core import derive_seed, sample_multibit, to_linear
from puflab.features import feature_matrix

REPORT_HEADER = "crps,test_fraction,feature_map,mean_rate,word_exact_rate"


class CheckFailed(Exception):
    """An op's output is wrong."""


def op_seed(workload: str, seed: int, index) -> int:
    """Seed of op ``index`` (or of a named input) under the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_cli(argv, main=cli.main):
    """Run one CLI command in-process; returns (exit code, stdout, stderr).

    An exception escaping ``main`` is a failed op, reported with exit code
    None and the traceback as stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    except Exception:  # the op failed; the benchmark goes on and counts it
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def _hex_bits(words, width):
    values = np.array([int(word, 16) for word in words], dtype=np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def read_dataset(path, challenge_bits, response_bits):
    """Parse a puf-crp v1 file written by ``generate`` into two bit matrices."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    shape = f"# challenge_bits={challenge_bits} response_bits={response_bits}"
    if lines[:2] != ["# puf-crp v1", shape]:
        raise CheckFailed(f"{path}: bad header {lines[:2]!r}")
    try:
        start = lines.index("challenge_hex,response_hex") + 1
    except ValueError:
        raise CheckFailed(f"{path}: no column header") from None
    rows = [line.split(",") for line in lines[start:]]
    if any(len(row) != 2 for row in rows):
        raise CheckFailed(f"{path}: a row is not 'challenge_hex,response_hex'")
    return (_hex_bits([r[0] for r in rows], challenge_bits),
            _hex_bits([r[1] for r in rows], response_bits))


@dataclass(frozen=True)
class GenerateBank:
    """Write path: draw a bank and save one large noise-free dataset."""

    name = "generate-bank"
    n: int = 64
    chains: int = 64
    count: int = 10_000
    oracle_rows: int = 128

    def build(self, workdir: Path, seed: int):
        return None

    def argv(self, inputs, seed, out):
        return ["generate", "--n", self.n, "--chains", self.chains,
                "--count", self.count, "--seed", seed, "-o", out]

    def items(self) -> int:
        """Response bits written per op."""
        return self.count * self.chains

    def check(self, inputs, seed, out, stdout):
        challenges, responses = read_dataset(out, self.n, self.chains)
        if len(challenges) != self.count:
            raise CheckFailed(f"{len(challenges)} rows, expected {self.count}")
        puf = sample_multibit(self.n, self.chains, seed=derive_seed(seed, 0))
        weights = np.column_stack([to_linear(c).weights for c in puf.chains])
        folded = (feature_matrix(challenges, "parity") @ weights > 0)
        if not np.array_equal(folded, responses):
            bad = np.argwhere(folded != responses)[0]
            raise CheckFailed(f"row {bad[0]} bit {bad[1]} disagrees with the "
                              "instance's linear form")
        rng = np.random.default_rng(seed)
        rows = rng.choice(self.count, min(self.oracle_rows, self.count),
                          replace=False)
        race = np.column_stack([c.delta(challenges[rows]) > 0 for c in puf.chains])
        if not np.array_equal(race, responses[rows]):
            raise CheckFailed("sampled rows disagree with the race oracle")


@dataclass(frozen=True)
class AttackWord:
    """Read path and training: attack one saved 64-bit-word dataset."""

    name = "attack-word"
    n: int = 64
    chains: int = 64
    rows: int = 750
    test: float = 0.25
    # six standard deviations below this commit's mean_rate; see README.md, checks
    floor: float = 0.915

    def build(self, workdir: Path, seed: int):
        path = workdir / "dataset.csv"
        code, _, err = run_cli(["generate", "--n", self.n, "--chains", self.chains,
                                "--count", self.rows,
                                "--seed", op_seed(self.name, seed, "dataset"),
                                "-o", path])
        if code != 0:
            raise RuntimeError(f"could not generate the attack dataset: {err}")
        return path

    def argv(self, inputs, seed, out):
        return ["attack", inputs, "--features", "parity", "--test", self.test,
                "--seed", seed, "-o", out]

    def items(self) -> int:
        """Dataset rows times response bits per op."""
        return self.rows * self.chains

    def check(self, inputs, seed, out, stdout):
        lines = Path(out).read_text(encoding="ascii").splitlines()
        if REPORT_HEADER not in lines or lines[-1] == REPORT_HEADER:
            raise CheckFailed("report has no result row")
        crps, _, feature_map, mean_rate, _ = lines[lines.index(REPORT_HEADER) + 1].split(",")
        if int(crps) != self.rows or feature_map != "parity":
            raise CheckFailed(f"report describes {crps} rows of {feature_map}")
        if not float(mean_rate) >= self.floor:
            raise CheckFailed(f"mean_rate {mean_rate} below {self.floor}")


@dataclass(frozen=True)
class Population:
    """Quality study: many small noisy race batches over a population."""

    name = "population"
    n: int = 64
    chains: int = 4
    instances: int = 20
    challenges: int = 1000
    repeats: int = 5
    noise_sigma: float = 0.05

    def build(self, workdir: Path, seed: int):
        return None

    def argv(self, inputs, seed, out):
        return ["metrics", "--n", self.n, "--chains", self.chains,
                "--instances", self.instances, "--challenges", self.challenges,
                "--repeats", self.repeats, "--noise-sigma", self.noise_sigma,
                "--seed", seed]

    def items(self) -> int:
        """Response bits evaluated per op, noise-free and noisy."""
        return self.instances * self.chains * self.challenges * (1 + self.repeats)

    def check(self, inputs, seed, out, stdout):
        figures = dict(line.split(None, 1) for line in stdout.splitlines() if line)
        bands = {"uniformity": (0.45, 0.55), "uniqueness": (0.45, 0.55),
                 "reliability": (0.99, 1.0)}
        for key, (low, high) in bands.items():
            value = float(figures.get(key, "nan"))
            if not low <= value <= high:
                raise CheckFailed(f"{key} {value} outside [{low}, {high}]")


WORKLOADS = {w.name: w for w in (GenerateBank, AttackWord, Population)}
