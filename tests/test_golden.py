"""Golden digests: sha256 pins of seeded CLI artifacts.

The digests were taken from the stage-by-stage race implementation, before
multi-bit banks switched to their folded weights.  A digest that moves means
a seeded output byte moved, which must be a deliberate, recorded change.

Every run uses relative paths inside ``tmp_path``, because artifacts echo the
dataset path they were made from.  The generate runs draw more rows than one
evaluation block of ``MultiBitPuf.respond``, so block boundaries and the
per-chain noise streams are pinned too.
"""

import hashlib

import pytest

from puflab.cli import main

pytestmark = pytest.mark.seeded

GENERATE = ["generate", "--n", "64", "--chains", "8", "--count", "1500",
            "--seed", "2024"]

GOLDEN = [
    ("generate", GENERATE + ["-o", "gen.csv"], "gen.csv",
     "c3225e600c48c6ba69c6f0531cb696456191781ea3621b4dd97d17b4a4c982eb"),
    ("generate-noisy", GENERATE + ["--noise-sigma", "1.5", "-o", "noisy.csv"],
     "noisy.csv",
     "fa90b85358b6c7e02f0f1e9efd8be9138a0d929a5b6b01b8deed30f1490a9aed"),
    ("metrics-noisy", ["metrics", "--n", "32", "--chains", "4",
                       "--instances", "6", "--challenges", "400",
                       "--repeats", "3", "--noise-sigma", "1.0",
                       "--seed", "17", "-o", "quality.txt"], "quality.txt",
     "69ccd60da3a7a02cca0a483720f08d3f9e9de361022df7b128485a5df3b7f674"),
    ("attack", ["attack", "gen.csv", "--test", "0.2", "--seed", "5",
                "-o", "report.csv"], "report.csv",
     "69c461311bce77ec4bc2e409b0068c40a7094a40cb92bc5fce3dab80ef180e40"),
    ("sweep", ["sweep", "--n", "32", "--chains", "3", "--counts", "600",
               "--fractions", "0.25", "--noise-sigma", "0.5", "--seed", "41",
               "-o", "sweep.csv"], "sweep.csv",
     "3c63a8226049d5d92c84dd82485857f4e8a880fb21af33460c4acf9a3a07e38c"),
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(GENERATE + ["-o", "gen.csv"]) == 0
    return tmp_path


@pytest.mark.parametrize("argv,artifact,digest",
                         [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_seeded_artifact_digest(workdir, capsys, argv, artifact, digest):
    assert main(argv) == 0
    capsys.readouterr()
    got = hashlib.sha256((workdir / artifact).read_bytes()).hexdigest()
    assert got == digest


def test_golden_attack_prints_its_final_loss(workdir, capsys):
    # to 4 significant digits the line holds on 1 and 4 BLAS threads alike
    assert main(["attack", "gen.csv", "--test", "0.2", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "final loss: min 0.1797 max 0.1926"
