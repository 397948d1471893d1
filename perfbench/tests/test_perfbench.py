"""Tests of the benchmark itself: tiny runs, failed-op counting, span nesting.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.pin_environment()

import puflab  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "generate-bank": workloads.GenerateBank(n=16, chains=8, count=300, oracle_rows=32),
    "attack-word": workloads.AttackWord(n=16, chains=4, rows=400),
    "population": workloads.Population(chains=2, instances=6, challenges=300,
                                       repeats=2),
}


def _flip_last_response_bit(path):
    lines = Path(path).read_text(encoding="ascii").splitlines()
    challenge, response = lines[-1].split(",")
    lines[-1] = f"{challenge},{int(response, 16) ^ 1:0{len(response)}X}"
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


@dataclasses.dataclass(frozen=True)
class CorruptedBank(workloads.GenerateBank):
    def check(self, inputs, seed, out, stdout):
        _flip_last_response_bit(out)
        super().check(inputs, seed, out, stdout)


@dataclasses.dataclass(frozen=True)
class MissingDataset(workloads.AttackWord):
    def build(self, workdir, seed):
        return workdir / "missing.csv"


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_checks(name, trace, tmp_path):
    result, meta = run.run(name, 3, 0.0, trace, tmp_path, workload=TINY[name],
                           setup_probes=0)
    assert result["failed"] == 0 and result["correct"], meta["failures"]
    assert result["attempted"] == (2 if trace else 1)
    units = tracer.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert meta["untraced_names"] == []


def test_flipped_response_bit_counts_as_failed_op(tmp_path):
    bank = CorruptedBank(**dataclasses.asdict(TINY["generate-bank"]))
    result, meta = run.run("generate-bank", 3, 0.0, False, tmp_path,
                           workload=bank, setup_probes=0)
    assert result["attempted"] == result["failed"] == 1
    assert not result["correct"]
    assert "disagrees with the instance's linear form" in meta["failures"][0]


def test_nonzero_exit_code_counts_as_failed_op(tmp_path):
    attack = MissingDataset(**dataclasses.asdict(TINY["attack-word"]))
    result, meta = run.run("attack-word", 3, 0.0, False, tmp_path,
                           workload=attack, setup_probes=0)
    assert result["failed"] == 1
    assert "exit code 2" in meta["failures"][0]


def test_spans_nest_and_self_times_are_non_negative(tmp_path):
    originals = (puflab.cli.generate_crps, puflab.attack.sigmoid,
                 puflab.core.MultiBitPuf.respond)
    tr = tracer.Tracer()
    main = tr.wrap("cli.main", puflab.cli.main)
    for op, workload in enumerate(TINY.values()):
        inputs = workload.build(tmp_path, 5)
        tr.op = op
        with tr:
            code, _, err = workloads.run_cli(
                workload.argv(inputs, 7, tmp_path / f"op{op}.out"), main)
        assert code == 0, err
    assert (puflab.cli.generate_crps, puflab.attack.sigmoid,
            puflab.core.MultiBitPuf.respond) == originals
    by_id = {s.id: s for s in tr.spans}
    for span in tr.spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.op == span.op
            assert parent.start <= span.start and span.end <= parent.end
    for op in range(len(TINY)):
        assert min(tr.self_times(op).values()) >= 0
        assert sum(tracer.layer_shares(tr, op).values()) == pytest.approx(1.0)


def test_command_line_prints_result_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "population",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_checkout_without_puflab(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("tests", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "generate-bank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
