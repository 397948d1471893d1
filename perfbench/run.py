"""puflab benchmark: CLI workloads timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload generate-bank --seed 1 --seconds 36 --trace 0

Run from anywhere; the package measured is always the ``src/`` beside this
directory.  Prints one metadata JSON line, then as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are ``setup_s``, ``op_p50_s``, ``throughput``
and ``peak_rss_mb``; with ``--trace 1`` they are the per-layer figures of
``tracer.op_metrics`` plus ``trace.overhead_s``.  Exits 2 without a result
when the checkout has no puflab to measure.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("generate-bank", "attack-word", "population")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15
SETUP_TIMEOUT_S = 120
END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "throughput": "1/s",
                    "peak_rss_mb": "MB"}


class Refused(Exception):
    """The checkout cannot be measured."""


def pin_environment():
    """One BLAS thread, and this checkout's ``src/`` first on the import path.

    Must run before numpy is imported; seeded outputs are byte-identical
    across thread counts, so pinning changes speed only.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "puflab" / "__init__.py").is_file():
        raise Refused(f"no puflab package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def setup(name, seed, workdir, workload=None):
    """Import puflab and build the workload's inputs.

    Returns (workloads module, workload, inputs, seconds taken).
    """
    start = time.perf_counter()
    import puflab
    if not Path(puflab.__file__).resolve().is_relative_to(SRC):
        raise Refused(f"puflab resolves to {puflab.__file__}, not under {SRC}")
    import workloads
    if workload is None:
        workload = workloads.WORKLOADS[name]()
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.build(workdir, seed)
    return workloads, workload, inputs, time.perf_counter() - start


def probe_setup(name, seed, workdir):
    """Child process: one fresh set-up, its time printed as JSON."""
    pin_environment()
    *_, seconds = setup(name, seed, workdir)
    print(json.dumps({"setup_s": seconds}))


def setup_in_child(name, seed, workdir):
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         str(workdir), "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def metadata(puflab_file, workload):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(1 for path in sorted(SRC.rglob("*.py"))
                    for line in path.read_text(encoding="utf-8").splitlines()
                    if line.strip())
    return {
        "puflab_file": puflab_file,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_nonblank_lines": src_lines,
        "workload": {"name": workload.name, **vars(workload)},
    }


def run(name, seed, seconds, trace, workdir, workload=None,
        setup_probes=SETUP_PROBES, trace_path=None):
    """One benchmark run; returns (result dict, metadata dict).

    Untraced, ops run back to back for ``seconds``, and ``setup_probes``
    fresh interpreters each set up once, spread evenly over those seconds so
    that the set-up median sees the same machine speed as the op median;
    their time is left out of the throughput.  Traced, untraced and traced
    ops alternate, so the tracing overhead comes from one run, and the spans
    are written to ``trace_path`` if given.  Every output is checked after
    the timed phase.
    """
    pin_environment()
    wl_mod, workload, inputs, setup_s = setup(name, seed, workdir / "setup", workload)
    from puflab import cli
    import tracer as tracer_mod
    tracer = tracer_mod.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)

    ops = []
    extra = {}
    probes = 0 if trace else setup_probes
    setups = [setup_s]
    probe_s = 0.0

    def probe():
        nonlocal probe_s
        t0 = time.perf_counter()
        setups.append(setup_in_child(name, seed, workdir / f"setup{len(setups)}"))
        probe_s += time.perf_counter() - t0

    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or len(ops) < (2 if trace else 1):
        if len(setups) <= probes and (time.perf_counter() - start
                                      >= len(setups) * seconds / (probes + 1)):
            probe()
            continue
        i = len(ops)
        traced = trace and i % 2 == 1
        op_seed = wl_mod.op_seed(workload.name, seed, i)
        out = workdir / f"op{i}.out"
        argv = workload.argv(inputs, op_seed, out)
        tracer.op = i
        with tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            code, stdout, stderr = wl_mod.run_cli(argv, traced_main if traced else cli.main)
            wall = time.perf_counter() - t0
        ops.append({"seed": op_seed, "out": out, "code": code, "stdout": stdout,
                    "stderr": stderr, "wall": wall, "traced": traced})
    phase_s = time.perf_counter() - start - probe_s
    while len(setups) <= probes:  # runs too short to spread them
        probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_start = time.perf_counter()
    failures = []
    for i, op in enumerate(ops):
        try:
            if op["code"] != 0:
                raise wl_mod.CheckFailed(f"exit code {op['code']}: {op['stderr'].strip()}")
            workload.check(inputs, op["seed"], op["out"], op["stdout"])
        except Exception as exc:  # any error while checking fails the op, not the run
            failures.append(f"op {i} (seed {op['seed']}): {type(exc).__name__}: {exc}")

    check_s = time.perf_counter() - check_start

    untraced = [op["wall"] for op in ops if not op["traced"]]
    if trace:
        traced_ops = [i for i, op in enumerate(ops) if op["traced"]]
        metrics = tracer_mod.median_of(
            [tracer_mod.op_metrics(tracer, i) for i in traced_ops])
        extra["layer_shares"] = tracer_mod.median_of(
            [tracer_mod.layer_shares(tracer, i) for i in traced_ops])
        metrics["trace.overhead_s"] = (
            statistics.median(ops[i]["wall"] for i in traced_ops)
            - statistics.median(untraced))
        if trace_path is not None:
            tracer.dump(trace_path)
    else:
        extra["setup_samples_s"] = setups
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(untraced),
            "throughput": len(ops) * workload.items() / phase_s,
            "peak_rss_mb": peak_rss_mb,
        }

    units = tracer_mod.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    import puflab
    meta = metadata(puflab.__file__, workload)
    meta.update(ops=len(ops), ops_failed=len(failures), phase_s=phase_s,
                check_s=check_s, op_walls_s=[op["wall"] for op in ops],
                failures=failures[:5], untraced_names=tracer.skipped, **extra)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    return result, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.setup_probe:
            probe_setup(args.workload, args.seed, Path(args.setup_probe))
            return 0
        pin_environment()
        WORK.mkdir(exist_ok=True)
        workdir = WORK / f"run-{os.getpid()}"
        try:
            result, meta = run(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                trace_path=WORK / f"trace-{args.workload}-{args.seed}.json")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    for failure in meta["failures"]:
        print(f"perfbench: failed {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
