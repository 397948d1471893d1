"""Command line front end.

Subcommands::

    puflab generate      draw an instance and write a CRP dataset
    puflab attack        train and score a model on a saved dataset
    puflab sweep         attack one instance over a grid of sizes/splits
    puflab metrics       quality study over a population of instances
    puflab oracle-check  race simulation vs. its linear reduction

Every option can also come from a ``--config`` file of ``key = value`` lines
(``#`` starts a comment; keys may use dashes or underscores); explicit flags
win over the file, and unknown or repeated keys are rejected.  All randomness
hangs off the one ``--seed``, so a run with the same inputs produces
byte-identical outputs, and CSV artifacts start with comment lines echoing the
options that made them.

Exit codes: 0 success, 1 usage or parameter error, 2 unreadable or malformed
data, 3 oracle disagreement.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .attack import (DEFAULT_EPOCHS, DEFAULT_LR, DEFAULT_TOL, AttackReport,
                     attack_dataset, attack_grid)
from .bits import HexFormatError, format_hex_word
from .core import (DelayParams, all_challenges, derive_seed,
                   linear_disagreements, random_challenges, sample_chain)
from .crp import DatasetError, generate_crps, load_crps, save_crps
from .features import FEATURE_MAPS
from .metrics import evaluate_quality

__all__ = ["main", "entry", "UsageError"]


class UsageError(Exception):
    """Bad command line, bad config file, or a bad parameter value."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data
        raise UsageError(message)


REQUIRED = object()


@dataclass(frozen=True)
class Opt:
    name: str          # --name on the command line; name with _ in config files
    parse: object
    default: object
    help: str

    @property
    def dest(self):
        return self.name.replace("-", "_")


def _value(cast, rule="", ok=None):
    """Parser that casts, requires a float to be finite, then checks ``ok``."""
    def parse(text):
        value = cast(text)
        if cast is float and not np.isfinite(value):
            raise ValueError("must be finite")
        if ok is not None and not ok(value):
            raise ValueError(rule)
        return value
    return parse


_pos_int = _value(int, "must be >= 1", lambda v: v >= 1)
_nonneg_int = _value(int, "must be >= 0", lambda v: v >= 0)
_float = _value(float)
_pos_float = _value(float, "must be > 0", lambda v: v > 0)
_nonneg_float = _value(float, "must be >= 0", lambda v: v >= 0)
_fraction = _value(float, "must be strictly between 0 and 1",
                   lambda v: 0.0 < v < 1.0)
_features = _value(str, "must be 'raw' or 'parity'", lambda v: v in FEATURE_MAPS)
_path = _value(str, "empty path", bool)


def _list_of(parse):
    """Parser for a comma list whose items each go through ``parse``."""
    def parse_list(text):
        items = [p.strip() for p in str(text).split(",") if p.strip()]
        if not items:
            raise ValueError("empty list")
        return tuple(parse(p) for p in items)
    return parse_list


def _read_config(path):
    try:
        with open(path, "rb") as fh:
            raw_lines = fh.read().removeprefix(b"\xef\xbb\xbf").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    config = {}
    # bytes.splitlines breaks only on \n, \r and \r\n, as an editor numbers lines
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise UsageError(f"{path}:{lineno}: not UTF-8") from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in config:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        config[key] = value.strip()
    return config


def _merge(args, opts, command):
    """Fold CLI values, config file values and defaults into one namespace."""
    config = _read_config(args.config) if args.config else {}
    known = {o.dest: o for o in opts}
    for key in config:
        if key not in known:
            raise UsageError(f"unknown config key {key!r} for '{command}'")
    merged = {}
    for opt in opts:
        raw = getattr(args, opt.dest)
        if raw is None:
            raw = config.get(opt.dest)
        if raw is None:
            if opt.default is REQUIRED:
                raise UsageError(f"missing required option --{opt.name}")
            merged[opt.dest] = opt.default
            continue
        try:
            merged[opt.dest] = opt.parse(raw)
        except ValueError as exc:
            raise UsageError(f"bad value for --{opt.name}: {exc}") from None
    return SimpleNamespace(**merged)


def _text(value):
    """An option value as one printable-ASCII string: None as '-', a tuple as a
    comma list, and a character outside printable ASCII as its Python escape."""
    if value is None:
        value = "-"
    elif isinstance(value, tuple):
        value = ",".join(str(v) for v in value)
    return "".join(c if " " <= c <= "~" else ascii(c)[1:-1] for c in str(value))


def _echo_lines(ns, opts, extra=()):
    """Comment lines restating the options a run used, for self-describing files."""
    pairs = [*extra, *((o.dest, getattr(ns, o.dest)) for o in opts if o.name != "out")]
    return [f"# {key}={_text(value)}" for key, value in pairs]


def _write_text(path, lines):
    data = ("\n".join(lines) + "\n").encode("ascii")  # fails before the file opens
    with open(path, "wb") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# option groups shared by several commands; each command splices them in at
# a fixed place, because artifacts echo the options in declaration order

BANK_OPTS = (
    Opt("n", _pos_int, REQUIRED, "challenge bits (stages per chain)"),
    Opt("chains", _pos_int, 1, "parallel chains = response bits"),
)

DELAY_OPTS = (
    Opt("noise-sigma", _nonneg_float, 0.0,
        "std-dev of measurement noise on the delay difference"),
    Opt("delay-mean", _float, DelayParams.mean,
        "mean of the per-path delay distribution"),
    Opt("delay-sigma", _pos_float, DelayParams.sigma,
        "std-dev of the per-path delay distribution"),
)

FEATURES_OPT = Opt("features", _features, "parity",
                   "challenge encoding: 'parity' or 'raw'")

TRAIN_OPTS = (
    Opt("lr", _pos_float, DEFAULT_LR, "gradient-descent step size"),
    Opt("epochs", _pos_int, DEFAULT_EPOCHS, "maximum training passes"),
    Opt("l2", _nonneg_float, 0.0, "ridge penalty (bias excluded)"),
    Opt("tol", _nonneg_float, DEFAULT_TOL,
        "stop once an epoch improves the loss less than this"),
)


# ---------------------------------------------------------------------------
# generate

GENERATE_OPTS = (
    *BANK_OPTS,
    Opt("count", _pos_int, REQUIRED, "number of CRPs to draw"),
    Opt("seed", _nonneg_int, None, "master seed; omit for a throwaway instance"),
    *DELAY_OPTS,
    Opt("out", _path, REQUIRED, "output dataset path"),
)


def _draw(ns):  # bank, seed and delay options for generate_crps and evaluate_quality
    return dict(width=ns.chains, seed=ns.seed, noise_sigma=ns.noise_sigma,
                params=DelayParams(ns.delay_mean, ns.delay_sigma))


def cmd_generate(ns) -> int:
    crps = generate_crps(ns.n, ns.count, **_draw(ns))
    save_crps(ns.out, crps)
    print(f"wrote {_text(ns.out)}: {len(crps)} rows, "
          f"challenge_bits={crps.challenge_bits} "
          f"response_bits={crps.response_bits}, seed={_text(ns.seed)}")
    return 0


# ---------------------------------------------------------------------------
# attack


def _fit(ns):  # the feature map and training options, as attack_dataset takes them
    return dict(feature=ns.features, lr=ns.lr, epochs=ns.epochs, l2=ns.l2, tol=ns.tol)


def _print_epochs(epochs_run, cap, what):  # stdout only: no comma, no leading '#'
    capped = epochs_run.count(cap)
    print(f"epochs: {capped}/{len(epochs_run)} {what} at the {cap}-epoch cap; "
          f"{len(epochs_run) - capped} stalled")


ATTACK_OPTS = (
    FEATURES_OPT,
    Opt("test", _fraction, 0.15, "held-out fraction of the rows"),
    *TRAIN_OPTS,
    Opt("seed", _nonneg_int, None, "seed for the train/test split"),
    Opt("out", _path, None, "also write the CSV report to this path"),
)


def cmd_attack(ns) -> int:
    crps = load_crps(ns.dataset)
    report = attack_dataset(crps, ns.test, seed=ns.seed, **_fit(ns))
    lines = _echo_lines(ns, ATTACK_OPTS, extra=[("dataset", ns.dataset)])
    lines += [AttackReport.CSV_HEADER, report.csv_row()]
    print("\n".join(lines))
    if len(report.per_bit_rate) > 1:
        print(f"per-bit rate: min {min(report.per_bit_rate):.4f} "
              f"max {max(report.per_bit_rate):.4f}")
    _print_epochs(report.epochs_run, ns.epochs, "bits")
    if ns.out:
        _write_text(ns.out, lines)
    return 0


# ---------------------------------------------------------------------------
# sweep

SWEEP_OPTS = (
    *BANK_OPTS,
    Opt("counts", _list_of(_pos_int), (750, 1650, 2850, 4920),
        "comma list of dataset sizes; prefixes of one drawn dataset"),
    Opt("fractions", _list_of(_fraction), (0.15, 0.25, 0.35),
        "comma list of held-out fractions"),
    FEATURES_OPT,
    Opt("seed", _nonneg_int, None, "master seed for instance, data and splits"),
    *DELAY_OPTS,
    *TRAIN_OPTS,
    Opt("out", _path, None, "also write the CSV table to this path"),
)


def cmd_sweep(ns) -> int:
    full = generate_crps(ns.n, max(ns.counts), **_draw(ns))
    grid = attack_grid(full, ns.counts, ns.fractions, seed=ns.seed, **_fit(ns))
    reports = [report for row in grid for report in row]
    lines = _echo_lines(ns, SWEEP_OPTS)
    lines += [AttackReport.CSV_HEADER] + [r.csv_row() for r in reports]
    print("\n".join(lines))
    # column-aligned mean_rate table: counts down, fractions across
    cells = [["crps"] + [f"{f:g}" for f in ns.fractions]]
    for count, row in zip(ns.counts, grid):
        cells.append([str(count)] + [f"{r.mean_rate:.4f}" for r in row])
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
    for row in cells:
        print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    print(f"mean rate over {len(reports)} cells: "
          f"{np.mean([r.mean_rate for r in reports]):.4f}")
    _print_epochs([e for r in reports for e in r.epochs_run], ns.epochs, "bit fits")
    if ns.out:
        _write_text(ns.out, lines)
    return 0


# ---------------------------------------------------------------------------
# metrics

METRICS_OPTS = (
    *BANK_OPTS,
    Opt("instances", _pos_int, 50, "population size"),
    Opt("challenges", _pos_int, 1000, "challenges per instance"),
    Opt("repeats", _pos_int, 5, "noisy re-measurements per instance"),
    *DELAY_OPTS,
    Opt("seed", _nonneg_int, None, "master seed for the study"),
    Opt("out", _path, None, "also write the report to this path"),
)


def cmd_metrics(ns) -> int:
    lines = evaluate_quality(ns.n, ns.instances, ns.challenges,
                             repeats=ns.repeats, **_draw(ns)).lines()
    print("\n".join(lines))
    if ns.out:
        _write_text(ns.out, lines)
    return 0


# ---------------------------------------------------------------------------
# oracle-check

ORACLE_OPTS = (
    Opt("n", _pos_int, None,
        "check a single stage count (exhaustive up to 16, else randomised)"),
    Opt("chains", _pos_int, 5, "chains sampled per stage count"),
    Opt("random-count", _nonneg_int, 1000,
        "random challenges in the randomised pass, at 64 stages or at "
        "--n above 16 (0 disables; --n above 16 needs >= 1)"),
    Opt("seed", _nonneg_int, 0, "seed for sampled chains and challenges"),
)


def cmd_oracle_check(ns) -> int:
    if ns.n is None:
        exhaustive, random_n = range(1, 13), 64
    elif ns.n <= 16:
        exhaustive, random_n = [ns.n], None
    elif ns.random_count:
        exhaustive, random_n = [], ns.n
    else:
        raise UsageError("--random-count must be >= 1 when --n is above 16")
    passes = [(n, all_challenges(n), "exhaustive") for n in exhaustive]
    if random_n and ns.random_count:
        passes.append((random_n, random_challenges(ns.random_count, random_n,
                                                   seed=derive_seed(ns.seed, 1)),
                       "random"))
    mismatches = checks = 0
    for n, challenges, label in passes:
        bad = 0
        for idx in range(ns.chains):
            chain_seed = derive_seed(ns.seed, 0, n, idx)
            chain = sample_chain(n, seed=chain_seed)
            disagree = linear_disagreements(chain, challenges)
            bad += disagree.size
            for c_idx in disagree[:3]:
                print(f"mismatch: n={n} chain_seed={chain_seed} "
                      f"challenge={format_hex_word(challenges[c_idx])}")
        mismatches += bad
        checks += ns.chains * len(challenges)
        print(f"n={n}: {ns.chains} chains x {len(challenges)} challenges "
              f"({label}), {bad} disagreements")
    print(f"{mismatches} mismatches / {checks} checks")
    return 3 if mismatches else 0


# ---------------------------------------------------------------------------
# wiring

COMMANDS = {
    "generate": (GENERATE_OPTS, cmd_generate,
                 "draw an instance and write a CRP dataset"),
    "attack": (ATTACK_OPTS, cmd_attack,
               "train and score a model on a saved dataset"),
    "sweep": (SWEEP_OPTS, cmd_sweep,
              "attack one instance over a grid of sizes and splits"),
    "metrics": (METRICS_OPTS, cmd_metrics,
                "quality study over a population of instances"),
    "oracle-check": (ORACLE_OPTS, cmd_oracle_check,
                     "compare the race simulation against its linear reduction"),
}


@functools.cache   # built once per process; parsing leaves the parser unchanged
def _build_parser():
    parser = _Parser(prog="puflab",
                     description="arbiter-chain simulation and attack toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (opts, func, blurb) in COMMANDS.items():
        p = sub.add_parser(name, help=blurb, description=blurb)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="read option defaults from a 'key = value' file")
        if name == "attack":
            p.add_argument("dataset", help="dataset to attack (puf-crp v1 file)")
        for opt in opts:
            suffix = (" (required)" if opt.default is REQUIRED else
                      "" if opt.default is None else f" (default {_text(opt.default)})")
            flags = ["-o", "--out"] if opt.name == "out" else [f"--{opt.name}"]
            p.add_argument(*flags, dest=opt.dest, default=None, metavar="V",
                           help=opt.help + suffix)
        p.set_defaults(_opts=opts, _func=func, _command=name)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "_func", None) is None:
            parser.print_help(sys.stderr)
            return 1
        merged = _merge(args, args._opts, args._command)
        if args._command == "attack":
            try:
                merged.dataset = _path(args.dataset)
            except ValueError as exc:
                raise UsageError(f"bad value for dataset: {exc}") from None
        return args._func(merged)
    except UsageError as exc:
        print(f"puflab: error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, HexFormatError, OSError) as exc:
        print(f"puflab: data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"puflab: error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
