"""Spans around the calls one puflab module makes into another.

The tracer patches public names in the namespace of the module that calls
them (``puflab.cli.generate_crps``, ``puflab.attack.sigmoid``, ...), so the
program itself is never edited.  Each patched call records a span (name,
start, end, parent, op) held in memory; functions called once per row record
only a call count and a total time ("tallies"), which is charged to the span
they ran inside so that self times stay exact.  A name a later version of
puflab no longer has is skipped, and the metrics that depend on it read 0.

A span's name is ``<layer>.<function>``, where the layer is the puflab module
that defines the function.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from dataclasses import asdict, dataclass

LAYERS = ("cli", "crp", "bits", "core", "features", "attack", "metrics")

PER_LAYER_UNITS = {
    "core.respond_s": "s",
    "core.ns_per_stage_update": "ns",
    "core.respond_calls": "count",
    "core.sample_s": "s",
    "crp.save_rows_per_s": "rows/s",
    "bits.format_calls": "count",
    "bits.format_ns_per_word": "ns",
    "crp.load_rows_per_s": "rows/s",
    "crp.split_s": "s",
    "bits.parse_calls": "count",
    "bits.parse_ns_per_word": "ns",
    "features.feature_matrix_s": "s",
    "attack.fit_self_s": "s",
    "attack.sigmoid_s": "s",
    "attack.sigmoid_calls": "count",
    "attack.epoch_ms": "ms",
    "metrics.uniqueness_s": "s",
    "metrics.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _rows_of_last_arg(args, result):
    return len(args[-1])


def _rows_of_result(args, result):
    return len(result)


def _stage_updates(args, result):
    puf = args[0]
    rows = result.shape[0] if result.ndim == 2 else 1
    return rows * puf.width * puf.n_stages


# (owner, attribute, span name, work counter or None)
SPANS = (
    ("puflab.cli", "generate_crps", "crp.generate_crps", None),
    ("puflab.cli", "save_crps", "crp.save_crps", _rows_of_last_arg),
    ("puflab.cli", "load_crps", "crp.load_crps", _rows_of_result),
    ("puflab.cli", "attack_dataset", "attack.attack_dataset", None),
    ("puflab.cli", "evaluate_quality", "metrics.evaluate_quality", None),
    ("puflab.crp", "sample_multibit", "core.sample_multibit", None),
    ("puflab.crp", "random_challenges", "core.random_challenges", None),
    ("puflab.core.MultiBitPuf", "respond", "core.respond", _stage_updates),
    ("puflab.attack", "split_crps", "crp.split_crps", None),
    ("puflab.attack", "feature_matrix", "features.feature_matrix", None),
    ("puflab.attack", "sigmoid", "attack.sigmoid", None),
    ("puflab.attack", "cross_entropy", "attack.cross_entropy", None),
    ("puflab.attack", "predict_bits", "attack.predict_bits", None),
    ("puflab.metrics", "sample_multibit", "core.sample_multibit", None),
    ("puflab.metrics", "random_challenges", "core.random_challenges", None),
    ("puflab.metrics", "uniformity", "metrics.uniformity", None),
    ("puflab.metrics", "uniqueness", "metrics.uniqueness", None),
    ("puflab.metrics", "bit_aliasing", "metrics.bit_aliasing", None),
)

# (owner, attribute, tally name): per-row or per-chain calls
TALLIES = (
    ("puflab.crp", "format_hex_word", "bits.format_hex_word"),
    ("puflab.crp", "parse_hex_word", "bits.parse_hex_word"),
    ("puflab.crp", "derive_seed", "core.derive_seed"),
    ("puflab.core", "derive_seed", "core.derive_seed"),
    ("puflab.metrics", "derive_seed", "core.derive_seed"),
)


@dataclass
class Span:
    id: int
    op: int
    name: str
    start: float
    end: float
    parent: int | None
    work: int | None = None
    tally_s: float = 0.0      # time of tallied calls made directly inside


def _resolve(path):
    """Import ``pkg.module`` or ``pkg.module.Class``; None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
        return obj
    return None


class Tracer:
    """Records spans and tallies while installed; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.tallies = {}        # (op, name) -> [calls, seconds]
        self.skipped = []
        self.op = 0
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, work=None):
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self.op, name, time.perf_counter(), 0.0,
                        self._stack[-1].id if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span.work = work(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def tally(self, name, fn):
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                entry = self.tallies.setdefault((self.op, name), [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                if self._stack:
                    self._stack[-1].tally_s += elapsed
        return counted

    def __enter__(self):
        self.skipped = []
        for owner_path, attr, name, work in SPANS:
            self._patch(owner_path, attr, lambda fn, n=name, w=work: self.wrap(n, fn, w))
        for owner_path, attr, name in TALLIES:
            self._patch(owner_path, attr, lambda fn, n=name: self.tally(n, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner_path, attr, make):
        owner = _resolve(owner_path)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.skipped.append(f"{owner_path}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def self_times(self, op):
        """Self time of every span of one op: duration minus children and tallies."""
        spans = [s for s in self.spans if s.op == op]
        child = {s.id: 0.0 for s in spans}
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return {s.id: (s.end - s.start) - child[s.id] - s.tally_s for s in spans}

    def dump(self, path):
        data = {"spans": [asdict(s) for s in self.spans],
                "tallies": [{"op": op, "name": name, "calls": c, "seconds": t}
                            for (op, name), (c, t) in sorted(self.tallies.items())],
                "skipped": self.skipped}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _root(spans):
    return next(s for s in spans if s.parent is None)


def layer_shares(tracer, op):
    """Each layer's share of one traced op: its self time over the op's wall time.

    Self times partition the root span, so the shares add up to 1.
    """
    spans = [s for s in tracer.spans if s.op == op]
    selfs = tracer.self_times(op)
    root = _root(spans)
    busy = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        busy[s.name.split(".", 1)[0]] += selfs[s.id]
    for (tally_op, name), (_, seconds) in tracer.tallies.items():
        if tally_op == op:
            busy[name.split(".", 1)[0]] += seconds
    return {layer: t / (root.end - root.start) for layer, t in busy.items()}


def op_metrics(tracer, op):
    """Per-layer figures of one traced op (its root span is the ``cli.main`` call).

    A figure of a layer the op does not reach reads 0.
    """
    spans = [s for s in tracer.spans if s.op == op]
    selfs = tracer.self_times(op)

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def work(name):
        return sum(s.work or 0 for s in spans if s.name == name)

    def self_of(name):
        return sum(selfs[s.id] for s in spans if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    respond_s = total("core.respond")
    fmt_calls, fmt_s = tracer.tallies.get((op, "bits.format_hex_word"), (0, 0.0))
    parse_calls, parse_s = tracer.tallies.get((op, "bits.parse_hex_word"), (0, 0.0))
    fit_self_s = self_of("attack.attack_dataset")
    sigmoid_s = total("attack.sigmoid")
    sigmoid_calls = calls("attack.sigmoid")
    return {
        "core.respond_s": respond_s,
        "core.ns_per_stage_update": ratio(respond_s * 1e9, work("core.respond")),
        "core.respond_calls": calls("core.respond"),
        "core.sample_s": total("core.sample_multibit"),
        "crp.save_rows_per_s": ratio(work("crp.save_crps"), total("crp.save_crps")),
        "bits.format_calls": fmt_calls,
        "bits.format_ns_per_word": ratio(fmt_s * 1e9, fmt_calls),
        "crp.load_rows_per_s": ratio(work("crp.load_crps"), total("crp.load_crps")),
        "crp.split_s": total("crp.split_crps"),
        "bits.parse_calls": parse_calls,
        "bits.parse_ns_per_word": ratio(parse_s * 1e9, parse_calls),
        "features.feature_matrix_s": total("features.feature_matrix"),
        "attack.fit_self_s": fit_self_s,
        "attack.sigmoid_s": sigmoid_s,
        "attack.sigmoid_calls": sigmoid_calls,
        "attack.epoch_ms": ratio((fit_self_s + sigmoid_s) * 1e3, sigmoid_calls),
        "metrics.uniqueness_s": total("metrics.uniqueness"),
        "metrics.self_s": self_of("metrics.evaluate_quality"),
        "cli.self_s": self_of("cli.main"),
    }


def median_of(per_op):
    """Median of each figure over the traced ops."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
