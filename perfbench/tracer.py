"""Span tracer for the benchmark's traced run.

`Tracer` wraps the public functions of the qc15 layers (cli, ensemble,
codes, algebra, bounds) at every qc15 module or class that binds them, and
records one span per call: name, start, end and the index of the enclosing
span. Work counters are taken at the same boundaries. Everything stays in
memory until the run ends; leaving the `with` block puts every original
object back.

A function that a later version of qc15 no longer has is listed in
`Tracer.absent` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


def _count_yes(counters, name, args, result):
    counters[name + ".yes"] += bool(result)


def _count_matmul(counters, name, args, result):
    a, b = args[0], args[1]
    rows, inner = a.shape
    cols = b.shape[1]
    counters[name + ".rows"] += rows
    counters[name + ".flops_computed"] += 2 * rows * inner * cols
    # float64 operands and product of the BLAS call
    counters[name + ".bytes_computed"] += 8 * (rows * inner + inner * cols + rows * cols)


def _count_elements(counters, name, args, result):
    counters[name + ".elements"] += sum(len(side) for side in result)


# (span name, qc15 module, attribute path in that module, counter)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("ensemble.experiment", "ensemble", "mc_delta_prob", None),
    ("ensemble.experiment", "ensemble", "exact_delta_leq_prob", None),
    ("ensemble.experiment", "ensemble", "mc_fullrank_prob", None),
    ("ensemble.sample_pair", "ensemble", "sample_pair", None),
    ("ensemble.restricted_elements", "ensemble", "restricted_elements", _count_elements),
    ("codes.construct_code", "codes", "construct_code", None),
    ("codes.generator_poly", "codes", "generator_poly", None),
    ("codes.check_poly", "codes", "check_poly", None),
    ("codes.span_matrix", "codes", "span_matrix", None),
    ("codes.leading_independent_rows", "codes", "leading_independent_rows", None),
    ("codes.has_word_of_weight_at_most", "codes", "Qc15Code.has_word_of_weight_at_most",
     _count_yes),
    ("codes.gf_rref", "codes", "gf_rref", None),
    ("codes.gf_matmul", "codes", "gf_matmul", _count_matmul),
    ("codes.low_weight_messages", "codes", "low_weight_messages", None),
    ("algebra.Poly.gcd", "algebra", "Poly.gcd", None),
    ("algebra.RingElement.mul", "algebra", "RingElement.__mul__", None),
    ("bounds.delta_prob_bound", "bounds", "delta_prob_bound", None),
)


def tail(sorted_values: list) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least 10 samples above it,
    by nearest rank; (0, 0) when there are 10 samples or fewer."""
    n = len(sorted_values)
    if n <= 10:
        return 0.0, 0.0
    return 100 * (n - 10) / n, sorted_values[n - 11]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []  # (holder, attribute, original)
        self._caches: dict = {}  # span name -> (lru-cached function, misses at install)

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if count is not None:
                count(counters, name, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        resolved = []
        for name, module_name, path, count in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module("qc15." + module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            resolved.append((name, owner if owner_path else None, original, count))
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "qc15" or key.startswith("qc15.")]
        try:
            for name, cls, original, count in resolved:
                wrapped = self._wrap(name, original, count)
                for holder in [cls] if cls is not None else modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original))
                            setattr(holder, key, wrapped)
                if hasattr(original, "cache_info"):
                    self._caches[name] = (original, original.cache_info().misses)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def layer_values(self) -> dict[str, float]:
        """Per-layer metric values, by metric name."""
        spans = self.spans
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        durations: dict[str, list[int]] = defaultdict(list)
        for index, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - covered[index]
            durations[name].append(end - start)

        values: dict[str, float] = {}
        names = {name for name, *_ in TARGETS}
        for name in names:
            values[name + ".calls"] = calls[name]
            values[name + ".self_s"] = self_ns[name] / 1e9
        for name in ("codes.has_word_of_weight_at_most", "codes.construct_code"):
            ordered = sorted(durations[name])
            tail_pct, tail_ns = tail(ordered)
            values[name + ".p50_ms"] = ordered[(len(ordered) - 1) // 2] / 1e6 if ordered else 0.0
            values[name + ".tail_ms"] = tail_ns / 1e6
            values[name + ".tail_pct"] = tail_pct
        has_word = "codes.has_word_of_weight_at_most"
        values[has_word + ".yes_ratio"] = (
            self.counters[has_word + ".yes"] / calls[has_word] if calls[has_word] else 0.0
        )
        for key in ("rows", "flops_computed", "bytes_computed"):
            values["codes.gf_matmul." + key] = self.counters["codes.gf_matmul." + key]
        values["ensemble.restricted_elements.elements"] = self.counters[
            "ensemble.restricted_elements.elements"]
        lwm = "codes.low_weight_messages"
        if lwm in self._caches:
            cached, misses_before = self._caches[lwm]
            values[lwm + ".misses"] = cached.cache_info().misses - misses_before
        else:  # not cached: every call computes
            values[lwm + ".misses"] = calls[lwm]
        return values

    def write_spans(self, path) -> None:
        """JSON lines: one header with the counters, then one line per span."""
        with open(path, "w") as out:
            out.write(json.dumps({"run": self.run_id, "absent": self.absent,
                                  "counters": dict(self.counters)}) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                      "start_ns": start, "end_ns": end,
                                      "parent": parent}) + "\n")
