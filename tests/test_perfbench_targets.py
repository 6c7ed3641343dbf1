"""The benchmark's span tracer must find every function it wraps.

perfbench/tracer.py reads a function it cannot find as 0 in every per-layer
metric, so a rename or deletion in qc15 would zero those metrics silently.
The tracer is loaded from its file and used as the benchmark uses it.
"""

import importlib.util
from pathlib import Path

from qc15 import ensemble
from qc15.algebra import PrimeField

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qc15_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    tracer = load_tracer()
    original = ensemble.restricted_elements
    with tracer.Tracer("t") as t:
        a_list, ap_list = ensemble.restricted_elements(PrimeField(3), 2)
    assert t.absent == []
    assert ensemble.restricted_elements is original
    # the element counter sums the lengths of the two returned sequences
    assert (len(a_list), len(ap_list)) == (3, 3)
    assert t.counters["ensemble.restricted_elements.elements"] == 6
