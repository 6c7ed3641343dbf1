"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run real sweeps: about two minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from calibrate import REFERENCE_S
from check import check_output, load_reference
from worker import ROOT, run_sweep, use_checkout_src
from workloads import PINNED_SEEDS, WORKLOADS

COUNT_SUFFIXES = (".calls", ".rows", ".flops_computed", ".bytes_computed", ".misses",
                  ".elements", ".yes_ratio", ".tail_pct", "zero_codes")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = [result_of(run_bench("--workload", workload, "--seed", "42", "--seconds", "1",
                                "--trace", "1")) for _ in range(2)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(runs[0]["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = [{k: v["value"] for k, v in run["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
              for run in runs]
    assert counts[0] == counts[1]
    assert all(run["correct"] and run["failed"] == 0 for run in runs)


def test_end_to_end_run_reports_every_metric():
    result = result_of(run_bench("--workload", "mc-fullrank", "--seed", "3", "--seconds", "1"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_host_scale_cancels_a_uniform_slowdown():
    def sweep(slowdown: float) -> dict:
        return {"wall_s": 2.0 * slowdown, "cpu_s": 2.5 * slowdown, "maxrss_kb": 4096,
                "probe_s": [REFERENCE_S * slowdown] * 20}

    fast, measured_fast = run.end_to_end_values("mc-mixed", [sweep(1.0)], [(0.2, 1.0)])
    slow, measured_slow = run.end_to_end_values("mc-mixed", [sweep(1.5)], [(0.3, 1.5)])
    assert slow == pytest.approx(fast)
    assert fast["pairs_per_s"] == pytest.approx(WORKLOADS["mc-mixed"].points / 2.0)
    assert measured_slow["pairs_per_s"] == pytest.approx(measured_fast["pairs_per_s"] / 1.5)


def _failed_rows(workload: str, seed: int) -> int:
    result = run_sweep(WORKLOADS[workload].argv(seed))
    assert result["rc"] == 0, result["error"]
    return sum(f is not None for f in check_output(workload, seed, result["csv"],
                                                   load_reference()))


@pytest.mark.parametrize("seed", [*PINNED_SEEDS, 7])
def test_correct_program_passes_the_gate(seed):
    assert _failed_rows("mc-fullrank", seed) == 0


@pytest.mark.parametrize("workload, seed", [("mc-mixed", PINNED_SEEDS[0]), ("mc-mixed", 7),
                                            ("exact-m5", PINNED_SEEDS[1])])
def test_broken_threshold_query_raises_error_rate(monkeypatch, workload, seed):
    use_checkout_src()
    import qc15.codes

    monkeypatch.setattr(qc15.codes.Qc15Code, "has_word_of_weight_at_most",
                        lambda self, max_weight, limit=None: False)
    assert _failed_rows(workload, seed) > 0


def _bindings() -> dict:
    """Every attribute of every qc15 module and of every class they define, by identity."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "qc15" or name.startswith("qc15."):
            for key, value in vars(module).items():
                found[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("qc15"):
                    for attr, member in vars(value).items():
                        found[(name, key, attr)] = member
    return found


def test_traced_run_restores_every_function():
    use_checkout_src()
    before = _bindings()
    for argv in (WORKLOADS["mc-mixed"].argv(1, trials=2), WORKLOADS["mc-fullrank"].argv(1, 5)):
        with tracer.Tracer("restore") as t:
            assert t._patches, "nothing was wrapped"
            assert run_sweep(argv)["rc"] == 0
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_missing_symbol_is_reported_absent(monkeypatch):
    use_checkout_src()
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("codes.removed_layer", "codes", "removed_layer", None),
        ("algebra.Gone.method", "algebra", "Gone.method", None)))
    t = tracer.Tracer("absent")
    run_sweep(WORKLOADS["mc-fullrank"].argv(1, 5), t)
    assert t.absent == ["codes.removed_layer", "algebra.Gone.method"]
    assert t.layer_values()["codes.removed_layer.calls"] == 0


def test_without_program_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "mc-mixed", "--seed", "1", "--seconds", "5", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
