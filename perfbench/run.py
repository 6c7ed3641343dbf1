"""The qc15 benchmark.

    python3 perfbench/run.py --workload mc-delta-star --seed 42 --seconds 25 --trace 0

Runs one workload (see workloads.py) through `qc15.cli.main(["sweep", ...])`,
each sweep in a fresh worker process started one at a time, and checks every
CSV row against reference.json (check.py).

--trace 0 repeats the sweep until --seconds is spent and reports the
end-to-end metrics of BENCHMARK.json: set-up time (process start until qc15
is imported, median over at least SETUP_SAMPLES processes), and per sweep the
points answered per second, CPU time per point and peak RSS, as medians over
the sweeps. Times are scaled to the reference host speed of calibrate.py,
probed by the workers during each sweep and around each set-up; the
unscaled medians are printed before the result line.

--trace 1 alternates plain sweeps and sweeps under tracer.py until --seconds
is spent, and reports the per-layer metrics of BENCHMARK.json from the first
traced sweep, so that counts repeat exactly; trace.overhead is the traced
over the plain sweep wall time of all of them, minus 1.

The last line of stdout is the JSON result. The environment, every sweep
and the reason for every failed row go to .perfbench_out/ in the checkout;
the traced run's spans go there as JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from calibrate import REFERENCE_S
from check import check_output, load_reference, parse_rows
from worker import OUT, ROOT, SRC
from workloads import DEFAULT_SEED, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 11
DEADLINE_S = 170.0  # every worker is killed by then, so the run ends within 180 s


class RunFailed(Exception):
    """The run cannot produce metrics: qc15 does not import, or no sweep reported."""


class Bench:
    def __init__(self):
        self.started = time.perf_counter()
        self.last_exit_probe_s: float | None = None

    def spawn(self, config: dict) -> tuple[float, dict | None, str]:
        """Start a worker and wait for it: (set-up seconds, its result or None, its stderr)."""
        remaining = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        with tempfile.TemporaryFile("w+") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), json.dumps(config)],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr,
                text=True,
            )
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - start
                out = proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            stderr.seek(0)
            err = stderr.read()
        if ready.strip() != "ready":
            raise RunFailed(err.strip() or f"worker exited with code {proc.returncode}")
        lines = out.splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is not None:
            # Probes ran at the end of the previous worker and right after this
            # one was ready, so together they bracket this worker's set-up.
            around = [t for t in (self.last_exit_probe_s, result["ready_probe_s"]) if t]
            result["setup_scale"] = statistics.fmean(around) / REFERENCE_S
            self.last_exit_probe_s = result["exit_probe_s"]
        return setup, result, err

    def sweep(self, name: str, seed: int, reference: dict, trace: bool = False) -> dict:
        """One sweep in a fresh worker, with its rows checked."""
        config = {"argv": WORKLOADS[name].argv(seed), "trace": trace,
                  "run_id": f"{name}-seed{seed}"}
        setup, result, err = self.spawn(config)
        if result is None:
            result = {"csv": "", "rc": None, "error": f"worker died: {err.strip()[-500:]}"}
        failures = check_output(name, seed, result["csv"], reference)
        if result["rc"] != 0 or result["error"]:
            reason = f"exit code {result['rc']}, {result['error'] or err.strip()[-500:]}"
            failures = [reason] * len(failures)
        result.update(setup_s=setup, failures=failures)
        return result


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def src_sha256() -> str:
    """Digest of every .py file under src/, naming the code a result was measured on.

    Computed here rather than in the worker: importing hashlib maps libcrypto,
    which would add about 3.5 MiB to every worker's peak_rss_mb."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host_scale(sweep: dict) -> float:
    """How much slower than REFERENCE_S the host ran during this sweep.

    A sweep shorter than one probe period has no probes of its own; the runs
    of probes just before and after it stand in."""
    probes = sweep["probe_s"] or [sweep["ready_probe_s"], sweep["exit_probe_s"]]
    return statistics.fmean(probes) / REFERENCE_S


def end_to_end_values(name: str, sweeps: list[dict], setups: list[tuple[float, float]],
                      ) -> tuple[dict, dict]:
    """The metrics at the reference host speed, and the same figures as measured.

    Each sweep's wall and CPU time is divided by the host scale probed during
    it, and each worker's set-up time by the host scale probed just before
    and after it; then the median over the run is taken. `setups` holds
    (set-up seconds, host scale) pairs."""
    points = WORKLOADS[name].points
    timed = [s for s in sweeps if "wall_s" in s]
    scaled = {
        "setup_s": statistics.median(t / k for t, k in setups),
        "pairs_per_s": statistics.median(points * host_scale(s) / s["wall_s"] for s in timed),
        "cpu_ms_per_pair": statistics.median(1000 * s["cpu_s"] / points / host_scale(s)
                                             for s in timed),
        "peak_rss_mb": statistics.median(s["maxrss_kb"] / 1024 for s in timed),
    }
    measured = {
        "setup_s": statistics.median(t for t, _ in setups),
        "pairs_per_s": statistics.median(points / s["wall_s"] for s in timed),
        "cpu_ms_per_pair": statistics.median(1000 * s["cpu_s"] / points for s in timed),
        "host_scale": statistics.median(host_scale(s) for s in timed),
    }
    return scaled, measured


def per_layer_values(plain: list[dict], traced: list[dict]) -> dict:
    """Layer metrics of the first traced sweep; the overhead over all of them."""
    values = dict(traced[0]["layers"])
    values["trace.overhead"] = (sum(s["wall_s"] for s in traced)
                                / sum(s["wall_s"] for s in plain) - 1)
    values["ensemble.zero_codes"] = sum(
        round(float(row["zero_code_fraction"]) * int(row["trials"]))
        for row in parse_rows(traced[0]["csv"]) if None not in row.values())
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qc15" / "cli.py").is_file():
        print(f"error: no qc15 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = load_reference()
    bench = Bench()
    try:
        _, probe, _ = bench.spawn({"env": True})  # untimed: also writes the bytecode cache
        if probe is None:
            raise RunFailed("the environment probe failed")
        env = dict(probe["env"], commit=_commit(), src_sha256=src_sha256())

        setups: list[tuple[float, float]] = []
        measured: dict = {}
        # Sweep (a plain and a traced one in turn, when tracing) until one more
        # round would overrun --seconds.
        sweeps = []
        loop_start = time.perf_counter()
        while True:
            sweeps.append(bench.sweep(args.workload, args.seed, reference))
            if args.trace:
                sweeps.append(bench.sweep(args.workload, args.seed, reference, trace=True))
            rounds = len(sweeps) // (1 + args.trace)
            if (time.perf_counter() - loop_start) * (rounds + 1) / rounds > args.seconds:
                break
        if args.trace:
            if any("wall_s" not in s for s in sweeps):
                raise RunFailed("a sweep worker died; no per-layer metrics")
            values = per_layer_values(sweeps[0::2], sweeps[1::2])
            wanted = spec["per_layer"]
        else:
            setups = [(s["setup_s"], s["setup_scale"]) for s in sweeps if "setup_scale" in s]
            while len(setups) < SETUP_SAMPLES:
                setup, worker, err = bench.spawn({})
                if worker is None:
                    raise RunFailed(f"a set-up worker died: {err.strip()[-500:]}")
                setups.append((setup, worker["setup_scale"]))
            if not any("wall_s" in s for s in sweeps):
                raise RunFailed("every sweep worker died; no timings")
            values, measured = end_to_end_values(args.workload, sweeps, setups)
            wanted = spec["end_to_end"]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for s in sweeps for f in s["failures"]]
    failed = sum(f is not None for f in failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for i, s in enumerate(sweeps):
        print(f"sweep {i}: setup {s['setup_s']:.3f} s, wall {s.get('wall_s', 0):.3f} s, "
              f"cpu {s.get('cpu_s', 0):.3f} s, peak rss {s.get('maxrss_kb', 0) / 1024:.1f} MiB, "
              f"{sum(f is None for f in s['failures'])}/{len(s['failures'])} rows ok")
    for reason in [f for f in failures if f][:10]:
        print(f"failed row: {reason}")
    if args.trace and sweeps[1]["absent"]:
        print(f"absent from this qc15: {', '.join(sweeps[1]['absent'])}")
    if measured:
        print("as measured, before scaling to the reference host speed " + json.dumps(measured))
    print(f"error_rate {failed / len(failures):.6f} ({failed} of {len(failures)} rows failed)")
    print("env " + json.dumps(env))

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_s_and_host_scale": setups,
              "sweeps": [{k: v for k, v in s.items() if k not in ("csv", "layers")}
                         for s in sweeps],
              "values": values, "measured": measured}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(failures), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
