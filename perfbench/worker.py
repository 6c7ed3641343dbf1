"""One benchmark worker process.

    python3 perfbench/worker.py '<json config>'

The worker imports qc15 from the checkout's src/ and prints `ready` as its
first line, which is where the parent stops the set-up clock. It then runs
the sweep in the config (if any) through `qc15.cli.main`, optionally under
the tracer, and prints one JSON line with the captured CSV, wall and CPU time
and peak RSS, and the host probes taken during the sweep (calibrate.py).
It also times a run of probes right after `ready` and another as its last
act, which with the previous worker's last one bracket its set-up. A config
with "env" set also reports the environment.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from calibrate import HostSampler, kernel_seconds
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def use_checkout_src():
    """Import qc15.cli from this checkout's src/, refusing any other copy of qc15."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qc15.cli

    if Path(qc15.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"qc15 was imported from {qc15.cli.__file__}, not from {SRC}")
    return qc15.cli


def run_sweep(argv: list[str], tracer=None) -> dict:
    """Run `qc15.cli.main(argv)` once, capturing stdout; returns CSV, exit code and costs.

    Without a tracer the host is probed during the sweep (calibrate.HostSampler)
    and the probes' cost is taken off the sweep's wall and CPU time. Under the
    tracer it is not, so that no probe lands in a layer's self time."""
    cli = use_checkout_src()
    out = io.StringIO()
    error = None
    sampler = HostSampler() if tracer is None else None
    with tracer if tracer is not None else sampler:
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising sweep is a failed invocation, reported as such
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result = {"csv": out.getvalue(), "rc": rc, "error": error, "wall_s": wall, "cpu_s": cpu}
    if sampler is not None:
        result.update(wall_s=wall - sampler.wall_s, cpu_s=cpu - sampler.cpu_s,
                      probe_s=sampler.probes)
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _process_threads() -> int | None:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    """Interpreter, numpy, BLAS and thread settings as this process sees them."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError) as exc:  # older numpy: no dict form of the build config
        blas = {"name": None, "version": None, "error": str(exc)}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads_after_numpy_import": _process_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def main() -> int:
    config = json.loads(sys.argv[1])
    try:
        use_checkout_src()
    except ImportError as exc:
        print(f"error: cannot import qc15 from this checkout: {exc}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    result: dict = {"ready_probe_s": kernel_seconds()}
    if config.get("env"):
        result["env"] = environment()
    if "argv" in config:
        tracer = Tracer(config["run_id"]) if config.get("trace") else None
        result.update(run_sweep(config["argv"], tracer))
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["layers"] = tracer.layer_values()
            result["absent"] = tracer.absent
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"{config['run_id']}.spans.jsonl")
    result["exit_probe_s"] = kernel_seconds()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
