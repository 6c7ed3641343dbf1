"""A fixed reference probe that measures how fast the host runs right now.

The benchmark runs on a shared host whose speed drifts: other tenants' load
slows every process here by up to about 2x, in phases that last from a
second to minutes, so a phase can cover a whole run or change in the middle
of a sweep. The probe below does the same work every time: products of
polynomials over GF(3) and row reduction of a small matrix over GF(3), in
pure Python, the interpreter work that most of a qc15 sweep is made of. It
uses neither qc15 nor numpy, so no change to the program moves it and it
adds nothing to a worker's peak RSS.

HostSampler times one probe every PERIOD_S seconds while a sweep runs, from
a SIGALRM handler, and keeps what the handlers cost so that worker.py can
take it off the sweep's wall and CPU time. run.py divides each sweep's
times by the sweep's host scale: its mean probe time over REFERENCE_S.
kernel_seconds() times a run of probes outside a sweep, for the set-up time.

    python3 perfbench/calibrate.py     # five kernel passes, in seconds
"""

from __future__ import annotations

import signal
import time

P = 3
PERIOD_S = 0.1
KERNEL_PROBES = 30
# One probe on a 2-vCPU KVM guest (Intel Xeon, 2.0 GHz, Python 3.11)
# in the host's fast phase. Only the ratio to it matters: the metrics read as
# if every sweep had run at this speed.
REFERENCE_S = 0.002
_GENS = [[[(i * i + 2 * (j + shift) + i * (j + shift)) % P for j in range(39)] for i in range(12)]
         for shift in range(2)]


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % n] = (out[(i + j) % n] + x * y) % P
    return tuple(out)


def _poly_products() -> int:
    a = tuple((7 * i + 1) % P for i in range(13))
    b = tuple((5 * i + 2) % P for i in range(13))
    acc = 0
    for _ in range(60):
        a = _poly_mul_mod(a, b, 13)
        acc += sum(a)
    return acc


def _row_reduction(gen: list[list[int]]) -> int:
    m = [row[:] for row in gen]
    r = 0
    for c in range(len(m[0])):  # Gauss-Jordan elimination mod 3
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]  # x is its own inverse mod 3
        m[r] = [x * inv % P for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                f = row[c]
                m[i] = [(x - f * y) % P for x, y in zip(row, m[r])]
        r += 1
        if r == len(m):
            break
    return sum(map(sum, m))


def probe_seconds() -> float:
    """Wall time of one probe."""
    start = time.perf_counter()
    _poly_products()
    for gen in _GENS:
        _row_reduction(gen)
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Mean probe time over a run of KERNEL_PROBES probes."""
    return sum(probe_seconds() for _ in range(KERNEL_PROBES)) / KERNEL_PROBES


class HostSampler:
    """Probe the host every PERIOD_S seconds of wall time while in the block.

    `probes` holds each probe's wall time; `wall_s` and `cpu_s` what the
    handlers took in all, by the wall clock and by this thread's CPU clock."""

    def __init__(self):
        self.probes: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _handler(self, signum, frame):
        start, cpu = time.perf_counter(), time.thread_time()
        self.probes.append(probe_seconds())
        self.cpu_s += time.thread_time() - cpu
        self.wall_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


if __name__ == "__main__":
    for _ in range(5):
        print(f"{kernel_seconds():.5f}")
