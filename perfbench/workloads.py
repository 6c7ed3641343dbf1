"""The benchmark's workloads: each is one `qc15 sweep` invocation at q = 3.

The workload seed is a benchmark argument; it reaches the program only as
the sweep's `--seed`. A point is one answered element of the pair space: a
Monte-Carlo trial, or one enumerated pair of an exact row. The count depends
only on the arguments, never on the algorithm that answers them.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 42
# Seeds whose full CSV output is pinned in reference.json: the default, and
# one held out for checking later performance claims.
PINNED_SEEDS = (42, 1505)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    options: tuple[str, ...]  # sweep options other than --q, --trials and --seed
    trials: int | None  # None for exact sweeps
    points: int  # pair-space points answered by one invocation

    def argv(self, seed: int, trials: int | None = None) -> list[str]:
        argv = ["sweep", "--q", "3", *self.options]
        if self.trials is not None:
            argv += ["--trials", str(trials or self.trials)]
        return argv + ["--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-delta-star",
            "criterion 8 at delta ~ delta*: no light word at m=13, so every trial runs "
            "the full candidate scan; small m is mostly construction",
            ("--m", "5,7,11,13", "--delta", "0.106"),
            trials=60,
            points=4 * 60,
        ),
        Workload(
            "mc-mixed",
            "m=11 at two thresholds: scan-bound (~93%), the threshold query often answers "
            "yes, two delta rows per code, largest candidate block",
            ("--m", "11", "--delta", "0.25,0.3"),
            trials=36,
            points=2 * 36,
        ),
        Workload(
            "exact-m5",
            "two exact sweeps of all 6,561 pairs at m=5: construction dominates, the scan "
            "is small; the target of CRT enumeration and single elimination",
            ("--m", "5", "--delta", "0.106,0.3", "--exact"),
            trials=None,
            points=2 * 3**8,
        ),
        Workload(
            "mc-fullrank",
            "Pr(dim = m-1) at m=13,31: only sampling and gcds run, no code matrices or "
            "scan; the bypass workload where scan or construction changes predict no change",
            ("--m", "13,31", "--fullrank"),
            trials=1000,
            points=2 * 1000,
        ),
    )
}
