"""Regenerate reference.json from the qc15 sources in this checkout.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted: the file pins what that
commit prints. For every workload it stores the CSV at each pinned seed
(exact sweeps once, since they ignore the seed), the exact fractions of exact
rows, and for Monte-Carlo distance rows one large reference run whose hit
count sets the band that unpinned seeds are checked against.
"""

from __future__ import annotations

import json
import sys

from check import REFERENCE, parse_rows
from run import src_sha256
from worker import run_sweep
from workloads import DEFAULT_SEED, PINNED_SEEDS, WORKLOADS

BAND_SEED = 9001
BAND_TRIALS = {"mc-delta-star": 2000, "mc-mixed": 1000}


def sweep_lines(argv: list[str]) -> list[str]:
    result = run_sweep(argv)
    if result["rc"] != 0:
        sys.exit(f"error: {' '.join(argv)} failed: rc={result['rc']} {result['error']}")
    return result["csv"].splitlines()


def main() -> None:
    header = None
    workloads = {}
    for name, workload in WORKLOADS.items():
        entry: dict = {"pinned": {}}
        for seed in PINNED_SEEDS if workload.trials is not None else (DEFAULT_SEED,):
            lines = sweep_lines(workload.argv(seed))
            header = lines[0]
            entry["pinned"][str(seed) if workload.trials is not None else "any"] = lines[1:]
        if workload.trials is None:
            rows = parse_rows("\n".join([header, *entry["pinned"]["any"]]))
            entry["exact_fractions"] = [f"{r['hits']}/{r['trials']}" for r in rows]
        if name in BAND_TRIALS:
            lines = sweep_lines(workload.argv(BAND_SEED, BAND_TRIALS[name]))
            entry["bands"] = [
                {"seed": BAND_SEED, "trials": int(row["trials"]), "hits": int(row["hits"])}
                for row in parse_rows("\n".join(lines))
            ]
        workloads[name] = entry
        print(f"{name}: done", file=sys.stderr)
    reference = {
        "src_sha256": src_sha256(),
        "header": header,
        "default_seed": DEFAULT_SEED,
        "workloads": workloads,
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
