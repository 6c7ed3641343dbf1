"""Output gate behind the failed/attempted counts (error_rate).

Each CSV row of a sweep is checked against reference.json, which holds the
rows the program printed before this benchmark existed:

* exact rows do not depend on the seed and must match byte for byte; their
  hits/trials must also equal the pinned exact fraction;
* Monte-Carlo rows at a pinned seed must match byte for byte;
* Monte-Carlo rows at any other seed must keep every seed-independent column,
  be internally consistent, and have a hit count whose Wilson interval
  (z = 5) meets the reference probability: the exact full-rank probability,
  recomputed here from cyclotomic coset sizes, or the interval of a large
  reference run for distance rows.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
Z = 5.0
SEED_FREE = ("q", "m", "delta", "mode", "trials", "exact", "bound", "warning")


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def wilson(hits: int, trials: int, z: float = Z) -> tuple[float, float]:
    centre = (hits + z * z / 2) / (trials + z * z)
    half = z / (trials + z * z) * math.sqrt(hits * (trials - hits) / trials + z * z / 4)
    return centre - half, centre + half


def coset_sizes(m: int, q: int) -> list[int]:
    """Sizes of the nonzero cyclotomic cosets {i q^k mod m}."""
    seen, sizes = {0}, []
    for i in range(1, m):
        if i not in seen:
            size, j = 0, i
            while j not in seen:
                seen.add(j)
                size += 1
                j = j * q % m
            sizes.append(size)
    return sizes


def fullrank_probability(m: int, q: int) -> Fraction:
    """Pr(dim = m - 1) over the restricted ensemble: prod (1 - q^(-2d))."""
    return math.prod((1 - Fraction(1, q ** (2 * d)) for d in coset_sizes(m, q)), start=Fraction(1))


def parse_rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(csv_text.splitlines()))


def _check_unpinned(row: dict, ref: dict, band, seed: int) -> str | None:
    try:
        return _check_unpinned_fields(row, ref, band, seed)
    except (KeyError, ValueError, TypeError) as exc:
        return f"unreadable row {row!r}: {exc}"


def _check_unpinned_fields(row: dict, ref: dict, band, seed: int) -> str | None:
    for key in SEED_FREE:
        if row[key] != ref[key]:
            return f"{key}={row[key]!r}, reference {ref[key]!r}"
    if row["seed"] != str(seed):
        return f"seed column {row['seed']!r}, expected {seed}"
    trials, hits = int(row["trials"]), int(row["hits"])
    if not 0 <= hits <= trials or row["estimate"] != repr(hits / trials):
        return f"hits {hits} / estimate {row['estimate']} inconsistent with {trials} trials"
    zero = round(float(row["zero_code_fraction"]) * trials)
    if not 0 <= zero <= trials or row["zero_code_fraction"] != repr(zero / trials):
        return f"zero_code_fraction {row['zero_code_fraction']} is not a count of {trials}"
    low, high = wilson(hits, trials)
    if row["delta"] == "":
        p = fullrank_probability(int(row["m"]), int(row["q"]))
        if row["exact"] != repr(float(p)):
            return f"exact {row['exact']}, expected {float(p)!r}"
        ref_low = ref_high = float(p)
    else:
        ref_low, ref_high = wilson(band["hits"], band["trials"])
    if high < ref_low or low > ref_high:
        return (f"{hits}/{trials} hits: interval [{low:.4f}, {high:.4f}] misses the "
                f"reference [{ref_low:.4f}, {ref_high:.4f}]")
    return None


def check_output(workload: str, seed: int, csv_text: str, reference: dict) -> list[str | None]:
    """One entry per expected row: None when the row is right, else the reason it is not."""
    ref = reference["workloads"][workload]
    pinned = ref["pinned"].get(str(seed), ref["pinned"].get("any"))
    expected_rows = ref["pinned"][str(reference["default_seed"])] if pinned is None else pinned
    expected = [reference["header"], *expected_rows]
    lines = csv_text.splitlines()
    if len(lines) != len(expected) or lines[0] != expected[0]:
        return [f"output has {len(lines)} lines, expected {len(expected)}"] * len(expected_rows)
    got_rows = parse_rows(csv_text)
    if pinned is not None:
        failures = [None if got == want else f"row {got!r} != pinned {want!r}"
                    for got, want in zip(lines[1:], pinned)]
        for i, fraction in enumerate(ref.get("exact_fractions", [])):
            row = got_rows[i]
            if failures[i] is None and Fraction(f"{row['hits']}/{row['trials']}") != Fraction(fraction):
                failures[i] = f"hits/trials {row['hits']}/{row['trials']} != {fraction}"
        return failures
    want_rows = parse_rows("\n".join(expected))
    bands = ref.get("bands", [None] * len(want_rows))
    return [_check_unpinned(got, want, band, seed)
            for got, want, band in zip(got_rows, want_rows, bands)]
