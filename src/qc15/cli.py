"""Command-line front end: construct, distance, sweep, bounds.

Exit codes: 0 success, 2 validation error, 3 enumeration/resource limit.
Identical arguments (and seed) produce byte-identical output; the default
seed comes from the QC15_SEED environment variable, falling back to 0.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import ensemble
from .algebra import PrimeField, RingElement, min_factor_degree
from .codes import DEFAULT_ENUM_LIMIT, construct_code
from .ensemble import CSV_FIELDS, EnsembleReport
from .errors import BoundOverflow, EnumerationTooLarge, QC15Error

# The objects the imports leave are long-lived: moved out of the collector's
# generations, no collection during a command scans them again.
gc.freeze()

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_LIMIT = 3


class ValidationError(Exception):
    """Validation failure carrying a message for stderr."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line, exit 2, like every
    other validation error; subparsers are built with the same class."""

    def error(self, message: str):
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


def _field(q: int) -> PrimeField:
    try:
        return PrimeField(q)
    except ValueError:
        raise ValidationError("q must be an odd prime")


def _default_seed() -> int:
    try:
        return _int_at_least(os.environ.get("QC15_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(f"QC15_SEED {exc}")


def _check_m(m: int) -> int:
    if m < 1:
        raise ValidationError(f"m must be at least 1, got {m}")
    return m


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers; a blank entry is an error, not skipped."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ValidationError(f"--m needs comma-separated integers, got {text!r}")


def _parse_delta(text: str) -> Fraction:
    """One threshold: an exact nonnegative number whose float value is finite."""
    try:
        delta = ensemble.as_fraction(text)
        float(delta)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValidationError(f"delta must be a finite number, got {text!r}")
    if delta < 0:
        raise ValidationError(f"delta must be nonnegative, got {text}")
    return delta


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValidationError(f"--scan-m needs a range LO..HI, got {text!r}")
    if hi < lo:
        raise ValidationError(f"--scan-m needs a range LO..HI with LO <= HI, got {text!r}")
    if hi < 2:
        raise ValidationError(f"--scan-m needs a range LO..HI with HI >= 2, got {text!r}")
    return lo, hi


def _int_at_least(text: str, low: int = 0) -> int:
    """The value of a counted option: --max-enum, --seed or QC15_SEED (low 0),
    or --trials (low 1)."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


def _ideal_bound(m: int, d: int, ell: int) -> float | None:
    """m^(d/ell), or None past the float range."""
    try:
        return float(m ** (d / ell))
    except OverflowError:
        return None


# -- construct / distance ------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> int:
    field = _field(args.q)
    m = _check_m(args.m)
    try:
        a = RingElement.from_text(field, 2 * m, args.a)
        a_prime = RingElement.from_text(field, m, args.a_prime)
    except ValueError as exc:
        raise ValidationError(f"bad coefficient string: {exc}")
    code = construct_code(a, a_prime)
    doc = code.to_json_dict(code.min_distance(limit=args.max_enum) if args.distance else None)
    if args.list_codewords:
        words = code.codewords(limit=args.max_enum)
        doc["codewords"] = sorted(w.to_string() for w in words)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


# -- sweep ----------------------------------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    field = _field(args.q)
    ms = [_check_m(m) for m in _parse_int_list(args.m)]
    seed = args.seed if args.seed is not None else _default_seed()
    if not args.fullrank and not args.delta:
        raise ValidationError("sweep needs --delta unless --fullrank is given")
    if args.fullrank and args.delta is not None:
        raise ValidationError("--fullrank takes no --delta")
    deltas = [] if args.fullrank else [_parse_delta(d) for d in args.delta.split(",")]

    reports: list[EnsembleReport] = []
    for m in ms:
        if args.fullrank:
            reports.append(
                ensemble.exact_fullrank_report(field, m)
                if args.exact
                else ensemble.mc_fullrank_prob(field, m, args.trials, seed)
            )
        elif args.exact:
            try:
                reports += ensemble.exact_delta_leq_probs(field, m, deltas, args.max_enum)
            except EnumerationTooLarge:
                warn = "exact sweep infeasible; fell back to montecarlo"
                rows = ensemble.mc_delta_probs(field, m, deltas, args.trials, seed, args.max_enum)
                reports += [r.with_warning(warn) for r in rows]
        else:
            reports += ensemble.mc_delta_probs(field, m, deltas, args.trials, seed, args.max_enum)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for report in reports:
        writer.writerow(report.csv_row())
    return EXIT_OK


# -- bounds -----------------------------------------------------------------------------


def _cmd_bounds(args: argparse.Namespace) -> int:
    field = _field(args.q)
    q = field.p
    doc: dict = {"q": q, "delta_star": bounds_mod.delta_star(q)}
    doc["h_inv_half"] = bounds_mod.qary_entropy_inv(q, 0.5)

    if args.scan_m is not None:
        if args.m is not None or args.delta is not None or args.ideals:
            raise ValidationError("--scan-m takes no --m, --delta or --ideals")
        lo, hi = _parse_range(args.scan_m)
        doc["scan"] = bounds_mod.scan_goodness_records(q, lo, hi)
        if not doc["scan"]:
            raise ValidationError(f"--scan-m {args.scan_m} holds no m >= 2 coprime to q={q}")
        print(json.dumps(doc, indent=2))
        return EXIT_OK

    if args.m is None:
        raise ValidationError("bounds needs --m or --scan-m")
    m = args.m
    ell = min_factor_degree(m, q)  # validates m and its coprimality to q
    doc.update(
        {
            "m": m,
            "ell_m": ell,
            "goodness_indicator": bounds_mod.goodness_indicator(m, q),
            "exact_fullrank_prob": float(ensemble.exact_fullrank_prob(m, q)),
        }
    )
    if args.delta is not None:
        delta = float(_parse_delta(args.delta))
        doc["delta"] = delta
        try:
            doc["delta_prob_bound"] = bounds_mod.delta_prob_bound(m, delta, q)
        except BoundOverflow as exc:
            doc["delta_prob_bound"] = None
            doc["warning"] = f"no bound: {exc}"
    if args.ideals:
        counts = ensemble.count_ideals_by_dim(m, q)
        doc["ideal_counts"] = {
            str(d): {"count": c, "bound": _ideal_bound(m, d, ell)}
            for d, c in counts.items()
            if d > 0
        }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qc15",
        description="Quasi-cyclic codes of index 1½: construction, distance, "
        "ensemble experiments, and analytic bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--q", type=int, required=True, help="odd prime field size")
        p.add_argument("--max-enum", type=_int_at_least, default=DEFAULT_ENUM_LIMIT,
                       help="most words, candidate messages or pairs one enumeration "
                       "may count, at least 0 (default 2^24)")

    def add_pair(p: argparse.ArgumentParser):
        add_common(p)
        p.set_defaults(run=_cmd_construct)
        p.add_argument("--m", type=int, required=True, help="co-index parameter")
        p.add_argument("--a", type=str, required=True,
                       help="ascending coefficients of a, e.g. 2,1,2,1")
        p.add_argument("--a-prime", type=str, required=True, dest="a_prime",
                       help="ascending coefficients of a'")
        p.add_argument("--list-codewords", action="store_true", dest="list_codewords",
                       help="include all codewords")

    p_con = sub.add_parser("construct", help="build a code from (a, a') and print JSON")
    add_pair(p_con)
    p_con.add_argument("--distance", action="store_true", help="include the minimum distance")

    p_dist = sub.add_parser("distance", help="construct and always report the minimum distance")
    add_pair(p_dist)
    p_dist.set_defaults(distance=True)

    p_sw = sub.add_parser("sweep", help="ensemble experiments, one CSV row per (m, delta)")
    add_common(p_sw)
    p_sw.set_defaults(run=_cmd_sweep)
    p_sw.add_argument("--m", type=str, required=True, help="comma-separated co-index list")
    p_sw.add_argument("--delta", type=str, default=None,
                      help="comma-separated relative-distance thresholds")
    p_sw.add_argument("--trials", type=lambda text: _int_at_least(text, 1), default=1000,
                      help="at least 1 (default 1000)")
    p_sw.add_argument("--seed", type=_int_at_least, default=None,
                      help="at least 0; default from QC15_SEED, else 0")
    p_sw.add_argument("--exact", action="store_true",
                      help="full pair-space sweep instead of sampling")
    p_sw.add_argument("--fullrank", action="store_true",
                      help="estimate Pr(dim = m-1) instead of the distance event; "
                      "takes no --delta")

    p_bd = sub.add_parser("bounds", help="analytic bound table as JSON")
    p_bd.set_defaults(run=_cmd_bounds)
    p_bd.add_argument("--q", type=int, required=True)
    p_bd.add_argument("--m", type=int, default=None)
    p_bd.add_argument("--delta", type=str, default=None)
    p_bd.add_argument("--ideals", action="store_true",
                      help="include ideal counts by dimension with their bounds")
    p_bd.add_argument("--scan-m", type=str, default=None, dest="scan_m",
                      help="range LO..HI; report record-small goodness indicators")
    return parser


def _run(args: argparse.Namespace) -> int:
    try:
        return args.run(args)
    except (EnumerationTooLarge, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValidationError, QC15Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a reader that left early is seen here, not at exit
    except BrokenPipeError:
        # nobody reads the rest; the flush at interpreter exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
