"""Closed-form analytic quantities: q-ary entropy, its inverse, and the ensemble bounds.

All computation is plain binary64. The entropy inverse is found by bisection
to an argument tolerance of 1e-12; every downstream comparison against these
values should allow slack of that order rather than expecting exact equality.
"""

from __future__ import annotations

import math

from .algebra import min_factor_degree
from .errors import BoundOverflow, DomainError

BISECTION_TOL = 1e-12


def qary_entropy(q: int, x: float) -> float:
    """h_q(x) = x log_q(q-1) - x log_q(x) - (1-x) log_q(1-x), with 0 log 0 = 0.

    Strictly increasing on [0, 1 - 1/q], with h_q(0) = 0 and h_q(1 - 1/q) = 1.
    The endpoints are exact branch cases, not limits.
    """
    if x < 0.0 or x > 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return math.log(q - 1, q)
    lq = math.log(q)
    return (x * math.log(q - 1) - x * math.log(x) - (1.0 - x) * math.log(1.0 - x)) / lq


def qary_entropy_inv(q: int, y: float) -> float:
    """The unique x in [0, 1 - 1/q] with h_q(x) = y, by bisection."""
    if y < 0.0 or y > 1.0:
        raise DomainError(f"entropy inverse argument must lie in [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    top = 1.0 - 1.0 / q
    if y == 1.0:
        return top
    lo, hi = 0.0, top
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if qary_entropy(q, mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def delta_star(q: int) -> float:
    """The provable relative-distance threshold (2/3) * h_q^{-1}(1/2).

    Always below 1/3; approximately 0.1064 for q = 3.
    """
    return (2.0 / 3.0) * qary_entropy_inv(q, 0.5)


def ideal_expectation_bound(ideal_dim: int, m: int, delta: float, q: int) -> float:
    """Upper bound q^(-2d + 2d h_q(3 delta / 2) + log_q m) on the probability
    that a fixed d-dimensional ideal supplies a nonzero word of relative
    weight at most delta under a uniform restricted pair.
    """
    if ideal_dim < 0:
        raise DomainError(f"ideal dimension must be >= 0, got {ideal_dim}")
    arg = 1.5 * delta
    if arg > 1.0:
        raise DomainError(f"3*delta/2 must be <= 1, got {arg}")
    exponent = -2.0 * ideal_dim + 2.0 * ideal_dim * qary_entropy(q, arg) + math.log(m, q)
    return q**exponent


def delta_prob_bound(m: int, delta: float, q: int) -> float:
    """The bound sum_{j=ell}^{m-1} q^(-2j(1/2 - h_q(3 delta/2) - log_q(m)/ell))
    on Pr(relative distance <= delta) over the restricted ensemble.

    Not clamped to [0, 1]: at small m the sum routinely exceeds 1, and the
    inequality against the exact probability is still meaningful. A sum past
    the largest float raises BoundOverflow.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    arg = 1.5 * delta
    if arg > 1.0:
        raise DomainError(f"3*delta/2 must be <= 1, got {arg}")
    ell = min_factor_degree(m, q)
    c = 0.5 - qary_entropy(q, arg) - math.log(m, q) / ell
    try:
        total = sum(q ** (-2.0 * j * c) for j in range(ell, m))
    except OverflowError:  # a single term past the float range
        total = math.inf
    if total == math.inf:
        raise BoundOverflow(f"the sum exceeds the float range at m={m}")
    return total


def goodness_indicator(m: int, q: int) -> float:
    """log_q(m) / ell(m): the quantity that must vanish along a good co-index sequence."""
    return math.log(m, q) / min_factor_degree(m, q)


def scan_goodness_records(q: int, lo: int, hi: int) -> list[dict]:
    """Scan m in [lo, hi] coprime to q and report record-small goodness indicators."""
    records: list[dict] = []
    best = math.inf
    for m in range(max(lo, 2), hi + 1):
        if math.gcd(m, q) != 1:
            continue
        ind = goodness_indicator(m, q)
        if ind < best:
            best = ind
            records.append(
                {
                    "m": m,
                    "ell_m": min_factor_degree(m, q),
                    "goodness_indicator": ind,
                }
            )
    return records
