"""The restricted random-code ensemble and its exact / Monte-Carlo experiments.

The probability space is the product of two restricted ideals sampled
uniformly: multiples of (X^m + 1)(X - 1) inside R_{2m}, paired with multiples
of (X - 1) inside R_m. Both factors have dimension m - 1, so the space holds
p^{2(m-1)} equally likely pairs.

Event conventions
-----------------
"Relative distance <= delta" is implemented as "some nonzero codeword has
Hamming weight <= floor(3 m delta)". The zero code (only the pair (0, 0))
has no nonzero codeword, so it never satisfies the event and therefore counts
toward the complement; its frequency is reported separately in every report
because the relative distance of the zero code is not a defined quantity.

Experiments
-----------
Every experiment runs one event over one pair source of stacks: rows of a
and of a', each row standing for its unit orbit or, in stacks of TRIAL_BLOCK
seeded samples, for itself. An event answers a stack with one bool column
per report row: the distance event at each threshold, which builds and
scans each code once for all of them, or dim = m - 1 (restricted_dims, no
code). One tally weights the answers by the sizes and counts zero codes;
one builder turns the counts into an EnsembleReport per row.

The orbits: (a, a') and (u~ a, u a') span the same code for every unit u of
R_m, where u~ is any lift of u to R_{2m} (a is a multiple of X^m + 1, so
u~ a depends on u alone). On a nonzero cyclotomic coset of size d the pair's
component lies in GF(q^d)^2 and the units act on it by the scalars of
GF(q^d)^*, which leaves q^d + 2 orbits: zero and the q^d + 1 lines. The
restricted pair space therefore holds prod(q^d + 2) orbits, one per code.

Reproducibility
---------------
Monte-Carlo trial t draws its own generator from (seed, t), so serial and
parallel execution orders produce identical streams; trials are independent
and aggregation is order-free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from typing import Callable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .algebra import Poly, PrimeField, RingElement, coset_idempotents, cyclotomic_cosets
from .bounds import delta_prob_bound, qary_entropy
from .codes import (
    DEFAULT_ENUM_LIMIT,
    circulant_matrix,
    construct_code,
    gf_matmul,
    low_weight_message_count,
)
from .errors import (
    DomainError,
    EmptyTrialSet,
    EnumerationTooLarge,
    NotCoprime,
)

DeltaLike = Union[float, str, Fraction]


def as_fraction(delta: DeltaLike) -> Fraction:
    """Exact value of the threshold parameter. Strings like "0.106" are read
    as exact decimals; floats keep their binary value."""
    return delta if isinstance(delta, Fraction) else Fraction(delta)


def weight_threshold(m: int, delta: DeltaLike) -> int:
    """floor(3 m delta), computed exactly."""
    d = as_fraction(delta)
    return (3 * m * d.numerator) // d.denominator


# -- the restricted pair space ------------------------------------------------------


@lru_cache(maxsize=None)
def restricted_generators(field: PrimeField, m: int) -> tuple[RingElement, RingElement]:
    """Generators of the two restricted ideals: (X^m+1)(X-1) in R_{2m} and X-1 in R_m.

    Cached: every sampled trial multiplies by the same pair."""
    left = Poly.x_pow_plus_one(field, m) * Poly(field, (-1, 1))
    return (
        RingElement.from_poly(left, 2 * m),
        RingElement.from_poly(Poly(field, (-1, 1)), m),
    )


class RestrictedPair(NamedTuple):
    """A sample (a, a'): a is a multiple of (X^m+1)(X-1), a' a multiple of X-1."""

    a: RingElement
    a_prime: RingElement


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The stream for one trial, derived from (seed, trial)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    )


def sample_pair(field: PrimeField, m: int, rng: np.random.Generator) -> RestrictedPair:
    """One uniform sample from the restricted pair space.

    A uniform f in R_{2m} is pushed through f -> f * (X^m+1)(X-1); the map is
    a surjective linear map onto the ideal with equal-size fibers, so the
    image is uniform. Same for the R_m factor.
    """
    if gcd(m, field.p) != 1:
        raise NotCoprime(f"m={m} must be coprime to p={field.p}")
    gen2m, genm = restricted_generators(field, m)
    p = field.p
    f = RingElement(field, 2 * m, tuple(rng.integers(0, p, size=2 * m).tolist()))
    f2 = RingElement(field, m, tuple(rng.integers(0, p, size=m).tolist()))
    return RestrictedPair(f * gen2m, f2 * genm)


# -- ideals inside R_n ----------------------------------------------------------------


def ideal_dim(b: RingElement) -> int:
    """Dimension of the ideal generated by b: n - deg gcd(lift(b), X^n - 1)."""
    g = b.lift().gcd(Poly.x_pow_minus_one(b.field, b.n))
    return b.n - int(g.degree)


def ideal_basis(b: RingElement) -> np.ndarray:
    """Rows X^i * g for i < dim, where g = gcd(lift(b), X^n - 1) generates <b>."""
    g = b.lift().gcd(Poly.x_pow_minus_one(b.field, b.n))
    return circulant_matrix(RingElement.from_poly(g, b.n))[: b.n - int(g.degree)]


def ideal_elements(b: RingElement, limit: int = DEFAULT_ENUM_LIMIT) -> np.ndarray:
    """All p^dim elements of <b> as coefficient rows."""
    p = b.field.p
    basis = ideal_basis(b)
    d = basis.shape[0]
    total = p**d
    if total > limit:
        raise EnumerationTooLarge(f"ideal has {total} elements, limit is {limit}")
    if d == 0:
        return np.zeros((1, b.n), dtype=np.int64)
    radix = np.array([p**j for j in range(d)], dtype=np.int64)
    msgs = (np.arange(total, dtype=np.int64)[:, None] // radix[None, :]) % p
    return (msgs @ basis) % p


def restricted_elements(
    field: PrimeField, m: int, limit: int = DEFAULT_ENUM_LIMIT
) -> tuple[list[RingElement], list[RingElement]]:
    """All elements of the two restricted ideals, p^(m-1) on each side."""
    gen2m, genm = restricted_generators(field, m)

    def walk(gen: RingElement) -> list[RingElement]:
        return [RingElement(field, gen.n, tuple(row)) for row in ideal_elements(gen, limit).tolist()]

    return walk(gen2m), walk(genm)


def _weight_histogram(rows: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(np.count_nonzero(rows, axis=1), minlength=n + 1)


def _require_restricted(b: RingElement) -> int:
    if b.n % 2 != 0:
        raise ValueError(f"b must live in R_2m, got co-length {b.n}")
    m = b.n // 2
    lift = b.lift()
    if not b.is_zero():
        if not Poly.x_pow_plus_one(b.field, m).divides(lift) or lift.evaluate(1) != 0:
            raise ValueError("b is not a multiple of (X^m + 1)(X - 1)")
    return m


def exact_low_weight_fraction(
    b: RingElement, delta: DeltaLike, limit: int = DEFAULT_ENUM_LIMIT
) -> Fraction:
    """Exact probability that (b*a, b*a') is nonzero with weight <= floor(3m delta)
    when (a, a') is uniform over the restricted pair space.

    The pushforward of the uniform pair through multiplication by b is uniform
    on the product of the two ideals generated by b, so the probability is a
    plain count over that product; the two weight histograms are convolved
    instead of enumerating the product itself.
    """
    m = _require_restricted(b)
    t = weight_threshold(m, delta)
    if b.is_zero() or t < 1:
        return Fraction(0)
    b_m = b.fold_to(m)
    d1, d2 = ideal_dim(b), ideal_dim(b_m)
    p = b.field.p
    if p ** (d1 + d2) > limit:
        raise EnumerationTooLarge(f"|image| = {p ** (d1 + d2)} exceeds the limit {limit}")
    h1 = _weight_histogram(ideal_elements(b, limit), 2 * m)
    h2 = _weight_histogram(ideal_elements(b_m, limit), m)
    prefix2 = np.cumsum(h2)
    count = 0
    for w1 in range(0, min(t, 2 * m) + 1):
        cap = min(t - w1, m)
        count += int(h1[w1]) * int(prefix2[cap])
    count -= 1  # the zero-zero pair has weight 0, excluded by "1 <= w"
    return Fraction(count, p ** (d1 + d2))


# -- reports -----------------------------------------------------------------------------


CSV_FIELDS = (
    "q",
    "m",
    "delta",
    "mode",
    "trials",
    "hits",
    "estimate",
    "exact",
    "bound",
    "zero_code_fraction",
    "seed",
    "warning",
)


@dataclass(frozen=True)
class EnsembleReport:
    """One experiment outcome; serializes to a fixed-width CSV row.

    estimate is hits/trials in montecarlo mode and equals the exact value in
    exact mode. bound, when present, is always the analytic upper bound on
    Pr(relative distance <= delta), regardless of which side the row
    estimates.
    """

    q: int
    m: int
    delta: Fraction | None
    mode: str  # "exact" | "montecarlo"
    trials: int
    hits: int
    estimate: float
    exact: Fraction | None
    bound: float | None
    zero_code_fraction: float
    seed: int | None
    warning: str = ""

    def csv_row(self) -> list[str]:
        def num(x) -> str:
            return "" if x is None else repr(float(x))

        return [
            str(self.q),
            str(self.m),
            num(self.delta),
            self.mode,
            str(self.trials),
            str(self.hits),
            num(self.estimate),
            num(self.exact),
            num(self.bound),
            num(self.zero_code_fraction),
            "" if self.seed is None else str(self.seed),
            self.warning,
        ]

    def with_warning(self, text: str) -> "EnsembleReport":
        """A copy with text added to the warning column, after any warning already there."""
        return replace(self, warning="; ".join(filter(None, (self.warning, text))))


# -- exact and Monte-Carlo experiments -----------------------------------------------------

# A Monte-Carlo distance row carries the exact value when the pair space has at
# most this many pairs, cheap enough to sweep alongside the trials.
ATTACH_EXACT_PAIRS = 1000

TRIAL_BLOCK = 64  # Monte-Carlo trials drawn and answered at a time

Pairs = Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]  # a, a', pairs per row
# One column per report row: whether the row's event holds for each pair.
Event = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _index_map(rows: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The permutation perm with images[k] == rows[perm[k]], for images a
    reordering of rows."""
    perm = np.empty(len(rows), dtype=np.int64)
    perm[np.lexsort(images.T)] = np.lexsort(rows.T)
    return perm


def _join(labels: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Join the class of x with the class of perm[x], for every x.

    labels[x] is the least index of the class of x. Each round hooks both
    roots of every edge x -> perm[x] that still crosses two classes onto the
    lesser one, then follows pointers until every label is a root again.
    """
    while not np.array_equal(labels, cross := labels[perm]):
        low = np.minimum(labels, cross)
        roots = labels.copy()
        np.minimum.at(roots, labels, low)
        np.minimum.at(roots, cross, low)
        while not np.array_equal(roots, hop := roots[roots]):
            roots = hop
        labels = roots
    return labels


def _unit_orbits(
    field: PrimeField, m: int, left: list[RingElement], right: list[RingElement]
) -> np.ndarray:
    """The orbits of the unit group of R_m on the pairs (left[i], right[j]),
    indexed i * len(right) + j: entry x is the least index in the orbit of x.

    The units of R_m, in increasing radix order of their coefficients, act
    one by one as permutations of the pair indices, until the orbit count
    reaches prod(q^d + 2) over the nonzero cyclotomic coset sizes d.
    """
    p = field.p
    target = prod(p**d + 2 for d in cyclotomic_cosets(m, p).nonzero_sizes())
    a_rows = np.array([a.coeffs for a in left], dtype=np.int64)
    a_prime_rows = np.array([a.coeffs for a in right], dtype=np.int64)
    labels = np.arange(len(left) * len(right))
    count = labels.size
    x_m_minus_one = Poly.x_pow_minus_one(field, m)
    for k in range(2, p**m):  # k = 1 is the unit 1, which moves nothing
        if count <= target:
            break
        u = tuple(k // p**j % p for j in range(m))
        if Poly(field, u).gcd(x_m_minus_one).degree != 0:
            continue
        times_lift = circulant_matrix(RingElement(field, 2 * m, u + (0,) * m))
        times_u = circulant_matrix(RingElement(field, m, u))
        sigma = _index_map(a_rows, gf_matmul(a_rows, times_lift, p))
        tau = _index_map(a_prime_rows, gf_matmul(a_prime_rows, times_u, p))
        labels = _join(labels, (sigma[:, None] * len(right) + tau[None, :]).ravel())
        count = int(np.count_nonzero(labels == np.arange(labels.size)))
    if count != target:
        raise AssertionError(f"{count} unit orbits, expected prod(q^d + 2) = {target}")
    return labels


def _sample_block(field: PrimeField, m: int, seed: int, start: int, trials: int) -> tuple:
    """Trials start to min(start + TRIAL_BLOCK, trials) - 1, stacked: row k is the
    pair sample_pair(field, m, trial_rng(seed, start + k)) returns, same draws."""
    p = field.p
    rngs = [trial_rng(seed, i) for i in range(start, min(start + TRIAL_BLOCK, trials))]
    f = np.array([rng.integers(0, p, size=2 * m) for rng in rngs])
    f2 = np.array([rng.integers(0, p, size=m) for rng in rngs])
    gen2m, genm = (circulant_matrix(g) for g in restricted_generators(field, m))
    return gf_matmul(f, gen2m, p), gf_matmul(f2, genm, p), np.ones(len(rngs), dtype=np.int64)


def _pair_source(
    field: PrimeField,
    m: int,
    limit: int = DEFAULT_ENUM_LIMIT,
    trials: int | None = None,
    seed: int = 0,
) -> Pairs:
    """The stacked pairs (a, a') an experiment runs over, each with the number
    of restricted pairs it stands for; checked before the first stack.

    With trials None: one stack holding the least pair, row-major over
    restricted_elements, of each unit orbit, standing for its orbit.
    Otherwise: sample_pair(field, m, trial_rng(seed, i)) for i < trials, each
    standing for itself, in stacks of TRIAL_BLOCK trials.
    """
    if trials is not None and trials < 1:
        raise EmptyTrialSet("at least one trial is required")
    if gcd(m, field.p) != 1:
        raise NotCoprime(f"m={m} must be coprime to p={field.p}")
    if trials is not None:
        return (_sample_block(field, m, seed, i, trials) for i in range(0, trials, TRIAL_BLOCK))
    pairs = field.p ** (2 * (m - 1))
    if pairs > limit:
        raise EnumerationTooLarge(f"{pairs} pairs exceed the limit {limit}")
    left, right = restricted_elements(field, m, limit)
    sizes = np.bincount(_unit_orbits(field, m, left, right))
    reps = np.flatnonzero(sizes)
    stack = lambda side, idx: np.array([side[i].coeffs for i in idx], dtype=np.int64)
    return iter([(stack(left, reps // len(right)), stack(right, reps % len(right)), sizes[reps])])


def _tally(pairs: Pairs, event: Event, rows: int) -> tuple[int, list[int], int]:
    """(pairs, pairs where each row's event holds, zero codes), each pair
    counted as many times as it stands for. Only the pair (0, 0) spans the
    zero code."""
    n = zero_codes = 0
    hits = [0] * rows
    for a, a_prime, sizes in pairs:
        n += int(sizes.sum())
        hits = [h + int(k) for h, k in zip(hits, sizes @ event(a, a_prime))]
        zero_codes += int(sizes[~(a.any(axis=1) | a_prime.any(axis=1))].sum())
    return n, hits, zero_codes


def _distance_event(field: PrimeField, ts: Sequence[int], limit: int) -> Event:
    """Per threshold t in ts: some nonzero word has weight <= t; never true
    of the zero code. Each pair's code is built once and asked the largest t
    first, so one scan answers every row."""
    widest_first = sorted(set(ts), reverse=True)

    def holds(a: list[int], a_prime: list[int]) -> list[bool]:
        code = construct_code(*(RingElement(field, len(x), tuple(x)) for x in (a, a_prime)))
        found = {t: code.has_word_of_weight_at_most(t, limit) for t in widest_first}
        return [found[t] for t in ts]

    return lambda a, a_prime: np.array(
        [holds(*pair) for pair in zip(a.tolist(), a_prime.tolist())], dtype=bool
    ).reshape(len(a), len(ts))


def restricted_dims(field: PrimeField, m: int, a: np.ndarray, a_prime: np.ndarray) -> np.ndarray:
    """The code dimension of each restricted pair (a[k], a'[k]), with no gcd: the
    code is R_m (fold(a), a'), fold(a) = a mod X^m - 1, as X^m + 1 divides a,
    so it is the sum of |C| over the cosets C where (fold(a), a') e_C != 0."""
    p = field.p
    blocks = np.hstack([circulant_matrix(e) for e in coset_idempotents(field, m)])
    rows = np.vstack([(a[:, :m] + a[:, m:]) % p, a_prime])
    nonzero = gf_matmul(rows, blocks, p).reshape(2, len(a), -1, m).any(axis=(0, 3))
    return nonzero @ np.array([len(c) for c in cyclotomic_cosets(m, p).cosets])


def _fullrank_event(field: PrimeField, m: int) -> Event:
    return lambda a, a_prime: (restricted_dims(field, m, a, a_prime) == m - 1)[:, None]


def _report(
    field: PrimeField,
    m: int,
    delta: DeltaLike | None,
    trials: int,
    hits: int,
    zero_codes: int,
    exact: Fraction | None,
    seed: int | None,
) -> EnsembleReport:
    """The row of one experiment; a seed of None marks an exact row. A delta
    row gets the analytic bound, or an empty bound and the reason in warning."""
    bound, warning = None, ""
    if delta is not None:
        delta = as_fraction(delta)
        try:
            bound = delta_prob_bound(m, float(delta), field.p)
        except DomainError as exc:
            warning = f"no bound: {exc}"
    return EnsembleReport(
        q=field.p,
        m=m,
        delta=delta,
        mode="exact" if seed is None else "montecarlo",
        trials=trials,
        hits=hits,
        estimate=hits / trials,
        exact=exact,
        bound=bound,
        zero_code_fraction=zero_codes / trials,
        seed=seed,
        warning=warning,
    )


def exact_delta_leq_probs(
    field: PrimeField, m: int, deltas: Sequence[DeltaLike], limit: int = DEFAULT_ENUM_LIMIT
) -> list[EnsembleReport]:
    """Exact Pr(relative distance <= delta), one report per delta, from one
    pass that builds one code per unit orbit of restricted pairs."""
    pairs = _pair_source(field, m, limit)
    ts = [weight_threshold(m, delta) for delta in deltas]
    n, hits, zero_codes = _tally(pairs, _distance_event(field, ts, limit), len(ts))
    return [
        _report(field, m, delta, n, leq, zero_codes, Fraction(leq, n), None)
        for delta, leq in zip(deltas, hits)
    ]


def exact_delta_leq_prob(
    field: PrimeField, m: int, delta: DeltaLike, limit: int = DEFAULT_ENUM_LIMIT
) -> EnsembleReport:
    """exact_delta_leq_probs for one delta."""
    return exact_delta_leq_probs(field, m, [delta], limit)[0]


def mc_delta_probs(
    field: PrimeField,
    m: int,
    deltas: Sequence[DeltaLike],
    trials: int,
    seed: int,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> list[EnsembleReport]:
    """Monte-Carlo estimates of Pr(relative distance > delta), one report per
    delta, from one pass over the trials.

    A trial is a hit when its code has no nonzero word of weight <=
    floor(3 m delta); zero-code draws are hits under the module convention
    and are tallied in zero_code_fraction. The candidate limit is checked
    for every delta, in order, before the first trial. When the full pair
    space has at most min(ATTACH_EXACT_PAIRS, limit) pairs the exact
    complements are attached for cross-checking.
    """
    pairs = _pair_source(field, m, trials=trials, seed=seed)
    ts = [weight_threshold(m, delta) for delta in deltas]
    for t in ts:
        candidates = low_weight_message_count(field.p, m - 1, min(t, m - 1)) if m > 1 else 0
        if candidates > limit:
            raise EnumerationTooLarge(
                f"{candidates} low-weight candidates per trial exceed the limit {limit}"
            )
    n, leq, zero_codes = _tally(pairs, _distance_event(field, ts, limit), len(ts))
    exact: list[Fraction | None] = [None] * len(ts)
    if field.p ** (2 * (m - 1)) <= min(ATTACH_EXACT_PAIRS, limit):
        exact = [1 - r.exact for r in exact_delta_leq_probs(field, m, deltas, limit)]
    return [
        _report(field, m, delta, n, n - hits, zero_codes, e, seed)
        for delta, hits, e in zip(deltas, leq, exact)
    ]


def mc_delta_prob(
    field: PrimeField,
    m: int,
    delta: DeltaLike,
    trials: int,
    seed: int,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> EnsembleReport:
    """mc_delta_probs for one delta."""
    return mc_delta_probs(field, m, [delta], trials, seed, limit)[0]


def exact_fullrank_prob(m: int, q: int) -> Fraction:
    """Exact Pr(dim = m - 1): the product of (1 - q^(-2 d_j)) over the nonzero
    cyclotomic coset sizes d_j. The empty product (m = 1) is 1."""
    acc = Fraction(1)
    for d in cyclotomic_cosets(m, q).nonzero_sizes():
        acc *= 1 - Fraction(1, q ** (2 * d))
    return acc


def exact_fullrank_report(field: PrimeField, m: int) -> EnsembleReport:
    """exact_fullrank_prob as a report over all p^(2(m-1)) restricted pairs,
    of which only (0, 0) spans the zero code; no pair is enumerated."""
    exact = exact_fullrank_prob(m, field.p)
    pairs = field.p ** (2 * (m - 1))
    return _report(field, m, None, pairs, int(exact * pairs), 1, exact, None)


def fullrank_census(
    field: PrimeField, m: int, limit: int = DEFAULT_ENUM_LIMIT
) -> Fraction:
    """Exhaustive fraction of restricted pairs whose code has dimension m - 1.

    Independent of exact_fullrank_prob: this sums the sizes of the unit orbits,
    counted, not derived from coset sizes, whose restricted_dims is m - 1.
    """
    n, (hits,), _ = _tally(_pair_source(field, m, limit), _fullrank_event(field, m), 1)
    return Fraction(hits, n)


def mc_fullrank_prob(
    field: PrimeField, m: int, trials: int, seed: int
) -> EnsembleReport:
    """Monte-Carlo estimate of Pr(dim = m - 1) from restricted_dims; builds no code."""
    pairs = _pair_source(field, m, trials=trials, seed=seed)
    n, (hits,), zero_codes = _tally(pairs, _fullrank_event(field, m), 1)
    return _report(field, m, None, n, hits, zero_codes, exact_fullrank_prob(m, field.p), seed)


# -- ideal counting and sphere counts -----------------------------------------------------


def count_ideals_by_dim(m: int, q: int) -> dict[int, int]:
    """Number of ideals of each dimension inside the restricted ideal of R_{2m}.

    Ideals correspond to subsets of the irreducible factors of
    (X^m - 1)/(X - 1), so the counts are subset sums of the coset sizes.
    Includes the zero ideal at dimension 0.
    """
    sizes = cyclotomic_cosets(m, q).nonzero_sizes()
    counts: dict[int, int] = {0: 1}
    for s in sizes:
        for d in sorted(counts, reverse=True):
            counts[d + s] = counts.get(d + s, 0) + counts[d]
    return dict(sorted(counts.items()))


def sphere_count_check(
    b: RingElement, w: int, limit: int = DEFAULT_ENUM_LIMIT
) -> tuple[int, float]:
    """(exact number of elements of <b> with weight <= w, the bound q^(d*h_q(w/n))).

    The inequality exact <= bound is guaranteed only for w/n <= 1 - 1/q; the
    raw pair is returned either way so callers can probe the edge.
    """
    if w < 0 or w > b.n:
        raise DomainError(f"weight bound must lie in [0, {b.n}], got {w}")
    q = b.field.p
    d = ideal_dim(b)
    if q**d > limit:
        raise EnumerationTooLarge(f"ideal has {q ** d} elements, limit is {limit}")
    rows = ideal_elements(b, limit)
    exact = int((np.count_nonzero(rows, axis=1) <= w).sum())
    bound = float(q ** (d * qary_entropy(q, w / b.n)))
    return exact, bound
