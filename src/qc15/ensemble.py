"""The restricted random-code ensemble and its exact / Monte-Carlo experiments.

The probability space is the product of two restricted ideals sampled
uniformly: multiples a of (X^m + 1)(X - 1) inside R_{2m}, paired with
multiples a' of (X - 1) inside R_m. As a = (X^m + 1) c = c || c for one c in
J = (X - 1) R_m, a pair is two uniform elements c, a' of J (dimension m - 1
each), p^{2(m-1)} equally likely pairs; the experiments carry it as (c, a').

The dimension and basis of an ideal <b> of R_n, at any n, are those of the
row scan of circ(b) (ideal_basis); a stack of restricted pairs' code
dimensions is read off the coset projections instead (codes.coset_support).

Event conventions
-----------------
"Relative distance <= delta" is implemented as "some nonzero codeword has
Hamming weight <= floor(3 m delta)". The zero code (only the pair (0, 0))
has no nonzero codeword, so it never satisfies the event and therefore counts
toward the complement; its frequency is reported separately in every report
because the relative distance of the zero code is not a defined quantity.

Experiments
-----------
Every experiment runs one event over one pair source of stacks of at most
TRIAL_BLOCK rows of c and of a', each standing for its orbit class or, as a
seeded sample, for itself. An event answers a stack with one bool column per
report row: the distance event at each threshold, which reads a stack's
codes as arrays and scans them together once for all thresholds, or dim =
m - 1 (coset_support); neither builds a code object. One tally weights the
answers by the sizes and counts zero codes; one builder makes an
EnsembleReport of each row's counts.

The orbits: (c, a') and (u c, u a') span the same code for every unit u of
R_m. On a nonzero cyclotomic coset of size d the pair's component (c e_C,
a' e_C) lies in GF(q^d)^2 and the units act on it by the scalars of
GF(q^d)^*, which leaves q^d + 2 orbits: zero and the q^d + 1 lines. The
restricted pair space therefore holds prod(q^d + 2) orbits, one per code.
With e = e_C the primitive idempotent of C (coset_idempotents), the orbits'
representatives (c e, a' e) and sizes are the choices 0 = (0, 0), size 1;
1 = (0, e), size q^d - 1; and 2 + j = (e, y_j) for each of the q^d elements
y_j of e R_m, size q^d - 1 each. A representative pair sums one choice per
nonzero coset, its orbit's size is the product of the choices' sizes, and
its index reads the choices as mixed-radix digits, the last coset's fastest
(_coset_choices, _unit_orbits).

The multipliers mu_s: X -> X^s, s a unit mod m, are ring automorphisms of R_m
that permute coordinates and map e_C to e_sC (Huffman-Pless, Fundamentals of
Error-Correcting Codes, 4.3), so they map each representative to another's
of the same size, whose code has the same weight distribution and dimension.
The exact experiments build one code per class, its first orbit's, standing
for the class's orbits (6,039 codes for 60,025 orbits at q = 3, m = 11), and
find the classes a block of orbit indices at a time (_class_stacks).

Reproducibility
---------------
Monte-Carlo trial t draws integers(0, q, 2m), then integers(0, q, m), from
Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(t,)))) (trial_rng), so
trials are independent and any order draws the same. qc15 computes the draws
a block at a time (_block_draws); trial_rng is the tests' reference and the
path for a Lemire rejection, q > 2^32 or t >= 2^32. NumPy does not promise
Generator.integers's stream across releases: the oracle test reports a change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .algebra import (
    Poly,
    PrimeField,
    RingElement,
    check_coprime,
    coset_idempotents,
    cyclotomic_cosets,
)
from .bounds import delta_prob_bound, qary_entropy
from .codes import (
    DEFAULT_ENUM_LIMIT,
    PRODUCT_BLOCK,
    check_limit,
    circulant_matrix,
    codeword_blocks,
    coset_support,
    leading_independent_rows,
    lightest_word_weights,
)
from .errors import DomainError, EmptyTrialSet

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

    Cached for sample_pair and restricted_elements, the references for (c, a') stacks."""
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


# SeedSequence's hash and mix constants and PCG64's multiplier (bit_generator.pyx, pcg64.h)
_M32, _MIX_L, _MIX_R = 0xFFFFFFFF, 0xCA01F9DD, 0x4973F715
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash(v, xor, mul):
    """A step of SeedSequence's hash of 32-bit words, on ints or uint64 arrays."""
    v = (v ^ xor) * mul & _M32
    return v ^ v >> 16


def _mix(x, y):
    """SeedSequence's mix of 32-bit words, on ints or uint64 arrays."""
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


@lru_cache(maxsize=None)
def _seed_pool(seed: int) -> tuple[np.ndarray, ...]:
    """SeedSequence(entropy=seed, spawn_key=(t,))'s pool before t, whose
    entropy is seed's 32-bit words zero-padded to 4 then t, and the xors and
    multipliers of the 4 hash steps mixing t in and of generate_state's 8:
    step i xors init mult^i and multiplies by init mult^(i+1), mod 2^32."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 128), 32)]
    h = [_INIT_A * pow(_MULT_A, i, 1 << 32) & _M32 for i in range(4 * len(words) + 5)]
    g = [_INIT_B * pow(_MULT_B, i, 1 << 32) & _M32 for i in range(9)]
    steps = zip(h, h[1:])
    pool = [_hash(w, *next(steps)) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    for w in words[4:]:
        pool = [_mix(x, _hash(w, *next(steps))) for x in pool]
    return tuple(np.array(x, dtype=np.uint64) for x in (pool, h[-5:-1], h[-4:], g[:-1], g[1:]))


@lru_cache(maxsize=None)
def _jump_table(words: int) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 seeded with generate_state's 32-bit words 2, 3, 0, 1 as s and
    6, 7, 4, 5 as s' has the state A_j s + D_j (2 s' + 1) mod 2^128 at output
    word j, A_j = M^(j+2), D_j = 1 + ... + M^(j+2): the words' 16-bit limbs
    times this (16, 4 words) float64 map, exact below 2^53, plus D_j."""
    limbs, const = [], []
    a, d = _PCG_MULT**2 % (1 << 128), 1 + _PCG_MULT
    for _ in range(words):
        d = (d + a) % (1 << 128)
        const.append([d >> 32 * n & _M32 for n in range(4)])
        limbs.append([[0] * 8 + [c >> 16 * k & 0xFFFF for k in range(8)] for c in (a, 2 * d)])
        a = a * _PCG_MULT % (1 << 128)
    # row i is half i % 2 of word i // 2, at limb u of s (a) or s' (2d); its
    # word n is limbs 2n - u and 2n - u + 1 of the multiplier, 8 zero limbs first
    u = np.array([i % 2 + 2 * (2, 3, 0, 1)[i // 2 % 4] for i in range(16)])
    k, side = 8 + 2 * np.arange(4) - u[:, None], np.arange(16)[:, None] // 8
    limbs = np.array(limbs, dtype=np.int64)
    table = limbs[:, side, k] + (limbs[:, side, k + 1] << 16)
    return (table.transpose(1, 2, 0).reshape(16, -1).astype(np.float64),
            np.array(const, dtype=np.float64).T.ravel())


def _block_draws(p: int, m: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Row k: integers(0, p, 2m), then integers(0, p, m), of trial_rng(seed,
    start + k) for start + k < stop, all rows at once: XSL-RR of the states
    cut into 32-bit draws x, low half first, and the Lemire step x p >> 32. A
    row with a rejection ((x p mod 2^32) < 2^32 mod p), at t >= 2^32 (a
    2-word spawn key) or at p > 2^32 (a 64-bit Lemire step) uses trial_rng."""
    t = np.arange(start, stop, dtype=np.uint64)
    draws, redo = np.zeros((len(t), 3 * m), dtype=np.int64), np.ones(len(t), dtype=bool)
    if p < 1 << 32 and seed >= 0:
        pool, xor, mul, g_xor, g_mul = _seed_pool(seed)
        state = _hash(np.tile(_mix(pool, _hash(t[:, None], xor, mul)), 2), g_xor, g_mul)
        limbs = state.astype("<u4").view("<u2").astype(np.float64)
        words = (3 * m + 1) // 2
        table, const = _jump_table(words)
        step = max(1, PRODUCT_BLOCK // len(const))  # rows per product: one BLAS thread
        cols = np.vstack([limbs[i : i + step] @ table for i in range(0, len(t), step)]) + const
        cols = cols.astype(np.uint64).reshape(len(t), 4, words)
        for n in range(3):
            cols[:, n + 1] += cols[:, n] >> 32
        x = (cols[:, 3] ^ cols[:, 1]) << 32 | (cols[:, 2] ^ cols[:, 0]) & _M32
        rot = cols[:, 3] >> 26 & 63
        out = x >> rot | x << (64 - rot & 63)
        scaled = out.astype("<u8", copy=False).view("<u4")[:, : 3 * m] * np.uint64(p)
        draws = (scaled >> 32).astype(np.int64)
        redo = ((scaled & _M32) < (1 << 32) % p).any(axis=1) | (t > _M32)
    for k in np.flatnonzero(redo):
        rng = trial_rng(seed, start + int(k))
        draws[k] = np.concatenate([rng.integers(0, p, size=2 * m), rng.integers(0, p, size=m)])
    return draws


def sample_pair(field: PrimeField, m: int, rng: np.random.Generator) -> RestrictedPair:
    """One uniform sample from the restricted pair space.

    A uniform f in R_{2m} is pushed through f -> f * (X^m+1)(X-1); the map is
    a surjective linear map onto the ideal with equal-size fibers, so the
    image is uniform. Same for the R_m factor.
    """
    check_coprime(m, field.p)
    gen2m, genm = restricted_generators(field, m)
    p = field.p
    f = RingElement(field, 2 * m, tuple(rng.integers(0, p, size=2 * m).tolist()))
    f2 = RingElement(field, m, tuple(rng.integers(0, p, size=m).tolist()))
    return RestrictedPair(f * gen2m, f2 * genm)


# -- ideals inside R_n ----------------------------------------------------------------


def ideal_basis(b: RingElement) -> np.ndarray:
    """Rows X^i * b for i < dim <b>: as a module <b> is GF(p)[X]/(h_b), so the
    row scan of circulant_matrix(b) keeps exactly its first dim rows."""
    span = circulant_matrix(b)
    (dim,), _ = leading_independent_rows(span[None], b.field.p)
    return span[:dim]


def ideal_dim(b: RingElement) -> int:
    """Dimension of the ideal generated by b: the rows of ideal_basis(b)."""
    return len(ideal_basis(b))


def ideal_elements(b: RingElement, limit: int = DEFAULT_ENUM_LIMIT) -> np.ndarray:
    """All p^dim elements of <b> as coefficient rows, the zero element first:
    the words of ideal_basis(b) from codeword_blocks, which checks the limit."""
    return np.concatenate(list(codeword_blocks(ideal_basis(b), b.field.p, limit)))


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


def _require_restricted(b: RingElement) -> tuple[int, ...]:
    """The c with b = c || c and sum(c) = 0 mod p: b is a multiple of (X^m + 1)(X - 1)."""
    if b.n % 2 != 0:
        raise ValueError(f"b must live in R_2m, got co-length {b.n}")
    c = b.coeffs[: b.n // 2]
    if c != b.coeffs[b.n // 2 :] or sum(c) % b.field.p:
        raise ValueError("b is not a multiple of (X^m + 1)(X - 1)")
    return c


def exact_low_weight_fraction(
    b: RingElement, delta: DeltaLike, limit: int = DEFAULT_ENUM_LIMIT
) -> Fraction:
    """Exact probability that (b*a, b*a') is nonzero with weight <= floor(3m delta)
    when (a, a') is uniform over the restricted pair space.

    The pushforward of the uniform pair through multiplication by b is uniform
    on the product of the two ideals generated by b, so the probability is a
    plain count over that product. For b = c || c they are {g || g : g in <c>}
    and <b mod X^m - 1> = <c>, so a pair (g, g') of <c> weighs 2 wt(g) + wt(g'),
    and the weight histogram of <c> is convolved with itself. The limit bounds
    the p^dim words of <c> that this enumerates.
    """
    c = _require_restricted(b)
    m, t = len(c), weight_threshold(len(c), delta)
    if not any(c) or t < 1:
        return Fraction(0)
    words = ideal_elements(RingElement(b.field, m, c), limit)
    hist = _weight_histogram(words, m)
    prefix = np.cumsum(hist)
    count = sum(int(hist[w]) * int(prefix[min(t - 2 * w, m)]) for w in range(min(t // 2, m) + 1))
    return Fraction(count - 1, len(words) ** 2)  # the zero pair has weight 0, excluded by "1 <= w"


# -- reports -----------------------------------------------------------------------------


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
        """The CSV_FIELDS columns: None empty, a Fraction or float as repr(float(x))."""
        def text(x) -> str:
            if x is None:
                return ""
            return repr(float(x)) if isinstance(x, (Fraction, float)) else str(x)

        return [text(getattr(self, name)) for name in CSV_FIELDS]

    def with_warning(self, text: str) -> "EnsembleReport":
        """A copy with text added to the warning column, after any warning already there."""
        return replace(self, warning="; ".join(filter(None, (self.warning, text))))


CSV_FIELDS = tuple(f.name for f in fields(EnsembleReport))  # csv_row's columns


# -- exact and Monte-Carlo experiments -----------------------------------------------------

# A Monte-Carlo distance row carries the exact value when the pair space has at
# most this many pairs, cheap enough to sweep alongside the trials.
ATTACH_EXACT_PAIRS = 1000

TRIAL_BLOCK = 64  # pairs drawn or enumerated, and answered, at a time

Pairs = Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]  # c, a' with a = c || c, pairs per row
# One column per report row: whether the row's event holds for each pair.
Event = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _sample_block(field: PrimeField, m: int, seed: int, start: int, trials: int) -> tuple:
    """Trials start to min(start + TRIAL_BLOCK, trials) - 1 as (c, a'): row k is
    sample_pair(field, m, trial_rng(seed, start + k)) from the same draws f, f2,
    with a = c || c. So c = fold(f) (X - 1) and a' = f2 (X - 1), each a shift
    and subtract in R_m, as f (X^m+1)(X-1) = (X^m+1)(fold(f) (X-1) mod X^m-1)."""
    p = field.p
    f = _block_draws(p, m, seed, start, min(start + TRIAL_BLOCK, trials))
    c, a_prime = ((np.roll(g, 1, axis=1) - g) % p for g in (f[:, :m] + f[:, m:2 * m], f[:, 2 * m:]))
    return c, a_prime, np.ones(len(f), dtype=np.int64)


def _pair_source(
    field: PrimeField,
    m: int,
    limit: int = DEFAULT_ENUM_LIMIT,
    trials: int | None = None,
    seed: int = 0,
) -> Pairs:
    """The stacked pairs (c, a') an experiment runs over, each with the number
    of restricted pairs it stands for; checked before the first stack.

    With trials None: the first unit orbit of each multiplier class, standing
    for its class (_class_stacks), under a limit capped at 2^63 - 1 pairs.
    Otherwise: the pairs sample_pair(field, m, trial_rng(seed, i)) draws for
    i < trials, each standing for itself, in stacks of TRIAL_BLOCK trials.
    """
    if trials is not None and trials < 1:
        raise EmptyTrialSet("at least one trial is required")
    check_coprime(m, field.p)
    if trials is not None:
        return (_sample_block(field, m, seed, i, trials) for i in range(0, trials, TRIAL_BLOCK))
    check_limit(field.p ** (2 * (m - 1)), "pairs", limit)  # orbit indices < pairs
    return _class_stacks(field, m, _coset_choices(field, m))


@lru_cache(maxsize=None)
def _coset_choices(field: PrimeField, m: int) -> tuple[tuple, ...]:
    """(place, rows, sizes, moved) per nonzero coset C, in cyclotomic_cosets
    order, read-only: rows[j] is choice j on C (module docstring), c e_C and
    a' e_C side by side, of size sizes[j]; orbit index i takes choice
    i // place % len(rows) on C. mu_s, s the u-th unit mod m, maps choice j to
    a choice k on the coset C' with e_C' = mu_s(e_C): moved[u, j] is k times
    the place of C', so the index of an orbit's image sums its choices' moved."""
    rows, sizes, key = [], [], np.dtype((np.void, 16 * m))  # a row's 2m int64 as one key
    for coset, e in zip(cyclotomic_cosets(m, field.p).cosets[1:], coset_idempotents(field, m)[1:]):
        ys = ideal_elements(e)  # e R_m, the q^d elements y of the lines (e, y)
        x = np.zeros((len(ys) + 2, 2 * m), dtype=np.int64)
        x[2:, :m], x[1, m:], x[2:, m:] = e.coeffs, e.coeffs, ys
        rows.append(x)
        sizes.append(np.repeat([1, field.p ** len(coset) - 1], [1, len(ys) + 1]))
    if not rows:  # m = 1
        return ()
    places = [math.prod(map(len, rows[k + 1:])) for k in range(len(rows))]
    keys = np.concatenate([x.view(key).ravel() for x in rows])
    order = np.argsort(keys)
    keys = keys[order]  # sorted choice rows, looked up by their bytes, and their values
    value = np.concatenate([place * np.arange(len(x)) for place, x in zip(places, rows)])[order]
    to = [np.arange(m) * s % m for s in range(m) if math.gcd(s, m) == 1]  # mu_s: k to s k
    moved = []
    for x in rows:  # image j of unit u: mu_s(choice j), found by its key
        images = (x.take(np.argsort(np.r_[k, k + m]), axis=1) for k in to)
        moved.append(np.array([value[np.searchsorted(keys, y.view(key).ravel())] for y in images]))
    for array in (*rows, *sizes, *moved):
        array.setflags(write=False)
    return tuple(zip(places, rows, sizes, moved))


def _unit_orbits(field: PrimeField, m: int, index: np.ndarray) -> tuple:
    """(c, a', sizes): the pair of each unit orbit in index (orbit 0 is
    (0, 0)), which sums its choices' rows (_coset_choices), and the orbit's
    size, the product of theirs."""
    choices = _coset_choices(field, m)
    pairs = np.zeros((len(index), 2 * m), dtype=np.int64)
    sizes = np.ones(len(index), dtype=np.int64)
    for place, rows, size, _ in choices:
        j = index // place % len(rows)
        pairs, sizes = pairs + rows[j], sizes * size[j]
    return pairs[:, :m] % field.p, pairs[:, m:] % field.p, sizes


def _class_stacks(field: PrimeField, m: int, choices: tuple) -> Pairs:
    """The first unit orbit of each multiplier class in index order, standing
    for its class, TRIAL_BLOCK at a time, from orbit indices read
    PRODUCT_BLOCK at a time, so that memory follows the blocks and the choice
    tables: an orbit is first when none of its images under the mu_s is
    smaller, and its class holds #units / #(s fixing it) orbits of its size
    (orbit-stabilizer)."""
    total = math.prod(len(rows) for _, rows, *_ in choices)
    units = sum(math.gcd(s, m) == 1 for s in range(m))
    kept = np.zeros((2, 0), dtype=np.int64)  # first orbits' indices and their classes' orbits
    for start in range(0, total, PRODUCT_BLOCK):
        index = np.arange(start, min(start + PRODUCT_BLOCK, total), dtype=np.int64)
        images = sum((moved[:, index // place % len(rows)] for place, rows, _, moved in choices),
                     np.zeros((units, 1), dtype=np.int64))
        first = (images >= index).all(axis=0)
        kept = np.hstack([kept, [index[first], units // (images == index).sum(axis=0)[first]]])
        n = kept.shape[1]
        ready = n if start + PRODUCT_BLOCK >= total else n - n % TRIAL_BLOCK  # the last block: all
        for i in range(0, ready, TRIAL_BLOCK):
            c, a_prime, sizes = _unit_orbits(field, m, kept[0, i : i + TRIAL_BLOCK])
            yield c, a_prime, sizes * kept[1, i : i + TRIAL_BLOCK]
        kept = kept[:, ready:]


def _tally(pairs: Pairs, event: Event, rows: int) -> tuple[int, list[int], int]:
    """(pairs, pairs where each row's event holds, zero codes), each pair
    counted as many times as it stands for. Only the pair (0, 0) spans the
    zero code."""
    n = zero_codes = 0
    hits = [0] * rows
    for c, a_prime, sizes in pairs:
        n += int(sizes.sum())
        hits = [h + int(k) for h, k in zip(hits, sizes @ event(c, a_prime))]
        zero_codes += int(sizes[~(c.any(axis=1) | a_prime.any(axis=1))].sum())
    return n, hits, zero_codes


def _distance_event(field: PrimeField, ts: Sequence[int], limit: int) -> Event:
    """Per threshold t in ts: some nonzero word has weight <= t; never true
    of the zero code. A stack's codes (c || c, a') are read as arrays, dims
    and projections from coset_support and spanning rows [circ(c) | circ(c) |
    circ(a')], and scanned at once at the widest t with 1 <= t < 3m: every
    nonzero word weighs 1 to 3m, so no other t needs a scan."""

    def event(c: np.ndarray, a_prime: np.ndarray) -> np.ndarray:
        dims, full, sum_zero = coset_support(field, c, a_prime)
        spans = np.concatenate([circulant_matrix(c)] * 2 + [circulant_matrix(a_prime)], axis=2)
        projections = list(zip(full.tolist(), sum_zero.tolist()))
        widest = max((t for t in ts if 1 <= t < 3 * c.shape[1]), default=0)
        lightest = lightest_word_weights(field.p, spans, dims, projections, widest, limit)
        return (lightest[:, None] <= np.array(ts)) & (dims > 0)[:, None]

    return event


def _fullrank_event(field: PrimeField, m: int) -> Event:
    return lambda c, a_prime: (coset_support(field, c, a_prime)[0] == m - 1)[:, None]


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
    pass that builds one code per multiplier class of unit orbits."""
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
    and are tallied in zero_code_fraction. The limit bounds each stack's
    candidate scan (lightest_word_weights), which runs only at the widest
    threshold t with 1 <= t < 3m. When the full pair space has at most
    min(ATTACH_EXACT_PAIRS, limit) pairs the exact complements are attached
    for cross-checking.
    """
    pairs = _pair_source(field, m, trials=trials, seed=seed)
    ts = [weight_threshold(m, delta) for delta in deltas]
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

    Sums the sizes of the multiplier classes of unit orbits whose
    dim (coset_support) is m - 1. Those sizes come from the coset sizes, as
    exact_fullrank_prob does, so the independent check of both is pair_sweep
    in the tests, which builds one code per restricted pair.
    """
    n, (hits,), _ = _tally(_pair_source(field, m, limit), _fullrank_event(field, m), 1)
    return Fraction(hits, n)


def mc_fullrank_prob(
    field: PrimeField, m: int, trials: int, seed: int
) -> EnsembleReport:
    """Monte-Carlo estimate of Pr(dim = m - 1) from coset_support; builds no code."""
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
    rows = ideal_elements(b, limit)
    exact = int((np.count_nonzero(rows, axis=1) <= w).sum())
    bound = float(q ** (d * qary_entropy(q, w / b.n)))
    return exact, bound
