"""Quasi-cyclic codes of index 1½ and co-index 2m.

A code lives inside F^{2m} x F^m (length 3m) and is closed under the
permutation that simultaneously rotates the first 2m coordinates and the
last m coordinates one step to the right. Each pair (a, a') with a in R_{2m}
and a' in R_m spans such a code: the set of all (f*a mod X^{2m}-1,
f*a' mod X^m-1).

A code (Qc15Code) is its field and generator matrix. construct_code runs one
scan of the span matrix (the 2m circulant rows): the rows it keeps are the
generator matrix, dim rows of 3m columns. The same scan of circ(b) gives the
dimension and basis of any ideal <b> of R_n (ensemble.ideal_basis), and
codeword_blocks enumerates the words of a code or an ideal from its basis.
Every other fact of a code is derived from its generator rows when first
read: the monic generator and check polynomials g and h (g*h = X^{2m}-1,
dim = deg h) from row 0, (a, a'), and the projections of a restricted code
(row 0 repeats w: a = c || c) from the coset projections, which give a stack
of pairs' dims too (coset_support). Threshold queries take one array scan
over a stack of spanning rows, which a code runs on itself at each query and
a sweep on a stack of pairs (lightest_word_weights, rref_lightest_weights):
two information sets for restricted codes whose w- and v-projections have
full rank, else one weighted-pivot scan (scan_plan). A restricted code is
scanned up to its cyclic shift: only the messages with y_0 = 1, and where
its projections fall short also D_v, the words zero on w (pinned blocks,
rref_lightest_weights); the limit counts the unpinned candidates.
min_distance raises the scan's cap until it answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .algebra import Poly, PrimeField, RingElement, check_coprime, exact_dtype, poly_gcd
from .algebra import coset_idempotents, cyclotomic_cosets
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    NotADivisor,
    RingMismatch,
    ZeroCode,
)

DEFAULT_ENUM_LIMIT = 2**24
PRODUCT_BLOCK = 1 << 14  # entries per product mod p: one BLAS thread, arrays below 128 KiB
SMALL_SUM = 1 << 16  # sums of products of residues below it take tables (gf_matmul)


# -- words ---------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """A word of F^{2m} x F^m: 3m coordinates, the first 2m indexed by R_{2m}."""

    m: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != 3 * self.m:
            raise ValueError(f"expected {3 * self.m} coordinates, got {len(self.coords)}")

    def weight(self) -> int:
        return sum(1 for c in self.coords if c)

    def shifted(self) -> "Word":
        """Rotate the first 2m coordinates right by one, and the last m independently."""
        m = self.m
        left, right = self.coords[: 2 * m], self.coords[2 * m :]
        return Word(m, (left[-1],) + left[:-1] + (right[-1],) + right[:-1])

    def to_string(self) -> str:
        """Digits concatenated when every coordinate is a single digit, else dash-separated."""
        if all(c < 10 for c in self.coords):
            return "".join(str(c) for c in self.coords)
        return "-".join(str(c) for c in self.coords)

    def __repr__(self) -> str:
        return f"Word({self.to_string()})"


# -- GF(p) matrix helpers --------------------------------------------------------


@lru_cache(maxsize=None)
def _residues(p: int, top: int) -> np.ndarray:
    """i mod p for i = 0..top, read-only."""
    out = np.arange(top + 1, dtype=np.int64) % p
    out.setflags(write=False)
    return out


def gf_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) mod p for entries in [0, p), as int64, k = a.shape[1].

    Every partial sum of the product is an integer in [0, (p-1)^2 k]. Below
    SMALL_SUM = 2^16 a float32 BLAS product is exact in any summation order, as
    float32 holds every integer below 2^24, and its residues are read from a
    table of (p-1)^2 k + 1 entries (_residues). Below 2^53 the product is
    taken in float64 and reduced by np.remainder; past that, in exact_dtype."""
    k = a.shape[1]
    if (p - 1) ** 2 * k < SMALL_SUM:
        out = (a.astype(np.float32, copy=False) @ b.astype(np.float32, copy=False)).astype(np.intp)
        return _residues(p, (p - 1) ** 2 * k)[out]
    if (p - 1) ** 2 * k < 2**53:
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        return np.remainder(out, p, out=out)
    dtype = exact_dtype(p, k)
    return np.mod(a.astype(dtype) @ b.astype(dtype), p).astype(np.int64, copy=False)


def gf_rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (R, pivot_columns), zero rows
    dropped: the row scan of a stack of one, whose kept rows lead at their pivots."""
    (dim,), (rref,) = leading_independent_rows(np.asarray(mat)[None], p)
    return rref[:dim], [int(np.flatnonzero(row)[0]) for row in rref[:dim]]


def leading_independent_rows(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-down row scan of each matrix of a (B, R, C) stack: (dims, rrefs),
    rrefs[b, :dims[b]] the RREF of the rows b keeps, in pivot order, zero below.

    At row i a matrix whose reduced row i is nonzero keeps it: it pivots on
    the first nonzero column, scales the row by the lead's inverse (from a
    table where (p-1)^2 < SMALL_SUM) and clears that column from all rows in
    one broadcast, so the kept rows end reduced; with no columns, none is
    kept. On the span of a cyclic module, circ(b) or a code's, they are the
    first dims[b] rows (construct_code says why): a basis. Row i and the
    pivot column are reduced mod p when read, each update is subtracted
    unreduced, and the stack is reduced once per `fit` rows: after k updates
    an entry lies in [-k (p-1)^2, p-1], so the scan runs in exact_dtype(p),
    which holds fit = (2^31 or 2^63 - p) // (p-1)^2 of them (p = 3 reduces
    only at the end, p > 2^31 after every row, in object ints past int64).
    """
    dtype = exact_dtype(p)
    work = np.array(mat, dtype=dtype)
    fit = max(1, ((2**31 if dtype is np.int32 else 2**63) - p) // (p - 1) ** 2)
    (count, n_rows, n_cols), at = work.shape, np.arange(len(work))
    order = np.tile(n_cols + np.arange(n_rows), (count, 1))  # pivot if kept, else past all
    small = (p - 1) ** 2 < SMALL_SUM  # x^-1 at index x, 0 at 0
    inverses = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=dtype) if small else None
    for i in range(n_rows if n_cols else 0):
        if i % fit == 0:
            work = work % p
        row = work[:, i] % p
        c = (row != 0).argmax(axis=1)
        lead = row[at, c]
        if not lead.any():
            continue
        inv = (inverses[lead] if small else
               np.array([pow(x, -1, p) if x else 0 for x in lead.tolist()], dtype=work.dtype))
        row = row * inv[:, None] % p
        work = work - (work[at, :, c] % p)[:, :, None] * row[:, None, :]
        work[:, i] = row
        order[lead != 0, i] = c[lead != 0]
    dims = (order < n_cols).sum(axis=1)
    rrefs = np.take_along_axis(work % p, np.argsort(order)[:, :, None], axis=1)
    return dims, rrefs.astype(np.int64, copy=False)


# -- circulant blocks --------------------------------------------------------------


def circulant_matrix(v: RingElement | np.ndarray) -> np.ndarray:
    """n x n circulant whose row i is the coefficient vector of X^i * v; of a
    (B, n) stack of coefficient rows, the (B, n, n) stack of their circulants."""
    coeffs = np.asarray(v.coeffs if isinstance(v, RingElement) else v, dtype=np.int64)
    j = np.arange(coeffs.shape[-1])
    return coeffs[..., (j[None, :] - j[:, None]) % len(j)]


def span_matrix(a: RingElement, a_prime: RingElement) -> np.ndarray:
    """The 2m x 3m matrix [A | A' stacked twice] built from (a, a'): its rows are
    the encodings of X^0, ..., X^{2m-1}, and they span the code."""
    if a.n != 2 * a_prime.n or a.field != a_prime.field:
        raise RingMismatch(f"need a in R_2m and a' in R_m, got R_{a.n} and R_{a_prime.n}")
    Ap = circulant_matrix(a_prime)
    return np.hstack([circulant_matrix(a), np.vstack([Ap, Ap])])


# -- generator and check polynomials -------------------------------------------------


def generator_poly(a: RingElement, a_prime: RingElement) -> Poly:
    """The canonical monic generator: gcd(a, X^m+1) * gcd(a, a', X^m-1).

    Conventions for zero inputs follow gcd(0, f) = monic(f), so the zero pair
    yields X^{2m} - 1 (the zero code).
    """
    if a.n != 2 * a_prime.n or a.field != a_prime.field:
        raise RingMismatch(f"need a in R_2m and a' in R_m, got R_{a.n} and R_{a_prime.n}")
    field = a.field
    m = a_prime.n
    g1 = a.lift().gcd(Poly.x_pow_plus_one(field, m))
    g2 = poly_gcd(Poly.x_pow_minus_one(field, m), a_prime.lift(), a.lift())
    return (g1 * g2).monic()


def check_poly(g: Poly, m: int) -> Poly:
    """The complementary divisor (X^{2m} - 1) / g, monic."""
    quot, rem = divmod(Poly.x_pow_minus_one(g.field, 2 * m), g)
    if not rem.is_zero():
        raise NotADivisor(f"{g!r} does not divide X^{2 * m} - 1")
    return quot.monic()


# -- the code object ------------------------------------------------------------------


class DistanceResult(NamedTuple):
    distance: int
    relative: Fraction


@dataclass(frozen=True, eq=False)
class Qc15Code:
    """An index-1½ quasi-cyclic code with its derived parameters.

    The field and gen_matrix are the code: its dim rows are the encodings of
    X^0..X^{dim-1}, 3m columns wide. m and dim are read off its shape; rref,
    projections, a, a', g and h are derived on first read. All methods are
    pure. A code compares and hashes by identity: pairs can span one code.
    """

    field: PrimeField
    gen_matrix: np.ndarray

    @property
    def m(self) -> int:
        return self.gen_matrix.shape[1] // 3

    @property
    def dim(self) -> int:
        return len(self.gen_matrix)

    @cached_property
    def rref(self) -> np.ndarray:
        """The RREF of gen_matrix, a row scan on first read."""
        (rref,) = leading_independent_rows(self.gen_matrix[None], self.field.p)[1]
        rref.setflags(write=False)
        return rref

    @cached_property
    def projections(self) -> tuple[bool, bool] | None:
        """None unless row 0 repeats w (a = c || c), else (full, sum_zero) of
        (c, a') from coset_support, as the sweeps read them for their stacks."""
        row, m = self.a.coeffs + self.a_prime.coeffs, self.m  # row 0, the zero code's too
        if row[:m] != row[m : 2 * m]:
            return None
        _, full, sum_zero = coset_support(self.field, np.array([row[:m]]), np.array([row[2 * m :]]))
        return bool(full[0]), bool(sum_zero[0])

    @cached_property
    def a(self) -> RingElement:
        """Row 0 of gen_matrix, the encoding of X^0, to column 2m (0 for the zero code)."""
        return RingElement.from_coeffs(self.field, 2 * self.m, self._row_0[: 2 * self.m])

    @cached_property
    def a_prime(self) -> RingElement:
        """The rest of row 0 of gen_matrix."""
        return RingElement.from_coeffs(self.field, self.m, self._row_0[2 * self.m :])

    @property
    def _row_0(self) -> list[int]:
        return self.gen_matrix[:1].ravel().tolist()  # empty for the zero code

    @cached_property
    def g(self) -> Poly:
        """The canonical monic generator polynomial, derived from (a, a') on first read."""
        return generator_poly(self.a, self.a_prime)

    @cached_property
    def h(self) -> Poly:
        """The check polynomial (X^{2m}-1)/g, checked against the rank: as a
        module the code is GF(p)[X]/(h), so deg h = dim and h annihilates
        (a, a'), i.e. encodes to the zero word."""
        h = check_poly(self.g, self.m)
        if h.degree != self.dim:
            raise AssertionError(f"deg h = {h.degree} but the span matrix has rank {self.dim}")
        if self.encode(RingElement.from_poly(h, 2 * self.m)).weight():
            raise AssertionError(f"h = {h.to_text()} does not annihilate (a, a')")
        return h

    @property
    def length(self) -> int:
        return 3 * self.m

    @property
    def rate(self) -> Fraction:
        return Fraction(self.dim, self.length)

    def encode(self, f: RingElement) -> Word:
        """Image of f under f -> (f*a, f*a'), the module map defining the code."""
        if f.n != 2 * self.m or f.field != self.field:
            raise RingMismatch(f"message must live in R_{2 * self.m} over GF({self.field.p})")
        left = f * self.a
        right = f.fold_to(self.m) * self.a_prime
        return Word(self.m, left.coeffs + right.coeffs)

    def encode_message(self, y: Sequence[int]) -> Word:
        """Row vector times generator matrix: for the zero code, the empty
        message times no rows, the zero word."""
        if len(y) != self.dim:
            raise DimensionMismatch(f"message length {len(y)} != dim {self.dim}")
        p = self.field.p
        out = gf_matmul(np.array([[c % p for c in y]], dtype=np.int64), self.gen_matrix, p)
        return Word(self.m, tuple(int(c) for c in out[0]))

    def in_kernel(self, f: RingElement) -> bool:
        """True when f annihilates the pair, i.e. h divides the canonical lift of f."""
        return self.h.divides(f.lift())

    def codewords(self, limit: int = DEFAULT_ENUM_LIMIT) -> set[Word]:
        """The full codeword set, of size exactly p^dim."""
        return {Word(self.m, tuple(int(c) for c in row))
                for block in codeword_blocks(self.gen_matrix, self.field.p, limit)
                for row in block}

    def min_distance(self, limit: int = DEFAULT_ENUM_LIMIT) -> DistanceResult:
        """Exact minimum Hamming weight d: the first cap = 1, 2, ... with
        lightest_word_weight(cap) <= cap (Brouwer-Zimmermann), else U, the
        least weight of a row of rref. The plan of cap U - 1, the widest run
        (plans grow with cap), is checked against the limit once, before any scan."""
        if self.dim == 0:
            raise ZeroCode("the zero code has no nonzero codeword")
        p, upper = self.field.p, int(np.count_nonzero(self.rref, axis=1).min())
        widest = scan_plan(p, self.dim, self.projections, upper - 1)
        check_limit(plan_candidates(p, self.dim, widest), "candidate messages", limit)
        d = 1
        while d < upper and self.lightest_word_weight(d, limit) > d:
            d += 1
        return DistanceResult(d, Fraction(d, self.length))

    def has_word_of_weight_at_most(self, max_weight: int, limit: int = DEFAULT_ENUM_LIMIT) -> bool:
        """Whether some nonzero codeword has Hamming weight <= max_weight."""
        if self.dim and max_weight >= self.length:
            return True
        return self.lightest_word_weight(max_weight, limit) <= max_weight

    def lightest_word_weight(self, cap: int, limit: int = DEFAULT_ENUM_LIMIT) -> int:
        """min(d_min, cap + 1): the least weight of a nonzero codeword, or
        cap + 1 when every nonzero codeword is heavier than cap (and for the
        zero code, which has none): lightest_word_weights on the stack of
        this code alone."""
        return int(lightest_word_weights(self.field.p, self.gen_matrix[None], [self.dim],
                                         [self.projections], cap, limit)[0])

    def to_json_dict(self, distance: DistanceResult | None = None) -> dict:
        doc = {
            "q": self.field.p,
            "m": self.m,
            "a": self.a.to_text(),
            "a_prime": self.a_prime.to_text(),
            "g": self.g.to_text(),
            "h": self.h.to_text(),
            "dim": self.dim,
            "gen_matrix": [[int(c) for c in row] for row in self.gen_matrix],
        }
        if distance is not None:
            doc["min_distance"] = distance.distance
            doc["relative_distance"] = float(distance.relative)
        return doc


def construct_code(a: RingElement, a_prime: RingElement) -> Qc15Code:
    """Build the code spanned by (a, a') with its dim and generator matrix.

    One scan of the span matrix (leading_independent_rows, a stack of one)
    keeps each row that increases the rank: dim is the number kept, the
    generator matrix is those rows. As a module the code is GF(p)[X]/(h), so
    no nonzero polynomial of degree < dim annihilates (a, a'): the kept rows
    are rows 0..dim-1, the encodings of X^0..X^{dim-1}. Every other fact is
    derived from them when first read, so a pair a = c || c gets the
    dim, basis and projections the sweeps read off (c, a').
    """
    full = span_matrix(a, a_prime)  # checks the rings
    check_coprime(a_prime.n, a.field.p)
    (dim,), _ = leading_independent_rows(full[None], a.field.p)
    full.setflags(write=False)
    return Qc15Code(a.field, full[:dim])


@lru_cache(maxsize=None)
def coset_projection(field: PrimeField, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The circulants of the primitive idempotents of R_m side by side, and
    the sizes of their cosets, read-only."""
    blocks = np.hstack([circulant_matrix(e) for e in coset_idempotents(field, m)])
    sizes = np.array([len(coset) for coset in cyclotomic_cosets(m, field.p).cosets])
    for array in (blocks, sizes):
        array.setflags(write=False)
    return blocks, sizes


def coset_support(field: PrimeField, c: np.ndarray, a_prime: np.ndarray) -> tuple:
    """(dims, full, sum_zero) of each code (c[k] || c[k], a'[k]), from one
    product: whether c[k] e_C and a'[k] e_C are nonzero (coset {0} first).
    dim sums |C| over the cosets C where either is. <c> has rank dim when c
    e_C != 0 on every such C, and likewise <a'>: full (two information sets)
    when the two supports are equal. sum_zero when neither is on coset {0}:
    c and a' lie in (X-1)R_m, where nonzero w and v weigh >= 2."""
    blocks, sizes = coset_projection(field, c.shape[1])
    projected = gf_matmul(np.vstack([c, a_prime]), blocks, field.p)
    on_c, on_a_prime = projected.reshape(2, len(c), -1, c.shape[1]).any(axis=3)
    return ((on_c | on_a_prime) @ sizes, (on_c == on_a_prime).all(axis=1),
            ~(on_c[:, 0] | on_a_prime[:, 0]))


def scan_plan(p: int, dim: int, projections: tuple | None, cap: int) -> tuple[int, int]:
    """(a, b): the threshold scan tries messages of plain weight <= a in the
    RREF and, for b >= 1, those of plain weight <= b in the v-systematic form.
    projections is a code's (full, sum_zero), or None for a general code. A
    nonzero w or v weighs lo = 2 or more in (X-1)R_m (sum_zero), else 1. With
    full projections a word both miss weighs >= max(2a + 2, 2 lo) + max(b + 1,
    lo): the (a, b) where that exceeds cap with the fewest candidates, the
    smaller b on a tie (b = 0 builds no v-form). Else (cap, -1), the weighted
    scan, or (0, 0), which tries no message, where lo > cap."""
    full, sum_zero = projections or (False, False)
    lo = 2 if sum_zero else 1
    if not full:
        return (0, 0) if cap < lo else (cap, -1)
    needs = ((cap + 1 - max(b + 1, lo), b) for b in range(max(cap - 1, 1)))  # on w and its copy
    plans = [((need - 1) // 2 if need > 2 * lo else 0, b) for need, b in needs]
    return min(plans, key=lambda plan: (plan_candidates(p, dim, plan), plan[1]))


def plan_candidates(p: int, dim: int, plan: tuple[int, int]) -> int:
    """The candidate messages a plan (a, b) counts against the limit."""
    return sum(low_weight_message_count(p, dim, w) for w in plan)


def check_limit(count: int, what: str, limit: int) -> None:
    """Raise EnumerationTooLarge when count exceeds the limit, capped at
    2^63 - 1 so that every index of what is counted fits in int64."""
    limit = min(limit, 2**63 - 1)
    if count > limit:
        raise EnumerationTooLarge(f"{count} {what} exceed the limit {limit}")


def _weighted_scan(
    rref: np.ndarray, p: int, budget: np.ndarray, cap: int, counted: np.ndarray,
    pinned: np.ndarray,
) -> np.ndarray:
    """min(cap + 1, the least weight of y @ R) for each R = rref[i] of a (B,
    dim, length) stack, over the y whose counted single columns weigh <= budget[i],
    and only those with y_0 = 1 where pinned[i] (rref_lightest_weights says why).

    A column of R whose only nonzero entry sits in row r is a multiple of pivot
    column r, so y @ R is nonzero there exactly when y_r is. With mult[r] such
    counted columns in row r, they carry sum(mult[r] for y_r != 0) of the
    weight of y @ R, so a word missed weighs more than the budget there, and
    the product is taken over the other columns only. Codes of equal budget,
    pin and sorted mult (a pinned row 0 first) share one candidate block
    (low_weight_messages), whose product is taken against their other columns
    side by side, in blocks of about PRODUCT_BLOCK entries. The columns are
    laid out width-major, so each code's weight is a sum of `width` planes
    of the nonzero mask.
    """
    (count, dim, length), at = rref.shape, np.arange(len(rref))
    single = ((rref != 0).sum(axis=1) == 1) & counted
    mult = ((rref != 0) & single[:, None]).sum(axis=2)
    rows = np.argsort(np.where(pinned[:, None] & (np.arange(dim) == 0), -1, mult),
                      axis=1, kind="stable")
    # the other columns first, as many as the widest code has
    cols = np.argsort(single, axis=1, kind="stable")[:, : length - single.sum(axis=1).min()]
    rest = rref[at[:, None, None], rows[:, :, None], cols[:, None, :]]
    keys = [(w, pin) + tuple(key) for w, pin, key in
            zip(budget.tolist(), pinned.tolist(), np.take_along_axis(mult, rows, axis=1).tolist())]
    best = np.full(count, cap + 1)
    for key in dict.fromkeys(keys):
        group = [i for i, k in enumerate(keys) if k == key]
        width = length - sum(key[2:])  # every counted single column counts once in mult
        side_by_side = rest[group, :, :width].transpose(1, 2, 0).reshape(dim, -1)
        if (p - 1) ** 2 * dim < SMALL_SUM:  # cast once for gf_matmul's float32 product
            side_by_side = side_by_side.astype(np.float32)
        cand = low_weight_messages(p, key[2:], key[0], key[1])
        base = (cand != 0) @ np.array(key[2:])
        step = max(1, PRODUCT_BLOCK // max(side_by_side.shape[1], 1))
        for lo in range(0, len(cand), step):
            words = gf_matmul(cand[lo : lo + step], side_by_side, p) != 0
            weights = base[lo : lo + step, None] + words.reshape(
                len(words), width, len(group)).sum(axis=1)
            best[group] = np.minimum(best[group], weights.min(axis=0))
    return best


def rref_lightest_weights(rref: np.ndarray, p: int, cap: int, plans: np.ndarray) -> np.ndarray:
    """min(d_min, cap + 1) of each nonzero code of a (B, dim, 3m) stack of
    RREFs, plans[i] = (a, b) code i's scan_plan, with no limit check.

    b = -1: one weighted scan over every single column, to budget a = cap.
    b >= 0 (full projections, so every pivot lies in w): the scan counts only w
    and its copy, to budget 2a + 1, so it tries every y of plain weight <= a and
    a word missed weighs at least 2(a + 1) there; for b >= 1 the pivots of the
    v-systematic form (one leading_independent_rows call, v columns first) are
    scanned to budget b on v. A word both miss weighs more than cap
    (scan_plan): with b = 0 no v-form is needed, as v is an information set.

    A code whose rows repeat w (a = c || c, projections not None) is closed
    under the shift that rotates w, its copy and v together, and so is D_v,
    its subcode of words zero on w. Any k consecutive positions of a cyclic
    code of dim k are an information set, so the RREF pivots at w_0, w_1, ...
    and then at v_0, v_1, ... on D_v, the rows zero on w. A word with w != 0
    has a shift of equal weight with w_0 != 0: these scans try only the y
    with y_0 = 1 (pinned; row 0 pivots at v_0 in the v-form, or where w is
    always 0). A word with w = 0 lies in D_v, which a code of plan b = -1
    scans alone, pinned at its first row; with full projections only the
    zero word has w = 0.
    """
    (a, b), length = plans.T, rref.shape[2]
    m = length // 3
    w_side = np.arange(length) < 2 * m
    pinned = (rref[:, :, :m] == rref[:, :, m : 2 * m]).all(axis=(1, 2))
    best = _weighted_scan(rref, p, np.where(b < 0, a, 2 * a + 1), cap,
                          w_side | (b < 0)[:, None], pinned)
    two = b >= 1
    if two.any():
        v_first = np.roll(np.arange(length), m)
        _, vform = leading_independent_rows(rref[two][:, :, v_first], p)
        best[two] = np.minimum(best[two], _weighted_scan(vform, p, b[two], cap, ~w_side[v_first],
                                                         pinned[two]))
    k_w = rref[:, :, :m].any(axis=2).sum(axis=1)  # the rows before D_v
    # where k_w is 0, D_v is the whole code, already scanned; where it is dim, D_v is 0
    short = pinned & (b < 0) & (k_w > 0) & (k_w < rref.shape[1])
    for k in dict.fromkeys(k_w[short].tolist()):
        on = short & (k_w == k)
        best[on] = np.minimum(best[on], _weighted_scan(rref[on, k:], p, a[on], cap,
                                                       True, pinned[on]))  # every column counted
    return best


def lightest_word_weights(
    p: int, spans: np.ndarray, dims: Sequence[int], projections: Sequence[tuple | None],
    cap: int, limit: int = DEFAULT_ENUM_LIMIT,
) -> np.ndarray:
    """min(d_min, cap + 1) of each code i of a stack over GF(p), cap + 1 for a
    zero code: spans[i] holds rows that span code i, its first dims[i] a
    basis, projections[i] its (full, sum_zero), or None for a general code.

    Each nonzero dim and projections gets one scan_plan, whose candidates the
    limit bounds (plan_candidates); every plan is checked before any scan. A
    plan (0, 0) keeps cap + 1 with no scan. The other codes take one row scan
    of their first dims rows, a restricted code's (projections not None) of
    the copy of w and v alone, as column j + m repeats column j, and then
    one rref_lightest_weights call per dim."""
    dims, m = np.asarray(dims), spans.shape[2] // 3
    keys = list(zip(dims.tolist(), projections))
    plans = {key: scan_plan(p, *key, cap) for key in dict.fromkeys(keys) if key[0]}
    for (dim, _), plan in plans.items():
        check_limit(plan_candidates(p, dim, plan), "candidate messages", limit)
    chosen = np.array([plans.get(key, (0, 0)) for key in keys]).reshape(-1, 2)
    best, scan = np.full(len(dims), cap + 1), np.flatnonzero(chosen.any(axis=1))
    if not len(scan):
        return best
    restricted = np.array([projections[i] is not None for i in scan])
    lo = m * restricted.all()  # a stack of restricted codes scans 2m columns
    work = spans[scan, : dims[scan].max(), lo:]
    work[restricted, :, : m - lo] = 0  # a restricted code's w: its copy is reduced instead
    rrefs = np.zeros(work.shape[:2] + (3 * m,), dtype=np.int64)
    rrefs[:, :, lo:] = leading_independent_rows(work, p)[1]
    rrefs[restricted, :, :m] = rrefs[restricted, :, m : 2 * m]
    for dim in dict.fromkeys(dims[scan].tolist()):
        same = dims[scan] == dim
        best[scan[same]] = rref_lightest_weights(rrefs[same, :dim], p, cap, chosen[scan[same]])
    return best


# -- message enumeration helpers --------------------------------------------------


def codeword_blocks(
    gen: np.ndarray, p: int, limit: int = DEFAULT_ENUM_LIMIT
) -> Iterator[np.ndarray]:
    """The words y @ gen mod p for all p^k messages y in F^k, k = len(gen), in
    blocks of about PRODUCT_BLOCK entries; message index i has digits
    y_j = (i // p^j) % p, so index 0 is the zero word (the only one when k = 0).

    Raises at the call, before any block, when p^k exceeds the limit."""
    k, total = len(gen), p ** len(gen)
    check_limit(total, "words", limit)
    radix = np.array([p**j for j in range(k)], dtype=np.int64)
    step = max(1, PRODUCT_BLOCK // gen.shape[1])  # messages per block
    idx = (np.arange(i, min(i + step, total), dtype=np.int64) for i in range(0, total, step))
    return (gf_matmul((i[:, None] // radix) % p, gen, p) for i in idx)


def low_weight_message_count(p: int, k: int, max_weight: int) -> int:
    """Number of weight <= max_weight messages in F^k with first nonzero entry 1."""
    w_cap = min(max_weight, k)
    return sum(comb(k, w) * (p - 1) ** (w - 1) for w in range(1, w_cap + 1))


@lru_cache(maxsize=64)
def low_weight_messages(
    p: int, mult: tuple[int, ...], max_weight: int, pinned: bool = False
) -> np.ndarray:
    """All nonzero messages y in F^k, k = len(mult), whose weighted weight
    (the sum of mult[r] over y_r != 0) is at most max_weight, scalar-normalized;
    when pinned, only those with y_0 = 1.

    Scaling a message scales the codeword without changing its weight, so the
    first nonzero entry is pinned to 1 and nothing is lost. Built one nonzero
    entry at a time, in as many steps as the widest support: each message of
    a step is extended at each later position j that still fits, by each of
    y_j = 1..p-1 (by y_j = 1 alone in the first step, from the zero message,
    and at j = 0 alone when pinned).
    """
    weights, at = np.array(mult, dtype=np.int64), np.arange(len(mult))
    last = at[(weights <= max_weight) & (at < (1 if pinned else len(mult)))]
    step, spent = np.eye(len(mult), dtype=np.int64)[last], weights[last]
    steps = [step]
    while len(step):
        row, j = np.nonzero((at > last[:, None]) & (spent[:, None] + weights <= max_weight))
        row, j = row.repeat(p - 1), j.repeat(p - 1)
        step, last, spent = step[row], j, spent[row] + weights[j]
        step[np.arange(len(row)), j] = np.arange(len(row)) % (p - 1) + 1
        steps.append(step)
    out = np.concatenate(steps)
    out.setflags(write=False)
    return out
