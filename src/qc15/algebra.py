"""Exact arithmetic over GF(p), polynomials, and the quotient rings R_n = GF(p)[X]/(X^n - 1).

Ring arithmetic is Poly arithmetic on the lifts, reduced by X^n = 1 in
RingElement.from_poly; Poly.__mul__ holds the one product loop. Everything
here is immutable after construction and all operations are pure functions,
so values can be shared freely across threads.

Polynomial coefficients are stored in ascending order (constant term first),
matching the word identification (a_0, a_1, ..., a_{n-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, zip_longest
from typing import Sequence

import numpy as np

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NoNonzeroCoset,
    NotCoprime,
    RingMismatch,
)

NEG_INF = float("-inf")  # degree of the zero polynomial; never a valid int degree


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def exact_dtype(p: int, terms: int = 1) -> type:
    """The narrowest of int32, int64 and object ints that holds a sum of
    `terms` products of two residues mod p."""
    top = (p - 1) ** 2 * terms
    return np.int32 if top < 2**31 else np.int64 if top < 2**63 else object


class PrimeField:
    """The prime field GF(p) for an odd prime p >= 3.

    p = 2 is rejected: the CRT idempotents used by the ring split divide by 2,
    so the whole construction needs odd characteristic.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field size must be prime, got {p}")
        if p < 3:
            raise ValueError("field size must be an odd prime >= 3")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    # -- scalar arithmetic on residues in [0, p) ------------------------------

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.p})")
        return pow(x, -1, self.p)

    @property
    def half(self) -> int:
        """The residue 1/2, which exists because p is odd."""
        return self.inv(2)


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _reduce(rem: list[int], divisor: Sequence[int], p: int) -> list[int]:
    """Divide in place: rem becomes rem mod divisor, stripped; returns the quotient.

    Both are coefficient lists reduced mod p, divisor without trailing zeros
    and nonzero. Each step subtracts a multiple of the divisor's nonzero terms
    only, so a sparse divisor such as X^m - 1 costs one update per step.
    """
    dg = len(divisor) - 1
    inv_lead = pow(divisor[-1], -1, p)
    terms = [(j, g) for j, g in enumerate(divisor[:-1]) if g]
    quot = [0] * max(len(rem) - dg, 0)
    for k in range(len(rem) - 1 - dg, -1, -1):
        c = rem[dg + k] * inv_lead % p
        if c:
            quot[k] = c
            for j, g in terms:
                rem[j + k] = (rem[j + k] - c * g) % p
    del rem[dg:]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot


@dataclass(frozen=True)
class Poly:
    """A polynomial over GF(p): ascending coefficients, no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree NEG_INF,
    so degree arithmetic on it fails loudly instead of silently using -1.
    """

    field: PrimeField
    coeffs: tuple[int, ...]

    def __post_init__(self):
        p = self.field.p
        object.__setattr__(self, "coeffs", _strip([c % p for c in self.coeffs]))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x_pow(cls, field: PrimeField, k: int, scale: int = 1) -> "Poly":
        return cls(field, (0,) * k + (scale,))

    @classmethod
    def x_pow_minus_one(cls, field: PrimeField, n: int) -> "Poly":
        """X^n - 1."""
        return cls(field, (-1,) + (0,) * (n - 1) + (1,))

    @classmethod
    def x_pow_plus_one(cls, field: PrimeField, n: int) -> "Poly":
        """X^n + 1."""
        return cls(field, (1,) + (0,) * (n - 1) + (1,))

    @classmethod
    def from_text(cls, field: PrimeField, text: str) -> "Poly":
        """Parse comma-separated ascending coefficients, e.g. "2,1,2,1".

        Each integer is reduced mod p, so negative or oversized entries are
        accepted. An empty string parses as the zero polynomial.
        """
        text = text.strip()
        if not text:
            return cls.zero(field)
        return cls(field, tuple(int(t) for t in text.split(",")))

    # -- basic queries ----------------------------------------------------------

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> int:
        if not self.coeffs:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.field.p
        return acc

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"Poly[{self.to_text()} mod {self.field.p}]"

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Poly(self.field, tuple(map(sum, pairs)))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        """The one product loop: zero terms skipped, sums reduced by __post_init__."""
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return Poly(self.field, tuple(out))

    __rmul__ = __mul__

    def scale(self, c: int) -> "Poly":
        c %= self.field.p
        return Poly(self.field, tuple(c * a for a in self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        quot = _reduce(rem, other.coeffs, self.field.p)
        return Poly(self.field, tuple(quot)), Poly(self.field, tuple(rem))

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.lead()
        return self if lead == 1 else self.scale(self.field.inv(lead))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor; gcd(0, 0) = 0 by convention."""
        self._check(other)
        p = self.field.p
        a, b = list(self.coeffs), list(other.coeffs)
        while b:
            _reduce(a, b, p)
            a, b = b, a
        if a:
            inv_lead = pow(a[-1], -1, p)
            a = [c * inv_lead for c in a]
        return Poly(self.field, tuple(a))

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()


def poly_gcd(*polys: Poly) -> Poly:
    """Monic gcd of any number of polynomials."""
    it = iter(polys)
    acc = next(it)
    for f in it:
        acc = acc.gcd(f)
    return acc


@dataclass(frozen=True)
class RingElement:
    """An element of R_n = GF(p)[X]/(X^n - 1): exactly n coefficients, trailing zeros kept."""

    field: PrimeField
    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(self.coeffs)}")
        p = self.field.p
        object.__setattr__(self, "coeffs", tuple([c % p for c in self.coeffs]))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "RingElement":
        return cls(field, n, (0,) * n)

    @classmethod
    def one(cls, field: PrimeField, n: int) -> "RingElement":
        return cls(field, n, (1,) + (0,) * (n - 1))

    @classmethod
    def from_coeffs(cls, field: PrimeField, n: int, coeffs: Sequence[int]) -> "RingElement":
        """Pad a short coefficient list with zeros up to length n."""
        coeffs = list(coeffs)
        if len(coeffs) > n:
            raise ValueError(f"{len(coeffs)} coefficients do not fit in R_{n}")
        coeffs += [0] * (n - len(coeffs))
        return cls(field, n, tuple(coeffs))

    @classmethod
    def from_poly(cls, poly: Poly, n: int) -> "RingElement":
        """Reduce a polynomial mod X^n - 1 by folding exponents mod n: the one
        place X^n = 1 is applied. __post_init__ reduces the sums mod p."""
        out = [0] * n
        for k, c in enumerate(poly.coeffs):
            out[k % n] += c
        return cls(poly.field, n, tuple(out))

    @classmethod
    def from_text(cls, field: PrimeField, n: int, text: str) -> "RingElement":
        return cls.from_poly(Poly.from_text(field, text), n)

    # -- queries -----------------------------------------------------------------

    def lift(self) -> Poly:
        """The canonical representative of degree < n."""
        return Poly(self.field, self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"RingElement[{self.to_text()} in R_{self.n} mod {self.field.p}]"

    # -- arithmetic ----------------------------------------------------------------

    def _check(self, other: "RingElement"):
        if self.field != other.field or self.n != other.n:
            raise RingMismatch(
                f"R_{self.n} over GF({self.field.p}) vs R_{other.n} over GF({other.field.p})"
            )

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement.from_poly(self.lift() + other.lift(), self.n)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement.from_poly(self.lift() - other.lift(), self.n)

    def __neg__(self) -> "RingElement":
        return RingElement.from_poly(-self.lift(), self.n)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        return RingElement.from_poly(self.lift() * other.lift(), self.n)

    __rmul__ = __mul__

    def scale(self, c: int) -> "RingElement":
        return RingElement.from_poly(self.lift().scale(c), self.n)

    def shift(self, k: int = 1) -> "RingElement":
        """Multiply by X^k: a cyclic right rotation of the coefficient vector."""
        k %= self.n
        return RingElement(self.field, self.n, self.coeffs[-k:] + self.coeffs[:-k] if k else self.coeffs)

    def fold_to(self, n: int) -> "RingElement":
        """Reduce into R_n for a divisor n of the current co-length."""
        if self.n % n != 0:
            raise RingMismatch(f"cannot fold R_{self.n} into R_{n}")
        return RingElement.from_poly(self.lift(), n)


# -- Chinese Remainder split of R_{2m} across X^m - 1 and X^m + 1 -----------------


def crt_split(f: RingElement) -> tuple[RingElement, Poly]:
    """Split f in R_{2m} into (f mod X^m - 1, f mod X^m + 1).

    The first component lands in R_m; the second is a plain residue of
    degree < m since GF(p)[X]/(X^m + 1) is not one of our rings.
    """
    if f.n % 2 != 0:
        raise RingMismatch(f"crt_split needs an even co-length, got {f.n}")
    m = f.n // 2
    p = f.field.p
    lo, hi = f.coeffs[:m], f.coeffs[m:]
    u = tuple((a + b) % p for a, b in zip(lo, hi))   # X^m = 1
    v = tuple((a - b) % p for a, b in zip(lo, hi))   # X^m = -1
    return RingElement(f.field, m, u), Poly(f.field, v)


def crt_combine(u: RingElement, v: Poly) -> RingElement:
    """Inverse of crt_split: the unique f in R_{2m} with the given residues.

    Uses f = u * (X^m + 1)/2 - v * (X^m - 1)/2; the division by 2 is why the
    field must have odd characteristic.
    """
    m = u.n
    if not v.is_zero() and v.degree >= m:
        raise ValueError(f"residue mod X^{m}+1 must have degree < {m}")
    field = u.field
    p = field.p
    half = field.half
    vc = list(v.coeffs) + [0] * (m - len(v.coeffs))
    lo = [((a + b) * half) % p for a, b in zip(u.coeffs, vc)]
    hi = [((a - b) * half) % p for a, b in zip(u.coeffs, vc)]
    return RingElement(field, 2 * m, tuple(lo + hi))


# -- cyclotomic cosets --------------------------------------------------------------


@dataclass(frozen=True)
class CosetPartition:
    """The q-cyclotomic cosets mod m: orbits of s -> s*q on Z_m.

    Coset sizes equal the degrees of the irreducible factors of X^m - 1 over
    GF(q), with the coset {0} corresponding to the factor X - 1, and the
    dimensions of the blocks e_C R_m of the primitive idempotents
    (coset_idempotents). That is all the factor information any formula
    here needs, so irreducible factor polynomials are never computed.
    """

    m: int
    q: int
    cosets: tuple[tuple[int, ...], ...]

    def nonzero_sizes(self) -> list[int]:
        """Sizes of the cosets other than {0}, i.e. degrees of the factors of (X^m-1)/(X-1)."""
        return [len(c) for c in self.cosets if c != (0,)]


def check_coprime(m: int, q: int) -> None:
    """The one check that the co-index m and the field size q are coprime."""
    if math.gcd(m, q) != 1:
        raise NotCoprime(f"m={m} must be coprime to q={q}")


def cyclotomic_cosets(m: int, q: int) -> CosetPartition:
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    check_coprime(m, q)
    seen = [False] * m
    cosets = []
    for s in range(m):
        if seen[s]:
            continue
        orbit = []
        t = s
        while not seen[t]:
            seen[t] = True
            orbit.append(t)
            t = (t * q) % m
        cosets.append(tuple(sorted(orbit)))
    return CosetPartition(m, q, tuple(cosets))


def min_factor_degree(m: int, q: int) -> int:
    """Smallest degree among the irreducible factors of (X^m - 1)/(X - 1) over GF(q).

    Equals the smallest nonzero q-cyclotomic coset size mod m.
    """
    if m == 1:
        raise NoNonzeroCoset("(X^m - 1)/(X - 1) has no factors when m = 1")
    sizes = cyclotomic_cosets(m, q).nonzero_sizes()
    return min(sizes)


@lru_cache(maxsize=None)
def coset_idempotents(field: PrimeField, n: int) -> tuple[RingElement, ...]:
    """The primitive idempotents e_C of R_n, one per p-cyclotomic coset C mod n,
    in cyclotomic_cosets order: dim e_C R_n = |C|, e_{0} = (1 + ... + X^(n-1))/n.

    f^p = f iff f is constant on the cosets, so the coset sums s_C span the
    Frobenius-fixed subalgebra, GF(p)^(cosets) with unit vectors e_C. The
    split runs there, on coordinates in the basis s_C: s_A s_B = sum_R N s_R,
    N the number of (x, y) in A x B with x + y = r mod n for any r in R.
    Each piece of 1 is split by Lagrange interpolation on the values
    {0, 1, -1} of h = (s + c)^((p-1)/2), s a coset sum, c = 0, 1, ...: into
    1 - h^2 and (h^2 +- h)/2; cosets where s takes v != w part at c = -v at
    the latest. The pieces are expanded to R_n at the end. A piece e R_n is
    GF(p^d), d = |C|, and X e generates it, so d is the least d >= 1 with
    (X e)^(p^d) = X e, i.e. X^(p^d - 1) e = e. Which e_C of a size goes with
    which coset of that size depends on a choice of root of unity, which
    nothing here fixes."""
    p = field.p
    cosets = cyclotomic_cosets(n, p).cosets
    if len(cosets) <= 2:  # e_{0} and, for n > 1, the rest of 1
        e_0 = RingElement(field, n, (pow(n, -1, p),) * n)
        return (e_0, RingElement.one(field, n) - e_0)[: len(cosets)]
    k, sizes, j = len(cosets), [len(coset) for coset in cosets], np.arange(n)
    label = np.repeat(np.arange(k), sizes)[np.argsort(np.concatenate(cosets))]  # j's coset
    table = np.zeros((k, k, k), dtype=np.int64)
    np.add.at(table, (label[:, None], label, label[(j[:, None] + j) % n]), 1)  # N |R|
    dtype = exact_dtype(p, k)
    table = (table // sizes % p).astype(dtype).reshape(k, k * k)
    # each row of u times each row of v, (len(u), len(v), k)
    mul = lambda u, v: v @ (u @ table % p).reshape(len(u), k, k) % p
    one = np.eye(1, k, dtype=dtype)  # s_{0} = 1, as cosets[0] = (0,)
    pieces = one
    for c, i in ((c, i) for c in range(p) for i in range(k)):
        if len(pieces) == k:
            break
        x = h = (one * c + np.eye(1, k, i, dtype=dtype)) % p
        for bit in bin((p - 1) // 2)[3:]:
            h = mul(mul(h, h)[0], x)[0] if bit == "1" else mul(h, h)[0]
        h2 = mul(h, h)[0]
        parts = np.vstack([one - h2, (h2 + h) * field.half, (h2 - h) * field.half]) % p
        pieces = mul(pieces, parts).reshape(-1, k)
        pieces = pieces[(pieces != 0).any(axis=1)]
    coeffs = [tuple(e) for e in pieces[:, label].tolist()]
    # X^(p^d - 1) e is e rotated by 1 - p^d mod n, i.e. cut at n + 1 - (p^d mod n)
    dim = lambda e: next(d for d in count(1) if e[(cut := n + 1 - pow(p, d, n)):] + e[:cut] == e)
    coeffs.sort(key=lambda e: (dim(e), len(set(e)) > 1, e))  # e_{0} first
    slots = sorted(range(k), key=lambda i: len(cosets[i]))
    return tuple(RingElement(field, n, coeffs[slots.index(i)]) for i in range(k))
