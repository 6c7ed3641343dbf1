"""Field, polynomial, quotient-ring, CRT, and cyclotomic-coset tests."""

import math
import random

import numpy as np
import pytest

from qc15.algebra import (
    NEG_INF,
    Poly,
    PrimeField,
    RingElement,
    coset_idempotents,
    crt_combine,
    crt_split,
    cyclotomic_cosets,
    min_factor_degree,
    poly_gcd,
)
from qc15.codes import circulant_matrix
from qc15.errors import (
    DivisionByZero,
    FieldMismatch,
    NoNonzeroCoset,
    NotCoprime,
    RingMismatch,
)
from oracles import rank

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


F11 = PrimeField(11)


def poly(field, text):
    return Poly.from_text(field, text)


def random_poly(rnd: random.Random, field: PrimeField, max_len: int) -> Poly:
    return Poly(field, tuple(rnd.randrange(field.p) for _ in range(rnd.randrange(max_len))))


def reference_gcd(f: Poly, g: Poly) -> Poly:
    """Textbook Euclid on Poly's % operator."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


class TestPrimeField:
    def test_rejects_non_primes_and_two(self):
        for bad in (0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError):
                PrimeField(bad)
        with pytest.raises(ValueError):
            PrimeField(2)

    def test_basic_ops_mod3(self):
        assert F3.inv(2) == 2  # 2*2 = 4 = 1
        assert (2 * F3.inv(2)) % 3 == 1

    def test_inv_mod5_matches_exhaustive_search(self):
        expected = next(x for x in range(5) if (3 * x) % 5 == 1)
        assert expected == 2
        assert F5.inv(3) == expected

    def test_inv_zero_raises(self):
        with pytest.raises(DivisionByZero):
            F3.inv(0)

    def test_inverse_identity_all_elements(self):
        for field in (F3, F5, F7):
            for x in range(1, field.p):
                assert (x * field.inv(x)) % field.p == 1


class TestPoly:
    def test_normalization_strips_trailing_zeros(self):
        f = Poly(F3, (1, 2, 0, 0))
        assert f.coeffs == (1, 2)
        assert f.degree == 1

    def test_zero_degree_sentinel(self):
        assert Poly.zero(F3).degree == NEG_INF
        assert Poly.zero(F3).degree < 0

    def test_mismatched_fields(self):
        with pytest.raises(FieldMismatch):
            Poly.one(F3) + Poly.one(F5)

    def test_text_roundtrip(self):
        f = poly(F3, "2,1,2,1")
        assert f.to_text() == "2,1,2,1"
        assert poly(F3, "-1,4").coeffs == (2, 1)  # reduced mod 3
        assert poly(F3, "").is_zero()

    def test_divmod_x4_minus_1_by_x2_plus_1(self):
        q, r = divmod(Poly.x_pow_minus_one(F3, 4), poly(F3, "1,0,1"))
        assert q == poly(F3, "-1,0,1")  # X^2 - 1
        assert r.is_zero()

    def test_divmod_by_one(self):
        f = poly(F3, "2,0,1,1")
        q, r = divmod(f, Poly.one(F3))
        assert q == f and r.is_zero()

    def test_divmod_hand_worked(self):
        # (X^3 + 2X^2 + X + 2) / (X + 1) = (X^2 + X, remainder 2); checked by
        # re-multiplication: (X+1)(X^2+X) + 2 = X^3 + 2X^2 + X + 2.
        f = poly(F3, "2,1,2,1")
        g = poly(F3, "1,1")
        q, r = divmod(f, g)
        assert q == poly(F3, "0,1,1")
        assert r == poly(F3, "2")
        assert q * g + r == f

    def test_divmod_random_reconstruction(self):
        rnd = random.Random(101)
        for field in (F3, F5, F7):
            for _ in range(100):
                f = Poly(field, tuple(rnd.randrange(field.p) for _ in range(rnd.randrange(9))))
                g = Poly(field, tuple(rnd.randrange(field.p) for _ in range(1, rnd.randrange(1, 6))))
                if g.is_zero():
                    continue
                q, r = divmod(f, g)
                assert q * g + r == f
                assert r.is_zero() or r.degree < g.degree

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            divmod(poly(F3, "1,1"), Poly.zero(F3))

    def test_gcd_worked_case(self):
        # a = (X-1)(X^2+1) = X^3 + 2X^2 + X + 2 over GF(3); X^2 + 1 divides it.
        assert poly(F3, "2,1,2,1").gcd(poly(F3, "1,0,1")) == poly(F3, "1,0,1")

    def test_gcd_with_zero(self):
        f = poly(F3, "0,2")  # 2X, monic form X
        assert f.gcd(Poly.zero(F3)) == poly(F3, "0,1")
        assert Poly.zero(F3).gcd(Poly.zero(F3)).is_zero()

    def test_gcd_of_binomials_mod5(self):
        got = Poly.x_pow_minus_one(F5, 4).gcd(Poly.x_pow_minus_one(F5, 6))
        assert got == Poly.x_pow_minus_one(F5, 2).monic()

    def test_gcd_binomial_rule_grid(self):
        # gcd(X^a - 1, X^b - 1) = X^gcd(a,b) - 1 for 1 <= a, b <= 12
        for field in (F3, F5, F7):
            for a in range(1, 13):
                for b in range(1, 13):
                    got = Poly.x_pow_minus_one(field, a).gcd(Poly.x_pow_minus_one(field, b))
                    want = Poly.x_pow_minus_one(field, math.gcd(a, b)).monic()
                    assert got == want

    def test_gcd_axioms_random(self):
        rnd = random.Random(202)
        for _ in range(150):
            field = rnd.choice((F3, F5))
            f = Poly(field, tuple(rnd.randrange(field.p) for _ in range(rnd.randrange(1, 8))))
            g = Poly(field, tuple(rnd.randrange(field.p) for _ in range(rnd.randrange(1, 8))))
            d = f.gcd(g)
            if f.is_zero() and g.is_zero():
                assert d.is_zero()
                continue
            assert d.divides(f) and d.divides(g)
            assert d.lead() == 1
            # every common divisor divides the gcd: build one by construction
            c = Poly(field, tuple(rnd.randrange(field.p) for _ in range(rnd.randrange(1, 4))))
            if not c.is_zero():
                assert c.divides((f * c).gcd(g * c))
        # degrees up to 62, p up to 11, sparse operands: X^m - 1, X^m + 1 and
        # the restricted generator (X^m + 1)(X - 1), against a reference Euclid
        for _ in range(150):
            field = rnd.choice((F3, F5, F7, F11))
            m = rnd.randrange(1, 32)
            sparse = (
                Poly.x_pow_minus_one(field, m),
                Poly.x_pow_plus_one(field, m),
                Poly.x_pow_plus_one(field, m) * Poly(field, (-1, 1)),
            )
            f = rnd.choice(sparse + (random_poly(rnd, field, 63),))
            g = random_poly(rnd, field, 63)
            if rnd.random() < 0.5:
                g = g * rnd.choice(sparse)
            for u, v in ((f, g), (g, f)):
                if not v.is_zero():
                    q, r = divmod(u, v)
                    assert q * v + r == u and (r.is_zero() or r.degree < v.degree)
            assert f.gcd(g) == g.gcd(f) == reference_gcd(f, g)

    def test_evaluate(self):
        f = poly(F3, "2,1,2,1")
        assert f.evaluate(1) == 0  # divisible by X - 1
        assert f.evaluate(0) == 2


class TestRingElement:
    def test_fixed_length_kept(self):
        x = RingElement.from_coeffs(F3, 4, [1])
        assert x.coeffs == (1, 0, 0, 0)
        with pytest.raises(ValueError):
            RingElement(F3, 4, (1, 2))
        with pytest.raises(ValueError, match="^5 coefficients do not fit in R_4$"):
            RingElement.from_coeffs(F3, 4, [1, 0, 0, 0, 1])

    def test_wraparound_x_times_top_power(self):
        x = RingElement.from_poly(Poly.x_pow(F3, 1), 4)
        top = RingElement.from_poly(Poly.x_pow(F3, 3), 4)
        assert (x * top) == RingElement.one(F3, 4)

    def test_worked_product(self):
        # (X^2+1)(X+2) = X^3 + 2X^2 + X + 2 in R_4 over GF(3)
        u = RingElement.from_text(F3, 4, "1,0,1")
        v = RingElement.from_text(F3, 4, "2,1")
        assert (u * v).coeffs == (2, 1, 2, 1)

    def test_product_collapsing_to_zero(self):
        # (X+1)(X+2) = X^2 + 2 = 1 + 2 = 0 in R_2 over GF(3)
        u = RingElement.from_text(F3, 2, "1,1")
        v = RingElement.from_text(F3, 2, "2,1")
        assert (u * v).is_zero()

    def test_mul_commutative_associative_random(self):
        rnd = random.Random(303)
        for _ in range(80):
            n = rnd.choice((2, 4, 5, 6))
            field = rnd.choice((F3, F5))
            mk = lambda: RingElement(field, n, tuple(rnd.randrange(field.p) for _ in range(n)))
            x, y, z = mk(), mk(), mk()
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
        # co-lengths up to 62, p up to 11, sparse operands: the restricted
        # generators and X^k +- 1, against the folded product of the lifts
        for _ in range(120):
            field = rnd.choice((F3, F5, F7, F11))
            m = rnd.randrange(1, 32)
            n, sparse = rnd.choice((
                (2 * m, Poly.x_pow_plus_one(field, m) * Poly(field, (-1, 1))),
                (m, Poly(field, (-1, 1))),
                (2 * m, Poly.x_pow_minus_one(field, rnd.randrange(1, 2 * m + 1))),
                (2 * m, Poly.x_pow_plus_one(field, rnd.randrange(1, 2 * m + 1))),
            ))
            operands = [sparse] + [random_poly(rnd, field, n + 1) for _ in range(2)]
            x, y, z = (RingElement.from_poly(rnd.choice(operands), n) for _ in range(3))
            assert x * y == y * x == RingElement.from_poly(x.lift() * y.lift(), n)
            assert (x * y) * z == x * (y * z)

    def test_x_to_the_n_is_identity(self):
        for n in (2, 4, 5):
            xn = RingElement.from_poly(Poly.x_pow(F3, n), n)
            assert xn == RingElement.one(F3, n)

    def test_shift_is_multiplication_by_x(self):
        rnd = random.Random(404)
        x = RingElement.from_poly(Poly.x_pow(F3, 1), 6)
        for _ in range(20):
            v = RingElement(F3, 6, tuple(rnd.randrange(3) for _ in range(6)))
            assert v.shift() == v * x

    def test_mismatch(self):
        with pytest.raises(RingMismatch):
            RingElement.one(F3, 4) * RingElement.one(F3, 2)
        with pytest.raises(RingMismatch):
            RingElement.one(F3, 4) * RingElement.one(F5, 4)

    def test_fold_to(self):
        v = RingElement.from_text(F3, 4, "2,1,2,1")
        assert v.fold_to(2).coeffs == (1, 2)  # 2+2=4=1, 1+1=2
        with pytest.raises(RingMismatch):
            v.fold_to(3)


class TestRingOracle:
    """RingElement computes through Poly; these check it against numpy in
    object ints: a * b is the row vector a times circulant_matrix(b), and +,
    -, unary - and scale act elementwise, all mod p."""

    @pytest.mark.parametrize("p", (3, 5, 7, 1009, 4294967311))
    def test_matches_numpy(self, p):
        field = PrimeField(p)
        rnd = random.Random(p)
        for _ in range(60):
            n = rnd.randrange(1, 13)
            density = rnd.choice((1.0, 0.25, 0.0))  # random, sparse, zero
            x, y = (
                RingElement(field, n, tuple(rnd.randrange(p) if rnd.random() < density else 0
                                            for _ in range(n)))
                for _ in range(2)
            )
            u, v = (np.array(e.coeffs, dtype=object) for e in (x, y))
            k = rnd.randrange(-p, 2 * p)
            assert (x * y).coeffs == tuple(u @ circulant_matrix(y).astype(object) % p)
            assert (x * k).coeffs == x.scale(k).coeffs == tuple(u * k % p)
            assert (x + y).coeffs == tuple((u + v) % p)
            assert (x - y).coeffs == tuple((u - v) % p)
            assert (-x).coeffs == tuple(-u % p)


class TestCrt:
    def test_x_to_m_splits_to_one_and_minus_one(self):
        for m in (2, 3, 5):
            f = RingElement.from_poly(Poly.x_pow(F3, m), 2 * m)
            u, v = crt_split(f)
            assert u == RingElement.one(F3, m)
            assert v == Poly(F3, (-1,))

    def test_constant_splits_to_itself(self):
        f = RingElement.from_coeffs(F5, 6, [4])
        u, v = crt_split(f)
        assert u == RingElement.from_coeffs(F5, 3, [4])
        assert v == Poly(F5, (4,))
        assert crt_combine(u, v) == f

    def test_worked_split(self):
        f = RingElement.from_text(F3, 4, "2,1,2,1")
        u, v = crt_split(f)
        assert u == RingElement.from_text(F3, 2, "1,2")  # 2X + 1
        assert v.is_zero()
        assert crt_combine(u, v) == f

    def test_roundtrip_exhaustive_small(self):
        # every element of R_4 and R_8 over GF(3)
        for m in (2, 4):
            n = 2 * m
            for idx in range(3**n):
                coeffs = tuple((idx // 3**j) % 3 for j in range(n))
                f = RingElement(F3, n, coeffs)
                u, v = crt_split(f)
                assert crt_combine(u, v) == f

    def test_roundtrip_random_larger(self):
        rnd = random.Random(505)
        for _ in range(10_000):
            field = rnd.choice((F3, F5, F7))
            m = rnd.choice((3, 5, 6))
            f = RingElement(field, 2 * m, tuple(rnd.randrange(field.p) for _ in range(2 * m)))
            u, v = crt_split(f)
            assert crt_combine(u, v) == f

    @pytest.mark.parametrize("degree", (2, 3))
    def test_combine_rejects_a_residue_of_degree_m(self, degree):
        v = Poly(F3, (1,) + (0,) * (degree - 1) + (1,))
        with pytest.raises(ValueError, match=r"^residue mod X\^2\+1 must have degree < 2$"):
            crt_combine(RingElement.one(F3, 2), v)

    def test_split_rejects_odd_length(self):
        with pytest.raises(RingMismatch):
            crt_split(RingElement.one(F3, 5))


class TestCosets:
    def test_m2_q3(self):
        part = cyclotomic_cosets(2, 3)
        assert part.cosets == ((0,), (1,))

    def test_m4_q3(self):
        part = cyclotomic_cosets(4, 3)
        assert part.cosets == ((0,), (1, 3), (2,))
        assert sorted(part.nonzero_sizes()) == [1, 2]

    def test_m5_q3(self):
        part = cyclotomic_cosets(5, 3)
        assert part.cosets == ((0,), (1, 2, 3, 4))

    def test_partition_properties(self):
        for m in range(2, 31):
            for q in (3, 5, 7):
                if math.gcd(m, q) != 1:
                    continue
                part = cyclotomic_cosets(m, q)
                flat = sorted(s for coset in part.cosets for s in coset)
                assert flat == list(range(m))
                for coset in part.cosets:
                    for s in coset:
                        assert (s * q) % m in coset
                    # orbit size is the least k > 0 with s*q^k = s (mod m)
                    s = coset[0]
                    k, t = 1, (s * q) % m
                    while t != s:
                        t = (t * q) % m
                        k += 1
                    assert k == len(coset)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            cyclotomic_cosets(6, 3)

    def test_min_factor_degree(self):
        assert min_factor_degree(2, 3) == 1
        assert min_factor_degree(4, 3) == 1
        assert min_factor_degree(5, 3) == 4
        with pytest.raises(NoNonzeroCoset):
            min_factor_degree(1, 3)


# every n coprime to q: q = 3 up to 13, q = 5 and 7 up to 8
IDEMPOTENT_RINGS = [(q, n) for q, top in ((3, 13), (5, 8), (7, 8))
                    for n in range(1, top + 1) if math.gcd(n, q) == 1]


class TestCosetIdempotents:
    # p > 2^32: the split constants c run over GF(p) lazily
    @pytest.mark.parametrize("q, n", IDEMPOTENT_RINGS + [(4294967311, 2)])
    def test_orthogonal_idempotents_summing_to_one(self, q, n):
        field = PrimeField(q)
        es = coset_idempotents(field, n)
        assert len(es) == len(cyclotomic_cosets(n, q).cosets)
        total = RingElement.zero(field, n)
        for i, e in enumerate(es):
            assert not e.is_zero()
            assert e * e == e
            for f in es[i + 1:]:
                assert (e * f).is_zero()
            total = total + e
        assert total == RingElement.one(field, n)

    @pytest.mark.parametrize("q, n", IDEMPOTENT_RINGS)
    def test_block_dimension_is_coset_size(self, q, n):
        field = PrimeField(q)
        cosets = cyclotomic_cosets(n, q).cosets
        es = coset_idempotents(field, n)
        assert [rank(circulant_matrix(e), q) for e in es] == [len(c) for c in cosets]
        # the coset {0} comes first, and its idempotent is (1 + X + ... + X^(n-1)) / n
        assert cosets[0] == (0,)
        assert es[0] == RingElement(field, n, (pow(n, -1, q),) * n)

    def test_cached_per_ring(self):
        assert coset_idempotents(F3, 13) is coset_idempotents(PrimeField(3), 13)


def test_poly_gcd_three_way():
    f = poly(F3, "2,1,2,1")
    a_prime = poly(F3, "1,1")
    got = poly_gcd(f, a_prime, Poly.x_pow_minus_one(F3, 2))
    assert got == Poly.one(F3)
