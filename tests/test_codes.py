"""Construction, encoding, enumeration, and distance tests.

The two worked examples over GF(3) with m = 2 are used as golden cases: their
generator matrices and full codeword sets are pinned here verbatim.
"""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import count, product

import numpy as np
import pytest

from qc15 import codes
from qc15.algebra import Poly, PrimeField, RingElement, exact_dtype, is_prime
from qc15.codes import (
    Qc15Code,
    Word,
    check_poly,
    circulant_matrix,
    construct_code,
    coset_support,
    generator_poly,
    gf_matmul,
    gf_rref,
    leading_independent_rows,
    lightest_word_weights,
    rref_lightest_weights,
    scan_plan,
    span_matrix,
)
from qc15.algebra import coset_idempotents, cyclotomic_cosets
from qc15.ensemble import (
    TRIAL_BLOCK,
    _sample_block,
    _unit_orbits,
    exact_delta_leq_probs,
    mc_delta_probs,
    restricted_elements,
)
from qc15.errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    NotADivisor,
    NotCoprime,
    RingMismatch,
    ZeroCode,
)
from oracles import gauss_jordan, min_distance, multiplier_class_count, rank

F3 = PrimeField(3)

EXAMPLE1_WORDS = {
    "000000", "212111", "121222", "121211", "212122",
    "000022", "000011", "121200", "212100",
}
EXAMPLE2_WORDS = {
    "000000", "002121", "001212", "021012", "020100", "022221", "012021",
    "011112", "010200", "210021", "212112", "211200", "201000", "200121",
    "202212", "222012", "221100", "220221", "120012", "122100", "121221",
    "111021", "110112", "112200", "102000", "101121", "100212",
}


def example1() -> Qc15Code:
    a = RingElement.from_text(F3, 4, "2,1,2,1")
    a_prime = RingElement.from_text(F3, 2, "1,1")
    return construct_code(a, a_prime)


def example2() -> Qc15Code:
    a = RingElement.from_text(F3, 4, "2,1")
    a_prime = RingElement.from_text(F3, 2, "2,1")
    return construct_code(a, a_prime)


def random_pair(rnd: random.Random, field: PrimeField, m: int):
    a = RingElement(field, 2 * m, tuple(rnd.randrange(field.p) for _ in range(2 * m)))
    ap = RingElement(field, m, tuple(rnd.randrange(field.p) for _ in range(m)))
    return a, ap


def rowspace_words(code: Qc15Code) -> set[tuple[int, ...]]:
    """Independent oracle: enumerate y * span_matrix over all y in F^{2m}."""
    p = code.field.p
    full = span_matrix(code.a, code.a_prime)
    n_rows = full.shape[0]
    out = set()
    for idx in range(p**n_rows):
        y = np.array([(idx // p**j) % p for j in range(n_rows)], dtype=np.int64)
        out.add(tuple(int(c) for c in (y @ full) % p))
    return out


class TestWord:
    def test_shift_zero_word(self):
        w = Word(2, (0,) * 6)
        assert w.shifted() == w

    def test_shift_definition(self):
        w = Word(2, (1, 0, 0, 0, 1, 0))
        assert w.shifted() == Word(2, (0, 1, 0, 0, 0, 1))

    def test_shift_order_is_2m(self):
        rnd = random.Random(11)
        for m in (2, 3, 5):
            w = Word(m, tuple(rnd.randrange(3) for _ in range(3 * m)))
            v = w
            for _ in range(2 * m):
                v = v.shifted()
            assert v == w

    def test_length_validation(self):
        with pytest.raises(ValueError):
            Word(2, (0, 0, 0))

    def test_to_string(self):
        assert Word(1, (0, 0, 0)).to_string() == "000"
        assert Word(1, (12, 0, 3)).to_string() == "12-0-3"


class TestGeneratorPoly:
    def test_example1(self):
        a = RingElement.from_text(F3, 4, "2,1,2,1")
        ap = RingElement.from_text(F3, 2, "1,1")
        assert generator_poly(a, ap) == Poly.from_text(F3, "1,0,1")  # X^2 + 1

    def test_example2_monic_form(self):
        a = RingElement.from_text(F3, 4, "2,1")
        ap = RingElement.from_text(F3, 2, "2,1")
        assert generator_poly(a, ap) == Poly.from_text(F3, "2,1")  # X - 1, monic

    def test_zero_pair(self):
        a = RingElement.zero(F3, 4)
        ap = RingElement.zero(F3, 2)
        assert generator_poly(a, ap) == Poly.x_pow_minus_one(F3, 4).monic()


class TestCheckPoly:
    def test_example1(self):
        got = check_poly(Poly.from_text(F3, "1,0,1"), 2)
        assert got == Poly.from_text(F3, "2,0,1")  # X^2 - 1, monic

    def test_example2(self):
        got = check_poly(Poly.from_text(F3, "2,1"), 2)
        want = (Poly.from_text(F3, "1,0,1") * Poly.from_text(F3, "1,1")).monic()
        assert got == want

    def test_full_divisor_gives_one(self):
        assert check_poly(Poly.x_pow_minus_one(F3, 4), 2) == Poly.one(F3)

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            check_poly(Poly.from_text(F3, "1,1,1"), 2)

    def test_product_reconstructs(self):
        rnd = random.Random(21)
        for _ in range(40):
            m = rnd.choice((2, 4, 5))
            a, ap = random_pair(rnd, F3, m)
            code = construct_code(a, ap)
            assert code.g * code.h == Poly.x_pow_minus_one(F3, 2 * m)
            assert code.dim == 2 * m - code.g.degree


class TestGfMatmul:
    # p = 1009 takes the int64 product, p = 2^32 + 15 the object-int one
    @pytest.mark.parametrize("p", (1009, 4294967311))
    @pytest.mark.parametrize("inner", (1, 7))
    def test_matches_python_ints(self, p, inner):
        rng = np.random.default_rng(inner)
        a = rng.integers(0, p, size=(5, inner))
        b = rng.integers(0, p, size=(inner, 4))
        a[0], b[:, 0] = p - 1, p - 1  # the largest products
        expected = [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()]
                    for row in a.tolist()]
        out = gf_matmul(a, b, p)
        assert out.dtype == np.int64 and out.tolist() == expected


class TestCirculants:
    def test_example1_blocks(self):
        a = RingElement.from_text(F3, 4, "2,1,2,1")
        ap = RingElement.from_text(F3, 2, "1,1")
        A = circulant_matrix(a)
        assert A.tolist() == [[2, 1, 2, 1], [1, 2, 1, 2], [2, 1, 2, 1], [1, 2, 1, 2]]
        assert circulant_matrix(ap).tolist() == [[1, 1], [1, 1]]
        full = span_matrix(a, ap)
        assert full.tolist() == [
            [2, 1, 2, 1, 1, 1],
            [1, 2, 1, 2, 1, 1],
            [2, 1, 2, 1, 1, 1],
            [1, 2, 1, 2, 1, 1],
        ]

    def test_example2_block(self):
        a = RingElement.from_text(F3, 4, "2,1")
        ap = RingElement.from_text(F3, 2, "2,1")
        full = span_matrix(a, ap)
        assert full.tolist() == [
            [2, 1, 0, 0, 2, 1],
            [0, 2, 1, 0, 1, 2],
            [0, 0, 2, 1, 2, 1],
            [1, 0, 0, 2, 1, 2],
        ]

    def test_zero_blocks(self):
        full = span_matrix(RingElement.zero(F3, 4), RingElement.zero(F3, 2))
        assert full.shape == (4, 6)
        assert not full.any()

    def test_rows_are_shift_encodings(self):
        rnd = random.Random(31)
        for _ in range(20):
            m = rnd.choice((2, 4))
            v = RingElement(F3, m, tuple(rnd.randrange(3) for _ in range(m)))
            mat = circulant_matrix(v)
            for i in range(m):
                assert tuple(int(c) for c in mat[i]) == v.shift(i).coeffs
        for _ in range(30):
            n = rnd.randrange(1, 63)
            field = PrimeField(rnd.choice((3, 5, 7, 11)))
            v = RingElement(field, n, tuple(rnd.randrange(field.p) for _ in range(n)))
            mat = circulant_matrix(v)
            assert mat.shape == (n, n)
            for i in range(n):
                assert tuple(int(c) for c in mat[i]) == v.shift(i).coeffs


class TestConstructCode:
    def test_example1_parameters(self):
        code = example1()
        assert code.dim == 2
        assert code.gen_matrix.tolist() == [[2, 1, 2, 1, 1, 1], [1, 2, 1, 2, 1, 1]]

    def test_example2_parameters(self):
        code = example2()
        assert code.dim == 3
        assert code.gen_matrix.tolist() == [
            [2, 1, 0, 0, 2, 1],
            [0, 2, 1, 0, 1, 2],
            [0, 0, 2, 1, 2, 1],
        ]

    def test_zero_pair_gives_zero_code(self):
        code = construct_code(RingElement.zero(F3, 4), RingElement.zero(F3, 2))
        assert code.dim == 0
        assert code.gen_matrix.shape == (0, 6)

    def test_compares_and_hashes_by_identity(self):
        # two builds of one pair are two codes; different pairs can span one code
        code, twin = example1(), example1()
        assert code == code and code != twin
        assert hash(code) == hash(code)
        assert len({code, twin, code}) == 2
        assert code in {code} and twin not in {code}

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            construct_code(RingElement.one(F3, 6), RingElement.one(F3, 3))

    def test_mismatched_lengths(self):
        with pytest.raises(RingMismatch):
            construct_code(RingElement.one(F3, 4), RingElement.one(F3, 3))

    def test_rank_of_span_matrix_equals_dim(self):
        rnd = random.Random(41)
        for m in (2, 4, 5):
            for _ in range(15):
                a, ap = random_pair(rnd, F3, m)
                code = construct_code(a, ap)
                assert rank(span_matrix(a, ap), 3) == code.dim
                assert rank(code.gen_matrix, 3) == code.dim


def kept_rows_cases():
    """All 729 restricted pairs at q=3 m=4, then unrestricted pairs at q=3, 5,
    7: random multiples of divisors of X^{2m}-1 and X^m-1 (so dims spread out),
    the zero pair (dim 0) and (1, 0) (dim 2m)."""
    left, right = restricted_elements(F3, 4)
    yield from ((a, ap) for a in left for ap in right)
    rnd = random.Random(61)
    for p, ms in ((3, (2, 4, 5, 7)), (5, (2, 3, 4, 6)), (7, (2, 3, 4, 5))):
        field = PrimeField(p)
        for m in ms:
            yield RingElement.zero(field, 2 * m), RingElement.zero(field, m)
            yield RingElement.one(field, 2 * m), RingElement.zero(field, m)
            x_m = ",0" * (m - 1) + ",1"
            big = ("1", "0", "-1,1", "1,1", "1" + x_m, "-1" + x_m)  # ..., X^m + 1, X^m - 1
            for _ in range(10):
                a, ap = random_pair(rnd, field, m)
                a = a * RingElement.from_text(field, 2 * m, rnd.choice(big))
                ap = ap * RingElement.from_text(field, m, rnd.choice(("1", "0", "-1,1")))
                yield a, ap


class TestKeptRows:
    def test_scan_keeps_the_first_dim_rows(self):
        # construct_code and ideal_basis take the first dim rows as a basis
        dims = set()
        for a, ap in kept_rows_cases():
            code = construct_code(a, ap)
            span, p = span_matrix(a, ap), code.field.p
            (dim,), (rref,) = leading_independent_rows(span[None], p)
            assert rank(span[:dim], p) == dim == code.dim == rank(span, p)
            assert np.array_equal(rref[:dim], code.rref)
            # the rank agrees with the polynomial description
            assert code.h.degree == code.dim
            assert code.g * code.h == Poly.x_pow_minus_one(code.field, 2 * code.m)
            dims.add((code.field.p, code.m, code.dim))
        # the unrestricted pairs reach both ends and the middle
        assert {(5, 3, 0), (5, 3, 6), (7, 4, 0), (7, 4, 8)} <= dims
        assert len(dims) > 40

    @pytest.mark.parametrize("off_by, check", ((1, "rank"), (-1, "rank"), (0, "annihilate")))
    def test_wrong_check_poly_is_caught(self, monkeypatch, off_by, check):
        # reading h checks it: an h of degree dim + 1 or dim - 1 fails the
        # degree check, one of degree dim with its constant term + 1 only the
        # annihilation check
        left, right = restricted_elements(F3, 4)
        pairs = [(example2().a, example2().a_prime), (left[5], right[7])]
        real = codes.check_poly

        def wrong(g, m):
            h = real(g, m)
            if off_by > 0:
                return h * Poly.x_pow(h.field, 1)
            if off_by < 0:
                return Poly(h.field, h.coeffs[1:])
            return Poly(h.field, (h.coeffs[0] + 1,) + h.coeffs[1:])

        monkeypatch.setattr(codes, "check_poly", wrong)
        for a, ap in pairs:
            code = construct_code(a, ap)
            with pytest.raises(AssertionError, match=check):
                code.h

    def test_construction_reads_no_polynomial(self, monkeypatch):
        # dim is the rank of the span matrix: building and scanning codes,
        # alone or in the sweeps, derives neither g nor h
        def refuse(*args):
            raise AssertionError("g or h derived")

        monkeypatch.setattr(codes, "generator_poly", refuse)
        monkeypatch.setattr(codes, "check_poly", refuse)
        rnd = random.Random(71)
        for _ in range(20):
            code = construct_code(*random_pair(rnd, F3, 5))
            d = min_distance(code.gen_matrix, 3)
            assert code.has_word_of_weight_at_most(5) == (d <= 5)
            assert code.min_distance().distance == d
        deltas = (Fraction(1, 10), Fraction(3, 10))
        assert len(mc_delta_probs(F3, 5, deltas, 50, 42)) == 2
        assert len(exact_delta_leq_probs(F3, 5, deltas)) == 2


P_LARGE = 4294967311  # (p - 1)^2 > 2^63: products need object ints
P_31 = 2147483659  # (p - 1)^2 < 2^63 < 2 (p - 1)^2


class TestGfRref:
    @pytest.mark.parametrize("p", (3, 1009, P_LARGE))
    def test_matches_plain_gauss_jordan(self, p):
        rng = np.random.default_rng(1)
        for shape in ((3, 5), (4, 4), (5, 3)):
            mat = rng.integers(0, p, shape)
            # a dependent row and a zero row lower the rank
            mat = np.vstack([mat, (2 * mat[0] + mat[-1]) % p, np.zeros(shape[1], dtype=np.int64)])
            rref, pivots = gf_rref(mat, p)
            expected = gauss_jordan(mat.tolist(), p)
            assert rref.dtype == np.int64 and rref.tolist() == expected
            assert pivots == [next(j for j, x in enumerate(row) if x) for row in expected]

    def test_no_columns(self):
        # no column to pivot on: every matrix keeps no row
        dims, rrefs = leading_independent_rows(np.zeros((2, 3, 0), dtype=np.int64), 3)
        assert dims.tolist() == [0, 0] and rrefs.shape == (2, 3, 0)
        rref, pivots = gf_rref(np.zeros((3, 0), dtype=np.int64), 3)
        assert (rref.shape, pivots) == ((0, 0), [])


INT64_EDGE = math.isqrt(2**63 - 1) + 1  # (p - 1)^2 < 2^63 iff p <= INT64_EDGE
P_BELOW = next(p for p in range(INT64_EDGE, 2, -1) if is_prime(p))
P_ABOVE = next(p for p in count(INT64_EDGE + 1) if is_prime(p))
FLOAT_EDGE = math.isqrt(2**53 - 1) + 1  # (p - 1)^2 < 2^53 iff p <= FLOAT_EDGE
P53_BELOW = next(p for p in range(FLOAT_EDGE, 2, -1) if is_prime(p))
P53_ABOVE = next(p for p in count(FLOAT_EDGE + 1) if is_prime(p))
P20 = 1048573  # the largest prime below 2^20: (P20 - 1)^2 * 8192 < 2^53 <= (P20 - 1)^2 * 8193


class TestOverflowBoundary:
    """At P_BELOW a product of two residues fits int64 and a sum of two does
    not; at P_ABOVE neither does. gf_matmul, gf_rref and the row scan must
    match plain Python on both sides, with entries near p for the largest
    products."""

    @pytest.mark.parametrize("p, terms, dtype", (
        (46337, 1, np.int32), (46349, 1, np.int64),  # (p - 1)^2 either side of 2^31
        (P_BELOW, 1, np.int64), (P_ABOVE, 1, object),
        (3, 2**29 - 1, np.int32), (3, 2**29, np.int64),  # 4 terms = 2^31
    ))
    def test_exact_dtype_edges(self, p, terms, dtype):
        assert is_prime(p)
        assert exact_dtype(p, terms) is dtype

    @pytest.mark.parametrize("p", (P_BELOW, P_ABOVE))
    def test_matches_plain_python(self, p):
        rng = np.random.default_rng(p % 1000)
        mat = p - 1 - rng.integers(0, 4, size=(4, 5))
        mat = np.vstack([mat, (mat[0] + mat[1]) % p])  # a dependent row
        expected = gauss_jordan(mat.tolist(), p)
        assert gf_rref(mat, p)[0].tolist() == expected
        (dim,), (rref,) = leading_independent_rows(mat[None], p)
        assert dim == len(expected) and rref[:dim].tolist() == expected
        for inner in (1, 2):
            a, b = mat[:, :inner], mat[:inner]
            product = [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()]
                       for row in a.tolist()]
            assert gf_matmul(a, b, p).tolist() == product

    # gf_matmul takes the float64 product while (p - 1)^2 * inner < 2^53: the
    # first case of each p is on that side, the second just past it
    @pytest.mark.parametrize("p, inner, in_float", (
        (P53_BELOW, 1, True), (P53_BELOW, 2, False), (P53_ABOVE, 1, False),
        (P20, 8192, True), (P20, 8193, False),
    ))
    def test_float64_edge_matches_plain_python(self, p, inner, in_float):
        assert ((p - 1) ** 2 * inner < 2**53) == in_float
        rng = np.random.default_rng(inner)
        a = p - 1 - rng.integers(0, 8, size=(5, inner))  # odd and even entries near p
        b = p - 1 - rng.integers(0, 8, size=(inner, 4))
        product = [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()]
                   for row in a.tolist()]
        assert gf_matmul(a, b, p).tolist() == product

    # gf_matmul takes a float32 product and table residues while (p - 1)^2 *
    # inner < 2^16: inner = 1 and the widest inner on that side, then one past
    # it; row 0 and column 0 are p - 1, so the largest sum reads the table's
    # last entry
    @pytest.mark.parametrize("p", (3, 5, 7, 251))
    def test_residue_table_edge_matches_object_ints(self, monkeypatch, p):
        tables = []
        real = codes._residues
        monkeypatch.setattr(codes, "_residues",
                            lambda p, top: tables.append(top) or real(p, top))
        edge = (2**16 - 1) // (p - 1) ** 2
        rng = np.random.default_rng(p)
        for inner in (1, edge, edge + 1):
            a, b = rng.integers(0, p, size=(6, inner)), rng.integers(0, p, size=(inner, 5))
            a[0], b[:, 0] = p - 1, p - 1
            out = gf_matmul(a, b, p)
            assert out.dtype == np.int64
            assert out.tolist() == (a.astype(object) @ b.astype(object) % p).tolist()
        assert tables == [(p - 1) ** 2 * inner for inner in (1, edge)]

    @pytest.mark.parametrize("p", (P_31, P_LARGE))
    def test_no_residue_table_past_2_16(self, monkeypatch, p):
        monkeypatch.setattr(codes, "_residues", None)  # any call fails
        a, b = np.full((2, 3), p - 1), np.full((3, 2), p - 2)
        assert gf_matmul(a, b, p).tolist() == [[3 * (p - 1) * (p - 2) % p] * 2] * 2


def span_stack(field: PrimeField, c: np.ndarray, a_prime: np.ndarray) -> np.ndarray:
    """The span matrices of the restricted pairs (c[k] || c[k], a'[k])."""
    m = c.shape[1]
    return np.stack([
        span_matrix(RingElement(field, 2 * m, tuple(x + x)), RingElement(field, m, tuple(y)))
        for x, y in zip(c.tolist(), a_prime.tolist())
    ])


def restricted_stack(field: PrimeField, c: np.ndarray, a_prime: np.ndarray) -> tuple:
    """The sweeps' arrays for the codes (c[k] || c[k], a'[k]): spanning rows
    [circ(c) | circ(c) | circ(a')], and dims and projections from coset_support."""
    dims, full, sum_zero = coset_support(field, c, a_prime)
    spans = np.concatenate([circulant_matrix(c)] * 2 + [circulant_matrix(a_prime)], axis=2)
    return spans, dims, list(zip(full.tolist(), sum_zero.tolist()))


def pick(arrays: tuple, index) -> tuple:
    """The arrays of restricted_stack for the codes in index, in its order."""
    spans, dims, projections = arrays
    return spans[index], dims[index], [projections[i] for i in index]


def pair_codes(field: PrimeField, c: np.ndarray, a_prime: np.ndarray) -> list[Qc15Code]:
    """construct_code(c[k] || c[k], a'[k]) for each row k."""
    m = c.shape[1]
    return [construct_code(RingElement(field, 2 * m, tuple(x + x)), RingElement(field, m, tuple(y)))
            for x, y in zip(c.tolist(), a_prime.tolist())]


def stack_of(built: list[Qc15Code]) -> tuple:
    """lightest_word_weights' first four arguments for codes of one field and
    length: their generator rows, zero-padded to the widest dim."""
    spans = np.zeros((len(built), max(code.dim for code in built), 3 * built[0].m), dtype=np.int64)
    for rows, code in zip(spans, built):
        rows[: code.dim] = code.gen_matrix
    dims, projections = [code.dim for code in built], [code.projections for code in built]
    return built[0].field.p, spans, dims, projections


def short_w_projections(field: PrimeField, c: np.ndarray) -> np.ndarray:
    """c with every other row multiplied by the idempotent of its last
    cyclotomic coset, so that its w-projection spans one coset only."""
    e = circulant_matrix(coset_idempotents(field, c.shape[1])[-1])
    out = c.copy()
    out[::2] = gf_matmul(c[::2], e, field.p)
    return out


def orbit_pairs(field: PrimeField, m: int) -> tuple[np.ndarray, np.ndarray]:
    """One pair of each unit orbit: prod(q^|C| + 2) over the nonzero cosets C."""
    total = math.prod(field.p**d + 2 for d in cyclotomic_cosets(m, field.p).nonzero_sizes())
    c, a_prime, _ = _unit_orbits(field, m, np.arange(total))
    return c, a_prime


def sampled_pairs(field: PrimeField, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    c, a_prime, _ = _sample_block(field, m, seed, 0, TRIAL_BLOCK)
    return short_w_projections(field, c), a_prime


class TestStackedScan:
    """leading_independent_rows on (B, R, C) stacks, and the sweeps' arrays,
    against gauss_jordan and the rank one matrix at a time."""

    def assert_scan_matches_gauss_jordan(self, stack: np.ndarray, p: int) -> np.ndarray:
        dims, rrefs = leading_independent_rows(stack, p)
        assert rrefs.shape == stack.shape and rrefs.dtype == np.int64
        for mat, dim, rref in zip(stack, dims, rrefs):
            expected = gauss_jordan(mat, p)
            assert dim == len(expected)
            assert rref[:dim].tolist() == expected
            assert not rref[dim:].any()
        return dims

    def assert_codes_match(self, field: PrimeField, c: np.ndarray, a_prime: np.ndarray):
        # the sweeps' arrays describe construct_code's code for c || c: its
        # dim, generator matrix (the first dim spanning rows) and projections
        spans, dims, projections = restricted_stack(field, c, a_prime)
        built = pair_codes(field, c, a_prime)
        assert len(built) == len(spans) == len(c)
        for code, x, y, span, rows, dim, facts in zip(
                built, c.tolist(), a_prime.tolist(), span_stack(field, c, a_prime), spans,
                dims.tolist(), projections):
            a = RingElement(field, 2 * len(x), tuple(x + x))
            ap = RingElement(field, len(y), tuple(y))
            # a and a' are read back from row 0 of gen_matrix, the zero code's too
            assert (code.a, code.a_prime) == (a, ap)
            assert code.dim == dim == rank(span, field.p)
            assert np.array_equal(code.gen_matrix, span[:dim])
            assert np.array_equal(code.gen_matrix, rows[:dim])
            assert code.projections == facts
            assert code.rref.tolist() == gauss_jordan(span, field.p)

    @pytest.mark.parametrize("m", (1, 2, 4, 5, 7))
    def test_unit_orbit_stacks_q3(self, m):
        c, a_prime = orbit_pairs(F3, m)
        self.assert_scan_matches_gauss_jordan(span_stack(F3, c, a_prime), 3)
        self.assert_codes_match(F3, c, a_prime)

    @pytest.mark.parametrize("q, m", [(3, m) for m in (1, 2, 4, 5, 7, 8)]
                             + [(5, m) for m in range(1, 5)] + [(7, m) for m in range(1, 4)])
    def test_dims_and_lazy_rrefs_on_every_unit_orbit(self, q, m):
        # dims from the coset support, and RREFs from the threshold scan: at
        # cap 6 it scans every nonzero code, with one row scan of their copy
        # of w and v, to the widest dim, then one rref_lightest_weights call
        # per dim, in order of first appearance
        field, shapes, scanned = PrimeField(q), [], []
        c, a_prime = orbit_pairs(field, m)
        expected = [gauss_jordan(span, q) for span in span_stack(field, c, a_prime)]
        spans, dims, projections = restricted_stack(field, c, a_prime)
        assert dims.tolist() == list(map(len, expected))
        rows, scan = codes.leading_independent_rows, codes.rref_lightest_weights
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codes, "leading_independent_rows",
                          lambda mat, p: shapes.append(mat.shape) or rows(mat, p))
            patch.setattr(codes, "rref_lightest_weights",
                          lambda rref, *args: scanned.append(rref.tolist()) or scan(rref, *args))
            lightest_word_weights(q, spans, dims, projections, 6)
        nonzero = [dim for dim in dims.tolist() if dim]
        assert shapes == ([(len(nonzero), max(nonzero), 2 * m)] if nonzero else [])
        assert scanned == [[rref for rref in expected if len(rref) == dim]
                           for dim in dict.fromkeys(nonzero)]

    def test_every_restricted_pair_q3_m4_as_one_stack(self):
        left, right = restricted_elements(F3, 4)
        stack = np.stack([span_matrix(a, ap) for a in left for ap in right])
        assert stack.shape == (729, 8, 12)
        dims = self.assert_scan_matches_gauss_jordan(stack, 3)
        assert set(dims.tolist()) == {0, 1, 2, 3}

    @pytest.mark.parametrize("q, m", ((5, 6), (7, 4), (P_31, 3), (P_LARGE, 3)))
    def test_sampled_stacks_with_short_w_projections(self, q, m):
        field = PrimeField(q)
        c, a_prime = sampled_pairs(field, m, seed=q)
        dims = self.assert_scan_matches_gauss_jordan(span_stack(field, c, a_prime), q)
        w_ranks = [rank(circulant_matrix(RingElement(field, m, tuple(x))), q)
                   for x in c.tolist()]
        # both kinds occur: the w-projection spans the code or falls short of it
        assert {w == d for w, d in zip(w_ranks, dims.tolist())} == {True, False}
        self.assert_codes_match(field, c, a_prime)

    @pytest.mark.parametrize("p", (46337, P_31))
    def test_unreduced_updates_fit_their_dtype(self, p):
        # a product of two residues fits int32 at 46337 and int64 at P_31, and
        # a sum of two does not: row 2 of the first matrix gathers (p - 1)^2
        # from each of rows 0 and 1 before it is read, so the scan must reduce
        # after every row
        worst = np.array([[1, 0, p - 1, p - 1], [p - 1, 1, 0, 0], [p - 1, p - 1, 0, 1]])
        rng = np.random.default_rng(7)
        stack = np.concatenate([worst[None], p - 1 - rng.integers(0, 4, size=(5, 3, 4))])
        assert list(self.assert_scan_matches_gauss_jordan(stack, p)[:1]) == [3]

    def test_exact_sweep_scans_at_most_trial_block_codes_at_once(self, monkeypatch):
        stacks = []
        real = codes.leading_independent_rows

        def record(mat, p):
            stacks.append(len(mat))
            return real(mat, p)

        # one code per unit orbit's code up to the multipliers X -> X^s; the
        # codes are read with no row scan, and at t = 6 every class but the
        # zero code's is scanned, so its RREF is computed once
        spans, dims, _ = restricted_stack(F3, *orbit_pairs(F3, 7))
        classes = multiplier_class_count([rows[:dim] for rows, dim in zip(spans, dims)], 7, 3)
        monkeypatch.setattr(codes, "leading_independent_rows", record)
        exact_delta_leq_probs(F3, 7, ["0.106", "0.3"])
        assert sum(stacks) == classes - 1 == 131
        assert max(stacks) <= TRIAL_BLOCK


class TestEncode:
    def test_identity_message_gives_the_pair(self):
        code = example1()
        w = code.encode(RingElement.one(F3, 4))
        assert w.coords == code.a.coeffs + code.a_prime.coeffs

    def test_x_message_is_shift(self):
        rnd = random.Random(51)
        for m in (2, 4):
            a, ap = random_pair(rnd, F3, m)
            code = construct_code(a, ap)
            x = RingElement.from_poly(Poly.x_pow(F3, 1), 2 * m)
            assert code.encode(x) == code.encode(RingElement.one(F3, 2 * m)).shifted()

    def test_shift_commutes_with_encoding(self):
        rnd = random.Random(61)
        code = example2()
        x = RingElement.from_poly(Poly.x_pow(F3, 1), 4)
        for _ in range(30):
            f = RingElement(F3, 4, tuple(rnd.randrange(3) for _ in range(4)))
            assert code.encode(x * f) == code.encode(f).shifted()

    def test_check_poly_annihilates(self):
        code = example1()
        h_elt = RingElement.from_poly(code.h, 4)
        assert code.encode(h_elt).weight() == 0

    def test_kernel_is_exactly_multiples_of_h(self, monkeypatch):
        # h, and with it g, is derived once per code, not once per call
        calls = []
        real = codes.generator_poly
        monkeypatch.setattr(codes, "generator_poly", lambda *pair: calls.append(1) or real(*pair))
        for code in (example1(), example2()):
            for idx in range(3**4):
                f = RingElement(F3, 4, tuple((idx // 3**j) % 3 for j in range(4)))
                encoded_zero = code.encode(f).weight() == 0
                assert encoded_zero == code.in_kernel(f)
        assert len(calls) == 2

    def test_encode_message_golden(self):
        code = example1()
        assert code.encode_message([0, 0]).to_string() == "000000"
        assert code.encode_message([1, 1]).to_string() == "000022"
        assert code.encode_message([2, 0]).to_string() == "121222"

    def test_encode_message_past_int64(self):
        # (p - 1)^2 > 2^63: the product must not wrap
        p = 4294967311
        field = PrimeField(p)
        code = construct_code(RingElement.from_text(field, 4, f"{p - 1},{p - 2},{p - 1},{p - 2}"),
                              RingElement.from_text(field, 2, f"{p - 1},1"))
        assert code.dim == 2
        word = code.encode_message([p - 1, p - 1])
        assert word == code.encode(RingElement(field, 4, (p - 1, p - 1, 0, 0)))
        assert word.coords == (3, 3, 3, 3, 0, 0)

    def test_encode_message_length_check(self):
        with pytest.raises(DimensionMismatch):
            example1().encode_message([1, 2, 0])


class TestEnumerateAndDistance:
    def test_example1_words(self):
        words = example1().codewords()
        assert {w.to_string() for w in words} == EXAMPLE1_WORDS
        assert len(words) == 9

    def test_example2_words(self):
        words = example2().codewords()
        assert {w.to_string() for w in words} == EXAMPLE2_WORDS
        assert len(words) == 27

    def test_zero_code_enumeration(self):
        code = construct_code(RingElement.zero(F3, 4), RingElement.zero(F3, 2))
        assert code.codewords() == {Word(2, (0,) * 6)}

    def test_enumeration_limit(self):
        with pytest.raises(EnumerationTooLarge):
            example2().codewords(limit=8)

    def test_example1_distance(self):
        d = example1().min_distance()
        assert d.distance == 2
        assert d.relative == Fraction(1, 3)

    def test_example2_distance_matches_word_scan(self):
        # oracle: minimum weight over the pinned codeword list itself
        oracle = min(
            sum(ch != "0" for ch in w) for w in EXAMPLE2_WORDS if w != "000000"
        )
        d = example2().min_distance()
        assert d.distance == oracle == 2

    def test_zero_code_distance_error(self):
        code = construct_code(RingElement.zero(F3, 4), RingElement.zero(F3, 2))
        with pytest.raises(ZeroCode):
            code.min_distance()

    def test_distance_limit(self):
        # d <= U = 2, the least weight of a row of the RREF, so the search
        # stops by cap 1: the limit counts the 3 candidates of its plan
        # (1, -1), not the 9 of cap 2 or the 27 words
        assert example2().min_distance(limit=3).distance == 2
        with pytest.raises(EnumerationTooLarge, match="^3 candidate messages exceed the limit 2$"):
            example2().min_distance(limit=2)

    def test_distance_limit_at_m_17_before_any_product(self, monkeypatch):
        # a restricted pair: dim 16, full projections in (X-1)R_m and U = d =
        # 12, so the limit counts plan (3, 3) of cap 11 (plan (4, 2) of cap
        # 12 needs 17,312), once, before any product
        m, c = 17, "1,2,0,1,1,1,0,0,1,2,1,0,0,2,1,1,1"
        a = RingElement.from_text(F3, 2 * m, f"{c},{c}")
        ap = RingElement.from_text(F3, m, "2,0,0,0,1,0,2,1,2,1,0,0,0,1,1,2,2")
        code = construct_code(a, ap)
        assert (code.dim, code.projections) == (16, (True, True))
        assert int(np.count_nonzero(code.rref, axis=1).min()) == 12
        assert [codes.plan_candidates(3, 16, scan_plan(3, 16, (True, True), cap))
                for cap in (11, 12)] == [4992, 17312]
        assert construct_code(a, ap).min_distance(limit=4992).distance == 12
        monkeypatch.setattr(codes, "gf_matmul", None)  # any product fails
        message = "^4992 candidate messages exceed the limit 4991$"
        with pytest.raises(EnumerationTooLarge, match=message):
            code.min_distance(limit=4991)

    def test_plan_candidates_never_fall_as_cap_grows(self):
        # so min_distance checks the limit on the plan of its widest cap alone
        facts = [None] + list(product((False, True), repeat=2))
        for p, dim, projections in product((3, 5, 7), range(1, 13), facts):
            counts = [codes.plan_candidates(p, dim, scan_plan(p, dim, projections, cap))
                      for cap in range(3 * dim + 3)]
            assert counts == sorted(counts)

    @pytest.mark.parametrize("q, m", ((3, 4), (3, 5)))
    def test_distance_on_every_unit_orbit(self, q, m):
        # construct_code builds the code the sweeps read off (c, a') for
        # a = c || c: the same dim, generator matrix and projections, so the
        # same plan at every cap, with projections derived from its row 0
        field = PrimeField(q)
        c, a_prime = orbit_pairs(field, m)
        spans, dims, projections = restricted_stack(field, c, a_prime)
        for code, rows, dim, facts in zip(pair_codes(field, c, a_prime), spans, dims.tolist(),
                                          projections):
            assert "projections" not in vars(code)
            assert (code.dim, code.projections) == (dim, facts)
            assert np.array_equal(code.gen_matrix, rows[:dim])
            assert [scan_plan(q, code.dim, code.projections, cap) for cap in range(3 * m + 1)] == [
                scan_plan(q, dim, facts, cap) for cap in range(3 * m + 1)]
            if code.dim:
                assert code.min_distance().distance == min_distance(code.gen_matrix, q)

    @pytest.mark.parametrize("q", (5, 7))
    def test_distance_on_random_codes(self, q):
        # general pairs, some with a' = 0 (a unit a gives d = 1), and pairs
        # a = c || c, in and out of (X-1)R_m
        field, rnd, seen = PrimeField(q), random.Random(q), set()
        for _ in range(40):
            m = rnd.choice((2, 3))
            a, ap = random_pair(rnd, field, m)
            if rnd.random() < 0.5:
                a = RingElement(field, 2 * m, a.coeffs[:m] * 2)
            elif rnd.random() < 0.4:
                ap = RingElement.zero(field, m)
            code = construct_code(a, ap)
            if code.dim:
                d = min_distance(code.gen_matrix, q)
                assert code.min_distance() == (d, Fraction(d, 3 * m))
                seen.add((d, bool(code.projections and code.projections[0])))
        assert {1, 2} <= {d for d, _ in seen} and {True, False} <= {f for _, f in seen}

    def test_all_ones_pair_against_rowspace_oracle(self):
        a = RingElement(F3, 4, (1, 1, 1, 1))
        ap = RingElement(F3, 2, (1, 1))
        code = construct_code(a, ap)
        words = rowspace_words(code)
        oracle = min(sum(1 for c in w if c) for w in words if any(w))
        assert code.min_distance().distance == oracle

    def test_distance_against_rowspace_oracle_random(self):
        rnd = random.Random(71)
        for _ in range(25):
            a, ap = random_pair(rnd, F3, 2)
            code = construct_code(a, ap)
            if code.dim == 0:
                continue
            words = rowspace_words(code)
            oracle = min(sum(1 for c in w if c) for w in words if any(w))
            assert code.min_distance().distance == oracle


def scan_oracle_codes():
    """Codes whose threshold scan is checked against the exhaustive oracle.

    They cover pivot multiplicities 1 (unrestricted pairs), 2 (u-part pivots
    of restricted pairs, including u-parts of lower rank) and columns that
    are non-unit multiples of a pivot column (p = 1009).
    """
    rnd = random.Random(81)
    for m in (2, 4):
        for _ in range(20):
            yield construct_code(*random_pair(rnd, F3, m))
    for a, ap in restricted_pairs(4):
        yield construct_code(a, ap)
    for p, ms in ((5, (2, 3)), (7, (2, 3))):
        field = PrimeField(p)
        for _ in range(20):
            yield construct_code(*random_pair(rnd, field, rnd.choice(ms)))
    f1009 = PrimeField(1009)
    for m in (1, 2):
        for _ in range(3):
            a, ap = random_pair(rnd, f1009, m)
            if m == 2:  # a multiple of X^2 + 1: dim <= 2, codewords (u, u, v)
                a = a * RingElement.from_poly(Poly.x_pow_plus_one(f1009, 2), 4)
            yield construct_code(a, ap)


def restricted_pairs(m: int):
    a_list, ap_list = restricted_elements(F3, m)
    return [(a, ap) for a in a_list for ap in ap_list]


class TestLowWeightSearch:
    def test_agrees_with_full_distance(self):
        for code in scan_oracle_codes():
            ws = range(0, code.length + 1)
            if code.dim == 0:
                assert not any(code.has_word_of_weight_at_most(w) for w in ws)
                continue
            d = distance_oracle(code)
            assert [code.has_word_of_weight_at_most(w) for w in ws] == [d <= w for w in ws]

    def test_lightest_word_weight_is_capped_min_distance(self):
        # caps upward rescan each time; caps downward are answered from the
        # kept widest scan, and must agree
        for code in scan_oracle_codes():
            caps = range(0, code.length + 1)
            d = distance_oracle(code) if code.dim else code.length + 1
            expected = [min(d, cap + 1) for cap in caps]
            assert [code.lightest_word_weight(cap) for cap in caps] == expected
            if code.dim:
                assert code.lightest == (code.length, d)
            assert [code.lightest_word_weight(cap) for cap in reversed(caps)] == expected[::-1]

    @pytest.mark.parametrize("m", (4, 5))
    def test_stored_rref_matches_gf_rref(self, m):
        for a, ap in restricted_pairs(m):
            code = construct_code(a, ap)
            assert code.rref.tolist() == gauss_jordan(code.gen_matrix, 3)

    def test_limit_counts_plain_weight_candidates(self):
        # the weighted scan tries fewer messages, but the limit still counts
        # the C(3,1) + 2 C(3,2) = 9 messages of plain weight <= 2; each limit
        # is asked of a fresh code, since a memo hit scans nothing
        assert example2().has_word_of_weight_at_most(2, limit=9)
        with pytest.raises(EnumerationTooLarge, match="^9 candidate messages exceed the limit 8$"):
            example2().has_word_of_weight_at_most(2, limit=8)

    @pytest.mark.parametrize("q, max_k", ((3, 6), (5, 4), (7, 4)))
    def test_low_weight_messages_match_brute_force(self, q, max_k):
        rnd = random.Random(q)
        for cap in range(9):
            k = rnd.randint(0, max_k)
            mult = tuple(sorted(rnd.randint(1, 3) for _ in range(k)))
            expected = {y for y in product(range(q), repeat=k)
                        if any(y) and next(x for x in y if x) == 1
                        and sum(w for w, x in zip(mult, y) if x) <= cap}
            got = codes.low_weight_messages.__wrapped__(q, mult, cap)
            assert got.shape == (len(expected), k) and not got.flags.writeable
            assert set(map(tuple, got.tolist())) == expected

    def test_low_weight_messages_at_p_above_2_32(self):
        # only weight-1 messages fit, so no entry past the first is enumerated
        got = codes.low_weight_messages.__wrapped__(P_LARGE, (2, 2, 3), 3)
        assert sorted(got.tolist()) == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert codes.low_weight_messages.__wrapped__(P_LARGE, (4,), 3).shape == (0, 1)

    def test_zero_threshold(self):
        assert not example1().has_word_of_weight_at_most(0)

    def test_threshold_at_length(self):
        assert example1().has_word_of_weight_at_most(6)


def all_restricted_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every restricted pair (c, a') at q = 3, as two (3^(2(m-1)), m) stacks."""
    left, right = restricted_elements(F3, m)
    c = np.array([a.coeffs[:m] for a in left for _ in right])
    return c, np.array([ap.coeffs for _ in left for ap in right])


def distance_oracle(code: Qc15Code) -> float:
    """d_min by the exhaustive oracle, inf for the zero code; a code of dim 1
    has the scalar multiples of its one row as words, so d_min is that row's
    weight. Past p = 256, where listing p^2 messages is slow, a word of a
    dim-2 code y @ G vanishes on the nonzero columns of G on the line y^perp,
    so d_min is the number of nonzero columns less the most on one line."""
    p = code.field.p
    if code.dim == 1:
        return int(np.count_nonzero(code.gen_matrix))
    if code.dim == 2 and p > 256:
        cols = [(x, y) for x, y in code.gen_matrix.T.tolist() if x or y]
        lines = Counter((1, y * pow(x, -1, p) % p) if x else (0, 1) for x, y in cols)
        return len(cols) - max(lines.values())
    return min_distance(code.gen_matrix, p) if code.dim else math.inf


def projection_ranks(field: PrimeField, c: np.ndarray, a_prime: np.ndarray) -> list:
    """(rank <c>, rank <a'>) of each pair: the ranks of the two circulants."""
    return [tuple(rank(circulant_matrix(np.array(v)), field.p) for v in pair)
            for pair in zip(c.tolist(), a_prime.tolist())]


def short_sides(field, c, a_prime, built) -> set[str]:
    """Which projections, w (<c>) or v (<a'>), fall short of some code's dim."""
    ranks = projection_ranks(field, c, a_prime)
    return {side for (w, v), code in zip(ranks, built)
            for side, rank in (("w", w), ("v", v)) if rank < code.dim}


class TestStackedThresholdScan:
    """lightest_word_weights on whole stacks against min(d_min, cap + 1)."""

    def assert_matches_oracle(self, field, c, a_prime, caps) -> tuple[list[Qc15Code], set]:
        """The array scan of the sweeps' arrays against the oracle at each cap,
        and each code's own query, a scan at the widest cap and memo hits
        below it; projections against the projection ranks and coefficient
        sums. Returns the codes and the second bounds b of the plans that ran
        (-1: the weighted scan alone, see scan_plan)."""
        spans, dims, projections = restricted_stack(field, c, a_prime)
        built = pair_codes(field, c, a_prime)
        distances = [distance_oracle(code) for code in built]
        for cap in caps:
            assert lightest_word_weights(field.p, spans, dims, projections, cap).tolist() == [
                min(d, cap + 1) for d in distances]
        for cap in sorted(caps, reverse=True):
            assert [code.lightest_word_weight(cap) for code in built] == [
                min(d, cap + 1) for d in distances]
        ranks = projection_ranks(field, c, a_prime)
        assert [code.projections for code in built] == projections == [
            (w == v == dim, not (sum(x) % field.p or sum(y) % field.p))
            for dim, (w, v), x, y in zip(dims.tolist(), ranks, c.tolist(), a_prime.tolist())]
        bs = {scan_plan(field.p, dim, facts, cap)[1]
              for dim, facts in zip(dims.tolist(), projections) if dim for cap in caps if cap}
        return built, bs

    def test_every_restricted_pair_q3_m4_as_one_stack_at_every_cap(self):
        c, a_prime = all_restricted_pairs(4)
        built, bs = self.assert_matches_oracle(F3, c, a_prime, range(13))
        assert len(built) == 729 and {code.dim for code in built} == {0, 1, 2, 3}
        # in (X-1)R_m b = 0 bounds v as b = 1 does, and no b >= 2 pays at dims <= 3
        assert bs == {-1, 0}
        assert short_sides(F3, c, a_prime, built) == {"w", "v"}

    @pytest.mark.parametrize(
        "q, m", ((5, 6), (7, 4), (P_LARGE, 2), (3, 8), (5, 4), (7, 3), (P_31, 2)))
    def test_sampled_stacks_mixing_dims_with_the_zero_pair(self, q, m):
        # codes with full projections, with a short w- and a short v-projection
        field = PrimeField(q)
        c, a_prime = sampled_pairs(field, m, seed=q + 1)
        e = circulant_matrix(coset_idempotents(field, m)[-1])
        c[1::3], a_prime[1::3] = gf_matmul(c[1::3], e, q), gf_matmul(a_prime[1::3], e, q)
        c[::7], a_prime[3::7] = 0, 0
        zero = np.zeros((1, m), dtype=np.int64)
        c, a_prime = np.vstack([c, zero]), np.vstack([a_prime, zero])
        built, bs = self.assert_matches_oracle(field, c, a_prime, range(3 * m + 1))
        dims = {code.dim for code in built}
        assert 0 in dims and len(dims) >= (2 if m == 2 else 3)
        assert short_sides(field, c, a_prime, built) == {"w", "v"}
        assert 1 not in bs and {-1, 0} <= bs and (2 in bs) == (m > 3)

    @pytest.mark.parametrize("q", (5, 7))
    def test_every_unit_orbit_at_m_4(self, q):
        # dim-3 codes with full projections take plan (2, 2) at cap 8, and
        # dim-2 codes of weight 6 hold a word weighing 4 on w and 2 on v,
        # which plan (0, 1) would miss at caps 6 and 7 under a v bound of
        # 2(b + 1)
        field = PrimeField(q)
        c, a_prime = orbit_pairs(field, 4)
        _, bs = self.assert_matches_oracle(field, c, a_prime, range(13))
        assert bs == {-1, 0, 2}

    def test_stack_outside_x_minus_1_at_every_cap(self):
        # c = a' = 1 spans {(f, f, f)}: full projections and a word of weight
        # 3, which the sum-zero bound (every nonzero word weighs >= 6) would
        # miss. The rest add the all-ones word (coset {0}) to c, a' or both
        # of sampled pairs in (X-1)R_m, and keep some pairs there, some with c = 0
        c, a_prime = sampled_pairs(F3, 5, seed=11)
        c[1::2], a_prime[::3] = (c[1::2] + 1) % 3, (a_prime[::3] + 1) % 3
        c[4::9] = 0
        one = np.eye(1, 5, dtype=np.int64)
        c, a_prime = np.vstack([one, c]), np.vstack([one, a_prime])
        built, bs = self.assert_matches_oracle(F3, c, a_prime, range(16))
        assert (built[0].dim, built[0].projections) == (5, (True, False))
        assert distance_oracle(built[0]) == 3
        assert {code.projections for code in built if code.dim} == set(
            product((True, False), repeat=2))
        assert {-1, 0, 1} <= bs

    @pytest.mark.parametrize("p", (P_31, P_LARGE))
    def test_v_form_above_2_31(self, monkeypatch, p):
        # m = 3 (p = 1 mod 3: three cosets of size 1): one nonzero coset of
        # a sampled pair, every other pair moved out of (X-1)R_m by the
        # all-ones word on coset {0}, so dims up to 2. At cap 5 a dim-2 code
        # with full projections takes plan (1, 1), 2 + 2 candidates where
        # plain weight 2 alone needs p + 1 (in (X-1)R_m plan (0, 0) answers
        # cap 5 and no v-form pays at dim 2). Codes of dim 2 with a short
        # projection would need p + 1 past cap 1: left out
        field = PrimeField(p)
        c, a_prime = sampled_pairs(field, 3, seed=6)
        e = circulant_matrix(coset_idempotents(field, 3)[-1])
        c, a_prime = gf_matmul(c, e, p), gf_matmul(a_prime, e, p)
        c[::2], a_prime[::2] = (c[::2] + 1) % p, (a_prime[::2] + 1) % p
        c[::7], a_prime[3::7] = 0, 0
        _, dims, projections = restricted_stack(field, c, a_prime)
        keep = [full or dim < 2 for dim, (full, _) in zip(dims.tolist(), projections)]
        c, a_prime = c[keep], a_prime[keep]
        vforms = []
        real = codes.leading_independent_rows
        monkeypatch.setattr(codes, "leading_independent_rows",
                            lambda mat, p: vforms.append(mat.shape) or real(mat, p))
        built, bs = self.assert_matches_oracle(field, c, a_prime, range(6))
        assert {-1, 0, 1} <= bs and short_sides(field, c, a_prime, built)
        assert (sum(code.dim == 2 and code.projections[0] for code in built), 2, 9) in vforms

    def test_oracle_codes_one_stack_per_field(self):
        # unrestricted pairs (mult 1), non-unit multiples of a pivot column
        # (p = 1009), general and restricted codes of several dims in one
        # stack per field and length; each cap rescans
        stacks = {}
        for code in scan_oracle_codes():
            stacks.setdefault((code.field, code.m), []).append(code)
        for stack in stacks.values():
            distances = [distance_oracle(code) for code in stack]
            for cap in (1, 2, 4, 7):
                assert lightest_word_weights(*stack_of(stack), cap).tolist() == [
                    min(d, cap + 1) for d in distances]

    def test_group_without_a_non_single_column(self, monkeypatch):
        # a dim-1 code of full support at m = 2 has one row and every column
        # single: under plan (cap, -1) the weighted scan counts every column,
        # so its group's product has width 0
        c, a_prime = np.array([[1, 2], [2, 1], [1, 2]]), np.array([[1, 2], [1, 2], [2, 1]])
        stack = pair_codes(F3, c, a_prime)
        assert [distance_oracle(code) for code in stack] == [6, 6, 6]
        widths = []
        real = codes.gf_matmul
        monkeypatch.setattr(codes, "gf_matmul",
                            lambda a, b, p: widths.append(b.shape[1]) or real(a, b, p))
        rrefs = np.stack([code.rref for code in stack])
        assert rref_lightest_weights(rrefs, 3, 6, np.tile((6, -1), (3, 1))).tolist() == [6, 6, 6]
        assert widths == [0]  # one product for the three codes

    def test_width_0_group_beside_wider_groups(self, monkeypatch):
        # dim-1 codes at m = 2 whose one row is (c, c, a'): full support, so
        # every column single and width 0, then zero on w (width 4) and zero
        # on v (width 2); one call of the weighted scan over every column
        c, a_prime = np.array([[1, 2], [0, 0], [1, 1]]), np.array([[1, 2], [1, 2], [0, 0]])
        stack = pair_codes(F3, c, a_prime)
        distances = [distance_oracle(code) for code in stack]
        assert distances == [6, 2, 4]
        widths = []
        real = codes.gf_matmul
        monkeypatch.setattr(codes, "gf_matmul",
                            lambda a, b, p: widths.append(b.shape[1]) or real(a, b, p))
        rrefs = np.stack([code.rref for code in stack])
        for cap in range(1, 8):
            widths.clear()
            best = rref_lightest_weights(rrefs, 3, cap, np.tile((cap, -1), (3, 1)))
            assert best.tolist() == [min(d, cap + 1) for d in distances]
            # a code's block holds its one row once cap reaches that row's weight
            assert sorted(widths) == sorted(w for w, d in zip((0, 4, 2), distances) if d <= cap)

    def test_full_projections_below_cap_6_scan_nothing(self, monkeypatch):
        # plan (0, 0): in (X-1)R_m every nonzero word weighs at least 4 on w
        # and its copy and 2 on v; at cap 6 the codes of weight 6 are scanned
        c, a_prime = orbit_pairs(F3, 5)
        _, dims, projections = restricted_stack(F3, c, a_prime)
        keep = [full and dim > 0 for dim, (full, _) in zip(dims.tolist(), projections)]
        c, a_prime = c[keep], a_prime[keep]
        arrays = restricted_stack(F3, c, a_prime)
        distances = [distance_oracle(code) for code in pair_codes(F3, c, a_prime)]
        assert len(distances) > 10
        scans = []
        real = codes._weighted_scan
        monkeypatch.setattr(codes, "_weighted_scan",
                            lambda rref, *args: scans.append(len(rref)) or real(rref, *args))
        assert min(distances) == 6
        for cap in range(1, 7):
            expected = [min(d, cap + 1) for d in distances]
            assert lightest_word_weights(3, *arrays, cap).tolist() == expected
            fresh = pair_codes(F3, c, a_prime)
            assert [code.lightest_word_weight(cap) for code in fresh] == expected
            assert [code.lightest for code in fresh] == [(cap, e) for e in expected]
            assert (sum(scans) > 0) == (cap == 6)

    def test_blocks_of_one_entry(self, monkeypatch):
        c, a_prime = (x[::4] for x in orbit_pairs(F3, 7))
        arrays = restricted_stack(F3, c, a_prime)
        distances = [distance_oracle(code) for code in pair_codes(F3, c, a_prime)]
        monkeypatch.setattr(codes, "PRODUCT_BLOCK", 1)
        for cap in (2, 5, 9):
            assert lightest_word_weights(3, *arrays, cap).tolist() == [
                min(d, cap + 1) for d in distances]

    def test_every_product_stays_within_product_block(self, monkeypatch):
        # larger products run on several BLAS threads, which spin on after
        # the call, and their arrays pass the 128 KiB allocation threshold;
        # the sweeps' dims, the stacked scan's products, then the 3^10 words
        # of a dim-10 code
        sizes = []
        real = codes.gf_matmul
        monkeypatch.setattr(codes, "gf_matmul",
                            lambda a, b, p: sizes.append(len(a) * b.shape[1]) or real(a, b, p))
        c, a_prime, _ = _sample_block(F3, 11, 7, 0, TRIAL_BLOCK)
        spans, dims, projections = restricted_stack(F3, c, a_prime)
        lightest_word_weights(3, spans, dims, projections, 9)
        list(codes.codeword_blocks(spans[dims.tolist().index(10), :10], 3))
        assert len(sizes) > 100 and max(sizes) <= codes.PRODUCT_BLOCK

    def test_limit_is_checked_once_per_dim_for_the_first_code_over_it(self, monkeypatch):
        # at cap 2 a code with full projections needs no candidate (plan
        # (0, 0): every nonzero word weighs 4 on w and its copy and 2 on v);
        # the others count the messages of plain weight <= 2 over GF(3): 1, 4
        # and 9 at dims 1, 2 and 3
        c, a_prime = orbit_pairs(F3, 4)
        arrays = spans, dims, projections = restricted_stack(F3, c, a_prime)
        kinds = [(dim, full) for dim, (full, _) in zip(dims.tolist(), projections) if dim]
        assert set(kinds) == {(d, f) for d in (1, 2, 3) for f in (True, False)}
        distances = [distance_oracle(code) for code in pair_codes(F3, c, a_prime)]
        planned = []
        real = codes.scan_plan
        monkeypatch.setattr(codes, "scan_plan",
                            lambda p, dim, projections, cap: planned.append((dim, projections))
                            or real(p, dim, projections, cap))
        low = np.flatnonzero(dims < 3)
        assert lightest_word_weights(3, *pick(arrays, low), 2, limit=4).tolist() == [
            min(distances[i], 3) for i in low]
        # a zero code is never scanned, so its dim is not planned
        assert planned == list(dict.fromkeys((dims[i], projections[i]) for i in low if dims[i]))
        full3 = [i for i, dim in enumerate(dims.tolist()) if dim == 3 and projections[i][0]]
        assert lightest_word_weights(3, *pick(arrays, full3), 2, limit=0).tolist() == [3] * len(
            full3)
        with pytest.raises(EnumerationTooLarge, match="^9 candidate messages exceed the limit 4$"):
            lightest_word_weights(3, *arrays, 2, limit=4)
        short = {dim: i for i, dim in enumerate(dims.tolist()) if not (projections[i][0] and dim)}
        for order, first in (((0, 1, 3), 1), ((0, 3, 1), 9)):
            with pytest.raises(EnumerationTooLarge, match=f"^{first} candidate messages"):
                lightest_word_weights(3, *pick(arrays, [short[d] for d in order]), 2, limit=0)

    def test_every_plan_is_checked_before_the_row_scan(self, monkeypatch):
        # the dim-3 codes come last and need 9 candidates where the limit is
        # 4: the codes before them are neither row-reduced nor scanned
        c, a_prime = orbit_pairs(F3, 4)
        arrays = restricted_stack(F3, c, a_prime)
        by_dim = np.argsort(arrays[1], kind="stable")

        def no_scan(*args):
            raise AssertionError("scanned before the limit check")

        monkeypatch.setattr(codes, "leading_independent_rows", no_scan)
        monkeypatch.setattr(codes, "rref_lightest_weights", no_scan)
        with pytest.raises(EnumerationTooLarge, match="^9 candidate messages exceed the limit 4$"):
            lightest_word_weights(3, *pick(arrays, by_dim), 2, limit=4)

    def test_narrower_cap_after_a_stacked_call_runs_no_scan(self, monkeypatch):
        # each code keeps its widest scan, which equals the stack's
        c, a_prime = orbit_pairs(F3, 5)
        stack = pair_codes(F3, c, a_prime)
        widest = [code.lightest_word_weight(8) for code in stack]
        assert widest == lightest_word_weights(3, *restricted_stack(F3, c, a_prime), 8).tolist()
        assert all(code.lightest[0] == 8 for code in stack if code.dim)

        def no_scan(*args):
            raise AssertionError("scanned again")

        for name in ("low_weight_messages", "gf_matmul", "leading_independent_rows"):
            monkeypatch.setattr(codes, name, no_scan)
        for cap in (8, 5, 1, 0):
            assert [code.lightest_word_weight(cap) for code in stack] == [
                min(w, cap + 1) for w in widest]
        # memo hits scan nothing, so no limit stops them
        assert [code.lightest_word_weight(8, limit=0) for code in stack] == widest
        assert [code.lightest_word_weight(5, limit=0) for code in stack] == [
            min(w, 6) for w in widest]

    def test_memo_hits_count_no_candidates(self, monkeypatch):
        c, a_prime = orbit_pairs(F3, 5)
        stack = pair_codes(F3, c, a_prime)
        for code in stack:
            code.lightest_word_weight(8)
        counted = []
        real = codes.low_weight_message_count
        monkeypatch.setattr(codes, "low_weight_message_count",
                            lambda *args: counted.append(args) or real(*args))
        for t in range(9):
            for code in stack:
                code.has_word_of_weight_at_most(t)
        assert counted == []


class TestFactsFromGeneratorRows:
    """A code is its four fields: rref, projections and the plan come from
    gen_matrix, so a code built directly or by dataclasses.replace answers
    as construct_code's does, and as the sweeps' arrays do."""

    def test_four_init_fields_and_an_empty_memo(self):
        assert [f.name for f in dataclasses.fields(Qc15Code) if f.init] == [
            "field", "m", "dim", "gen_matrix"]
        code = example2()
        assert code.min_distance().distance == 2 and code.lightest != (0, 1)
        twin = dataclasses.replace(code)
        assert twin.lightest == (0, 1) and not {"rref", "projections"} & set(vars(twin))

    @pytest.mark.parametrize("q, m", ((3, 2), (3, 4), (3, 5), (5, 2), (5, 3)))
    def test_general_codes_built_any_way_match_the_oracle(self, q, m):
        # no projections, so each RREF is read from all columns: read from the
        # copy of w and v alone, as a restricted code's is, it answers wrongly
        field, rnd, caps = PrimeField(q), random.Random(10 * q + m), range(3 * m + 1)
        pairs = [random_pair(rnd, field, m) for _ in range(12)]
        built = [construct_code(a, ap) for a, ap in pairs if a.coeffs[:m] != a.coeffs[m:]]
        built = [code for code in built if code.dim]
        assert {code.projections for code in built} == {None} and len(built) >= 8
        for ref in built:
            d = distance_oracle(ref)
            for build in (lambda: Qc15Code(field, m, ref.dim, ref.gen_matrix),
                          lambda: dataclasses.replace(ref)):
                assert [build().lightest_word_weight(cap) for cap in caps] == [
                    min(d, cap + 1) for cap in caps]
                assert [build().has_word_of_weight_at_most(t) for t in caps] == [
                    d <= t for t in caps]
                code = build()
                assert code.lightest_word_weight(3 * m - 1) == min(d, 3 * m)
                assert code.min_distance().distance == build().min_distance().distance == d

    def test_mixed_stack_of_general_and_restricted_codes(self, monkeypatch):
        # one stack, one m, one row scan of all 3m columns: the restricted
        # codes' w columns are left out of it and copied back, the general
        # codes' read whole
        c, a_prime = orbit_pairs(F3, 4)
        rnd = random.Random(4)
        general = [construct_code(*random_pair(rnd, F3, 4)) for _ in range(20)]
        stack = pair_codes(F3, c, a_prime) + general
        assert {code.projections is None for code in stack} == {True, False}
        distances = [distance_oracle(code) for code in stack]
        shapes = []
        real = codes.leading_independent_rows
        monkeypatch.setattr(codes, "leading_independent_rows",
                            lambda mat, p: shapes.append(mat.shape) or real(mat, p))
        for cap in (2, 5, 8):
            shapes.clear()
            assert lightest_word_weights(*stack_of(stack), cap).tolist() == [
                min(d, cap + 1) for d in distances]
            scanned = [code.dim for code in stack if code.dim
                       and scan_plan(3, code.dim, code.projections, cap) != (0, 0)]
            assert shapes[0] == (len(scanned), max(scanned), 12)

    def test_projections_only_where_row_0_repeats_w(self):
        # restricted pairs built directly derive the projections the sweeps
        # read off (c, a'); a = c || 0 spans a general code for every c != 0
        c, a_prime = orbit_pairs(F3, 4)
        spans, dims, projections = restricted_stack(F3, c, a_prime)
        for rows, dim, facts, x, y in zip(spans, dims.tolist(), projections, c.tolist(),
                                          a_prime.tolist()):
            assert Qc15Code(F3, 4, dim, rows[:dim]).projections == facts
            code = construct_code(RingElement(F3, 8, tuple(x + [0] * 4)),
                                  RingElement(F3, 4, tuple(y)))
            assert (code.projections is None) == any(x)


class TestCodeInvariants:
    def test_shift_closure_examples(self):
        for code in (example1(), example2()):
            words = code.codewords()
            assert {w.shifted() for w in words} == words

    def test_shift_closure_random(self):
        rnd = random.Random(91)
        for m in (2, 4):
            for _ in range(10):
                a, ap = random_pair(rnd, F3, m)
                code = construct_code(a, ap)
                words = code.codewords()
                assert {w.shifted() for w in words} == words

    def test_image_equality_exhaustive(self):
        rnd = random.Random(92)
        for m, cases in ((2, 20), (4, 5)):
            for _ in range(cases):
                a, ap = random_pair(rnd, F3, m)
                code = construct_code(a, ap)
                assert rowspace_words(code) == {w.coords for w in code.codewords()}

    def test_restricted_pair_divisibility_and_dim_bound(self):
        # pairs drawn from the restricted ideals: (X^m+1)(X-1) divides g
        rnd = random.Random(93)
        for m in (2, 4, 5):
            gen2m = RingElement.from_poly(
                Poly.x_pow_plus_one(F3, m) * Poly(F3, (-1, 1)), 2 * m
            )
            genm = RingElement.from_poly(Poly(F3, (-1, 1)), m)
            marker = (Poly.x_pow_plus_one(F3, m) * Poly(F3, (-1, 1))).monic()
            for _ in range(25):
                f = RingElement(F3, 2 * m, tuple(rnd.randrange(3) for _ in range(2 * m)))
                f2 = RingElement(F3, m, tuple(rnd.randrange(3) for _ in range(m)))
                code = construct_code(f * gen2m, f2 * genm)
                assert marker.divides(code.g)
                assert code.dim <= m - 1

    def test_json_dict_fields(self):
        code = example1()
        doc = code.to_json_dict(code.min_distance())
        assert doc["q"] == 3 and doc["m"] == 2
        assert doc["g"] == "1,0,1" and doc["h"] == "2,0,1"
        assert doc["dim"] == 2
        assert doc["min_distance"] == 2
        assert abs(doc["relative_distance"] - 1 / 3) < 1e-15
