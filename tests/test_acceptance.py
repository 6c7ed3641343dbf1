"""Acceptance suite: one test per criterion, each printing a PASS line with its runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The Monte-Carlo criterion (8) uses the pinned seed 42 and takes 1-1.5 s on a
2-vCPU x86-64 host; the whole suite is well under its summed budgets.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import qc15
from qc15 import (
    PrimeField,
    Poly,
    RingElement,
    construct_code,
    span_matrix,
)
from qc15.bounds import ideal_expectation_bound, qary_entropy, qary_entropy_inv
from qc15.ensemble import (
    exact_low_weight_fraction,
    ideal_dim,
    restricted_elements,
    sphere_count_check,
)

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


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {budget_seconds:g}s): {label}")


def rowspace_words(a: RingElement, a_prime: RingElement) -> set[tuple[int, ...]]:
    """Independent oracle: every y * span_matrix over all y in F^{2m}."""
    p = a.field.p
    full = span_matrix(a, a_prime)
    rows = full.shape[0]
    out = set()
    for idx in range(p**rows):
        y = np.array([(idx // p**j) % p for j in range(rows)], dtype=np.int64)
        out.add(tuple(int(c) for c in (y @ full) % p))
    return out


def test_criterion_1_first_worked_example():
    with criterion(1, "worked example q=3 m=2, dense pair", 1.0):
        a = RingElement.from_text(F3, 4, "2,1,2,1")
        ap = RingElement.from_text(F3, 2, "1,1")
        code = construct_code(a, ap)
        assert code.g == Poly.from_text(F3, "1,0,1")            # X^2 + 1
        assert code.h == Poly.from_text(F3, "-1,0,1").monic()   # X^2 - 1, monic
        assert code.dim == 2
        assert code.gen_matrix.tolist() == [[2, 1, 2, 1, 1, 1], [1, 2, 1, 2, 1, 1]]
        assert {w.to_string() for w in code.codewords()} == EXAMPLE1_WORDS
        assert code.min_distance().distance == 2


def test_criterion_2_second_worked_example():
    with criterion(2, "worked example q=3 m=2, sparse pair", 1.0):
        a = RingElement.from_text(F3, 4, "2,1")
        ap = RingElement.from_text(F3, 2, "2,1")
        code = construct_code(a, ap)
        assert code.g == Poly.from_text(F3, "-1,1").monic()     # X - 1, monic
        want_h = (Poly.from_text(F3, "1,0,1") * Poly.from_text(F3, "1,1")).monic()
        assert code.h == want_h                                  # (X^2+1)(X+1)
        assert code.dim == 3
        assert code.gen_matrix.tolist() == [
            [2, 1, 0, 0, 2, 1],
            [0, 2, 1, 0, 1, 2],
            [0, 0, 2, 1, 2, 1],
        ]
        assert {w.to_string() for w in code.codewords()} == EXAMPLE2_WORDS


def test_criterion_3_threshold_constant():
    with criterion(3, "delta_star(3) inside (0.106, 0.107)", 1.0):
        value = qc15.delta_star(3)
        assert 0.106 < value < 0.107


def test_criterion_4_exact_fullrank_probability():
    with criterion(4, "exhaustive full-rank census equals the coset-product formula", 5.0):
        census2 = qc15.fullrank_census(F3, 2)
        census4 = qc15.fullrank_census(F3, 4)
        assert census2 == Fraction(8, 9)
        assert census4 == Fraction(640, 729)
        assert census2 == qc15.exact_fullrank_prob(2, 3)
        assert census4 == qc15.exact_fullrank_prob(4, 3)


def test_criterion_5_per_ideal_expectation_inequality():
    with criterion(5, "exact low-weight expectation below its analytic bound", 30.0):
        checked = 0
        for m in (2, 4):
            generators, _ = restricted_elements(F3, m)
            for delta in (0.1, 0.2, 0.3):
                for b in generators:
                    exact = exact_low_weight_fraction(b, delta)  # a Fraction
                    bound = ideal_expectation_bound(ideal_dim(b), m, delta, 3)
                    assert float(exact) <= bound + 1e-12
                    checked += 1
        assert checked == 3 * (3 + 27)


def test_criterion_6_ensemble_probability_inequality():
    with criterion(6, "exact Pr(distance event) below the ensemble bound", 30.0):
        for delta in ("0.05", "0.1"):
            report = qc15.exact_delta_leq_prob(F3, 4, delta)
            assert report.bound is not None
            assert float(report.exact) <= report.bound + 1e-12


def test_criterion_7_ideal_count_bound():
    with criterion(7, "ideal counts per dimension within m^(d/ell)", 5.0):
        for q in (3, 5):
            for m in range(2, 31):
                if math.gcd(m, q) != 1:
                    continue
                ell = qc15.min_factor_degree(m, q)
                for d, count in qc15.count_ideals_by_dim(m, q).items():
                    if d == 0:
                        continue
                    assert d >= ell, f"nonzero ideal below minimum dim at m={m}, q={q}"
                    assert count**ell <= m**d, f"count bound fails at m={m}, q={q}, d={d}"


def test_criterion_8_monte_carlo_trend():
    with criterion(8, "seeded distance-event trend and full-rank rate at m=13", 600.0):
        seed, trials, delta = 42, 2000, "0.106"
        ms = (5, 7, 11, 13)
        reports = [qc15.mc_delta_prob(F3, m, delta, trials, seed) for m in ms]
        estimates = [r.estimate for r in reports]
        errors = [math.sqrt(e * (1 - e) / trials) for e in estimates]
        for (e1, s1), (e2, s2) in zip(zip(estimates, errors), zip(estimates[1:], errors[1:])):
            slack = 2 * math.sqrt(s1 * s1 + s2 * s2)
            assert e2 - e1 >= -slack, f"trend dips more than 2 SE: {e1} -> {e2}"
        assert estimates[-1] >= 0.9

        # rate side at m = 13: full-rank trials carry rate 12/39, and the
        # full-rank frequency agrees with the exact product formula
        rank_report = qc15.mc_fullrank_prob(F3, 13, trials, seed)
        p_exact = qc15.exact_fullrank_prob(13, 3)
        se = math.sqrt(float(p_exact) * (1 - float(p_exact)) / trials)
        assert rank_report.estimate >= float(p_exact) - 3 * se
        for t in range(trials):
            pair = qc15.sample_pair(F3, 13, qc15.trial_rng(seed, t))
            code = construct_code(pair.a, pair.a_prime)
            if code.dim == 13 - 1:
                assert code.rate == Fraction(12, 39)
                print(f"  m=13 full-rank rate {code.dim}/{code.length} = {float(code.rate):.4f}, "
                      f"full-rank fraction {rank_report.estimate:.4f}")
                break


def test_criterion_9_generator_matrix_oracle_equivalence():
    with criterion(9, "codeword sets equal span-matrix row spaces", 60.0):
        import random

        rnd = random.Random(2024)
        for m, cases in ((2, 50), (4, 10)):
            for _ in range(cases):
                a = RingElement(F3, 2 * m, tuple(rnd.randrange(3) for _ in range(2 * m)))
                ap = RingElement(F3, m, tuple(rnd.randrange(3) for _ in range(m)))
                code = construct_code(a, ap)
                assert rowspace_words(a, ap) == {w.coords for w in code.codewords()}


def test_criterion_10_property_suites():
    with criterion(10, "shift closure, CRT roundtrip, gcd axioms, entropy, sphere counts", 60.0):
        import random

        rnd = random.Random(555)

        # shift closure of enumerated codes
        for m in (2, 4):
            for _ in range(8):
                a = RingElement(F3, 2 * m, tuple(rnd.randrange(3) for _ in range(2 * m)))
                ap = RingElement(F3, m, tuple(rnd.randrange(3) for _ in range(m)))
                words = construct_code(a, ap).codewords()
                assert {w.shifted() for w in words} == words

        # CRT roundtrip, exhaustive while p^{2m} stays small
        for m in (2, 4):
            n = 2 * m
            for idx in range(3**n):
                f = RingElement(F3, n, tuple((idx // 3**j) % 3 for j in range(n)))
                u, v = qc15.crt_split(f)
                assert qc15.crt_combine(u, v) == f

        # gcd axioms on random polynomials
        for _ in range(200):
            field = PrimeField(rnd.choice((3, 5, 7)))
            f = Poly(field, tuple(rnd.randrange(field.p) for _ in range(rnd.randrange(1, 9))))
            g = Poly(field, tuple(rnd.randrange(field.p) for _ in range(rnd.randrange(1, 9))))
            d = f.gcd(g)
            if d.is_zero():
                assert f.is_zero() and g.is_zero()
                continue
            assert d.divides(f) and d.divides(g)
            assert d.lead() == 1

        # entropy roundtrip
        for q in (3, 5, 7):
            for i in range(1001):
                y = i / 1000
                assert abs(qary_entropy(q, qary_entropy_inv(q, y)) - y) <= 1e-9

        # sphere-count inequality on every ideal of R_4 and R_8 over GF(3)
        for n in (4, 8):
            target = Poly.x_pow_minus_one(F3, n)
            gens: dict = {}
            for idx in range(3**n):
                b = RingElement(F3, n, tuple((idx // 3**j) % 3 for j in range(n)))
                gens.setdefault(b.lift().gcd(target).coeffs, b)
            for b in gens.values():
                for w in range(0, n + 1):
                    exact, bound = sphere_count_check(b, w)
                    if Fraction(w, n) <= 1 - Fraction(1, 3):
                        assert exact <= bound + 1e-9
