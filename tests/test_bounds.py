"""Entropy, inverse entropy, and bound-formula tests."""

import math

import pytest

from qc15.bounds import (
    delta_prob_bound,
    delta_star,
    goodness_indicator,
    ideal_expectation_bound,
    qary_entropy,
    qary_entropy_inv,
    scan_goodness_records,
)
from qc15.errors import BoundOverflow, DomainError, NotCoprime


def entropy_base2(q: int, x: float) -> float:
    """Independent coding of the same function through base-2 logarithms."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return math.log2(q - 1) / math.log2(q)
    s = x * math.log2(q - 1) - x * math.log2(x) - (1 - x) * math.log2(1 - x)
    return s / math.log2(q)


class TestEntropy:
    def test_zero_is_exact(self):
        for q in (3, 5, 7):
            assert qary_entropy(q, 0.0) == 0.0

    def test_value_one_at_one_minus_inverse_q(self):
        for q in (3, 5, 7):
            assert abs(qary_entropy(q, 1 - 1 / q) - 1.0) < 1e-12

    def test_value_at_one_third(self):
        got = qary_entropy(3, 1 / 3)
        assert abs(got - entropy_base2(3, 1 / 3)) < 1e-12
        assert abs(got - 0.7896900821428474) < 1e-12

    def test_agrees_with_independent_coding_on_grid(self):
        for q in (3, 5, 7):
            for i in range(1, 1000):
                x = i / 1000
                assert abs(qary_entropy(q, x) - entropy_base2(q, x)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            qary_entropy(3, -0.1)
        with pytest.raises(DomainError):
            qary_entropy(3, 1.1)

    def test_strictly_increasing_below_peak(self):
        for q in (3, 5, 7):
            top = 1 - 1 / q
            xs = [top * i / 400 for i in range(401)]
            vals = [qary_entropy(q, x) for x in xs]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_midpoint_concavity_grid(self):
        for q in (3, 5, 7):
            pts = [i / 34 for i in range(1, 34)]
            for x in pts:
                for y in pts:
                    lhs = qary_entropy(q, (x + y) / 2)
                    rhs = 0.5 * (qary_entropy(q, x) + qary_entropy(q, y))
                    assert lhs >= rhs - 1e-12


class TestEntropyInverse:
    def test_endpoints(self):
        for q in (3, 5, 7):
            assert qary_entropy_inv(q, 0.0) == 0.0
            assert qary_entropy_inv(q, 1.0) == 1 - 1 / q

    def test_half_below_one_half(self):
        for q in (3, 5, 7):
            assert qary_entropy_inv(q, 0.5) < 0.5

    def test_q3_half_interval(self):
        assert 0.159 < qary_entropy_inv(3, 0.5) < 0.1605

    def test_roundtrip_grid(self):
        for q in (3, 5, 7):
            for i in range(1001):
                y = i / 1000
                x = qary_entropy_inv(q, y)
                assert abs(qary_entropy(q, x) - y) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            qary_entropy_inv(3, -0.01)
        with pytest.raises(DomainError):
            qary_entropy_inv(3, 1.01)


class TestDeltaStar:
    def test_q3_interval(self):
        assert 0.106 < delta_star(3) < 0.107

    def test_below_one_third(self):
        for q in (3, 5, 7, 11):
            assert delta_star(q) < 1 / 3

    def test_increasing_in_q(self):
        vals = [delta_star(q) for q in (3, 5, 7, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestIdealExpectationBound:
    def test_dim_zero_reduces_to_m(self):
        for m in (2, 4, 5):
            assert abs(ideal_expectation_bound(0, m, 0.2, 3) - m) < 1e-12

    def test_delta_zero_closed_form(self):
        for q, m in ((3, 4), (5, 6)):
            got = ideal_expectation_bound(m - 1, m, 0.0, q)
            want = m * q ** (-2.0 * (m - 1))
            assert abs(got - want) < 1e-15

    def test_plug_in_value(self):
        got = ideal_expectation_bound(1, 2, 1 / 3, 3)
        want = 3 ** (-2 + 2 * qary_entropy(3, 0.5) + math.log(2, 3))
        assert abs(got - want) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            ideal_expectation_bound(1, 2, 0.7, 3)
        with pytest.raises(DomainError):
            ideal_expectation_bound(-1, 2, 0.1, 3)


class TestDeltaProbBound:
    def test_single_term_m5(self):
        got = delta_prob_bound(5, 0.05, 3)
        c = 0.5 - qary_entropy(3, 0.075) - math.log(5, 3) / 4
        assert abs(got - 3 ** (-8 * c)) < 1e-12

    def test_matches_geometric_closed_form(self):
        from qc15.algebra import min_factor_degree

        for q, m, d in ((3, 4, 0.1), (3, 5, 0.05), (3, 7, 0.08), (5, 6, 0.1), (3, 13, 0.106)):
            ell = min_factor_degree(m, q)
            c = 0.5 - qary_entropy(q, 1.5 * d) - math.log(m, q) / ell
            r = q ** (-2.0 * c)
            if abs(r - 1.0) < 1e-9:
                closed = float(m - ell)
            else:
                closed = r**ell * (1 - r ** (m - ell)) / (1 - r)
            got = delta_prob_bound(m, d, q)
            assert abs(got - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_monotone_in_delta(self):
        for m in (4, 5, 7):
            vals = [delta_prob_bound(m, d, 3) for d in (0.01, 0.05, 0.1, 0.2, 0.3)]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain_and_coprimality(self):
        with pytest.raises(DomainError):
            delta_prob_bound(4, 0.7, 3)
        with pytest.raises(DomainError):
            delta_prob_bound(1, 0.1, 3)
        with pytest.raises(NotCoprime):
            delta_prob_bound(6, 0.1, 3)

    # at m = 82: a single term past the float range, and finite terms whose sum is not
    @pytest.mark.parametrize("delta", (0.106, 0.0992544))
    def test_past_the_float_range_raises(self, delta):
        with pytest.raises(BoundOverflow):
            delta_prob_bound(82, delta, 3)
        assert 1.79e308 < delta_prob_bound(82, 0.0992543, 3) < math.inf


class TestProofStepInequality:
    def test_split_entropy_inequality(self):
        # h(w1/2m) + h(w2/m) <= 2 h((w1 + 2 w2)/4m) whenever w1 + w2 = floor(3 m delta)
        for q in (3, 5):
            for m in range(2, 21):
                for delta in (0.05, 0.1, 0.2, 0.3, 1 / 3):
                    t = math.floor(3 * m * delta)
                    for w1 in range(0, t + 1):
                        w2 = t - w1
                        if w1 > 2 * m or w2 > m:
                            continue
                        lhs = qary_entropy(q, w1 / (2 * m)) + qary_entropy(q, w2 / m)
                        rhs = 2 * qary_entropy(q, (w1 + 2 * w2) / (4 * m))
                        assert lhs <= rhs + 1e-12


class TestGoodness:
    def test_values(self):
        assert abs(goodness_indicator(5, 3) - math.log(5, 3) / 4) < 1e-15
        assert abs(goodness_indicator(4, 3) - math.log(4, 3)) < 1e-15

    def test_scan_records_strictly_decreasing(self):
        records = scan_goodness_records(3, 2, 200)
        vals = [r["goodness_indicator"] for r in records]
        assert len(vals) >= 3
        assert all(a > b for a, b in zip(vals, vals[1:]))
        ms = [r["m"] for r in records]
        assert all(a < b for a, b in zip(ms, ms[1:]))
