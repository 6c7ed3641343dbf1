"""Restricted-pair sampling and exact / Monte-Carlo probability tests."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, product

import numpy as np
import pytest

from qc15 import codes, ensemble
from qc15.algebra import (
    Poly,
    PrimeField,
    RingElement,
    coset_idempotents,
    cyclotomic_cosets,
    min_factor_degree,
)
from qc15.bounds import ideal_expectation_bound
from qc15.codes import circulant_matrix, construct_code, coset_support, generator_poly
from qc15.ensemble import (
    TRIAL_BLOCK,
    _pair_source,
    _sample_block,
    count_ideals_by_dim,
    exact_delta_leq_prob,
    exact_delta_leq_probs,
    exact_fullrank_prob,
    exact_low_weight_fraction,
    fullrank_census,
    ideal_basis,
    ideal_dim,
    ideal_elements,
    mc_delta_prob,
    mc_delta_probs,
    mc_fullrank_prob,
    restricted_elements,
    restricted_generators,
    sample_pair,
    sphere_count_check,
    trial_rng,
    weight_threshold,
)
from qc15.errors import DomainError, EmptyTrialSet, EnumerationTooLarge, NotCoprime
from oracles import min_distance, multiplier_class_count, rank

F3 = PrimeField(3)

# the three elements of each restricted ideal at q=3, m=2
J_PLUS_4 = {(0, 0, 0, 0), (2, 1, 2, 1), (1, 2, 1, 2)}
J_2 = {(0, 0), (2, 1), (1, 2)}


def j_plus_generator(m: int) -> RingElement:
    return restricted_generators(F3, m)[0]


@lru_cache(maxsize=None)
def pair_sweep(q: int, m: int) -> tuple[tuple[int, ...], int]:
    """Brute force over every restricted pair, one code each: for t in 0..3m
    the number of pairs whose code has a nonzero word of weight <= t (by
    exhaustive minimum distance), and the number with dim = m - 1."""
    field = PrimeField(q)
    distances = []
    fullrank = 0
    for a, a_prime in product(*restricted_elements(field, m)):
        code = construct_code(a, a_prime)
        if code.dim:
            distances.append(min_distance(code.gen_matrix, q))
        fullrank += 2 * m - generator_poly(a, a_prime).degree == m - 1
    return tuple(sum(d <= t for d in distances) for t in range(3 * m + 1)), fullrank


def unit_orbits(field: PrimeField, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, a', sizes): one pair of each unit orbit and the orbit's size, of
    prod(q^|C| + 2) orbits over the nonzero cosets C."""
    total = math.prod(field.p**d + 2 for d in cyclotomic_cosets(m, field.p).nonzero_sizes())
    return ensemble._unit_orbits(field, m, np.arange(total))


def multiplier_classes(field: PrimeField, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact source's (c, a', sizes) joined over its stacks, each of at
    most TRIAL_BLOCK classes."""
    stacks = list(_pair_source(field, m))
    assert all(len(sizes) <= TRIAL_BLOCK for _, _, sizes in stacks)
    c, a_prime, sizes = (np.concatenate(part) for part in zip(*stacks))
    return c, a_prime, sizes


# (q, m) small enough for the pair sweep
ORACLE_SPACES = ((3, 2), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2))


class TestWeightThreshold:
    def test_exact_fraction(self):
        assert weight_threshold(2, Fraction(1, 3)) == 2
        assert weight_threshold(13, "0.106") == 4
        assert weight_threshold(4, 0.1) == 1
        assert weight_threshold(4, "0.05") == 0


class TestSampler:
    def test_support_is_the_nine_pairs(self):
        seen = set()
        for i in range(400):
            pair = sample_pair(F3, 2, trial_rng(7, i))
            assert pair.a.coeffs in J_PLUS_4
            assert pair.a_prime.coeffs in J_2
            seen.add((pair.a.coeffs, pair.a_prime.coeffs))
        assert len(seen) == 9

    def test_frequencies_near_uniform(self):
        counts: dict = {}
        for i in range(9000):
            pair = sample_pair(F3, 2, trial_rng(123, i))
            key = (pair.a.coeffs, pair.a_prime.coeffs)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 9
        for c in counts.values():
            assert 800 <= c <= 1200

    def test_sampled_pairs_validate(self):
        for m in (2, 4, 5, 7):
            for i in range(50):
                pair = sample_pair(F3, m, trial_rng(11, i))
                lift = pair.a.lift()
                assert Poly.x_pow_plus_one(F3, m).divides(lift)
                assert lift.evaluate(1) == 0
                assert pair.a_prime.lift().evaluate(1) == 0

    def test_trial_rng_reproducible(self):
        a = sample_pair(F3, 5, trial_rng(99, 3))
        b = sample_pair(F3, 5, trial_rng(99, 3))
        c = sample_pair(F3, 5, trial_rng(99, 4))
        assert a == b
        assert a != c or True  # different trials may rarely collide; equality of streams matters
        assert trial_rng(99, 4).integers(0, 1 << 30) != trial_rng(99, 5).integers(0, 1 << 30)


class TestRestrictedIdeals:
    def test_dimensions_m_minus_one(self):
        for m in (2, 4, 5, 7):
            gen2m, genm = restricted_generators(F3, m)
            assert ideal_dim(gen2m) == m - 1
            assert ideal_dim(genm) == m - 1

    def test_enumeration_m2(self):
        a_list, ap_list = restricted_elements(F3, 2)
        assert {a.coeffs for a in a_list} == J_PLUS_4
        assert {a.coeffs for a in ap_list} == J_2

    def test_enumeration_matches_brute_force_products(self):
        for m in (2, 4):
            gen2m, genm = restricted_generators(F3, m)
            brute = set()
            for idx in range(3 ** (2 * m)):
                f = RingElement(F3, 2 * m, tuple((idx // 3**j) % 3 for j in range(2 * m)))
                brute.add((f * gen2m).coeffs)
            a_list, _ = restricted_elements(F3, m)
            assert {a.coeffs for a in a_list} == brute


class TestIdealDim:
    def test_zero(self):
        assert ideal_dim(RingElement.zero(F3, 4)) == 0

    def test_restricted_generator_m2(self):
        assert ideal_dim(j_plus_generator(2)) == 1

    def test_unit(self):
        assert ideal_dim(RingElement.one(F3, 4)) == 4

    def test_matches_brute_force_span(self):
        rnd = random.Random(17)
        for _ in range(40):
            n = rnd.choice((2, 4, 5, 6))
            b = RingElement(F3, n, tuple(rnd.randrange(3) for _ in range(n)))
            span = set()
            for idx in range(3**n):
                f = RingElement(F3, n, tuple((idx // 3**j) % 3 for j in range(n)))
                span.add((f * b).coeffs)
            assert len(span) == 3 ** ideal_dim(b)
            assert {tuple(int(c) for c in row) for row in ideal_elements(b)} == span

    @pytest.mark.parametrize("q, ms", ((3, (2, 3, 5, 9)), (5, (3, 5)), (7, (4, 7))))
    def test_scan_rule_matches_gcd_and_rank(self, q, ms):
        # n = m and 2m, among them n not coprime to q, where R_n is not
        # semisimple: b times random factors of X^n - 1, to reach many dims
        field, rnd = PrimeField(q), random.Random(q)
        for n in (n for m in ms for n in (m, 2 * m)):
            target = Poly.x_pow_minus_one(field, n)
            factors = [Poly(field, (1, 1))] + [
                Poly.x_pow_minus_one(field, d) for d in range(1, n) if n % d == 0]
            dims = set()
            for _ in range(12):
                b = RingElement(field, n, tuple(rnd.randrange(q) for _ in range(n)))
                for _ in range(rnd.randrange(4)):
                    b = b * RingElement.from_poly(rnd.choice(factors), n)
                dim, basis = ideal_dim(b), ideal_basis(b)
                assert dim == n - b.lift().gcd(target).degree  # the gcd rule it replaced
                assert dim == rank(circulant_matrix(b), q) == rank(basis, q)
                assert np.array_equal(basis, circulant_matrix(b)[:dim])
                dims.add(dim)
            assert len(dims) > 1


def two_ideal_formula(b: RingElement):
    """exact_low_weight_fraction(b, delta, limit) as a function of (delta,
    limit), over <b> in R_2m and <b mod X^m - 1> in R_m as two ideals, each
    enumerated: the oracle for the one-ideal form."""
    m = b.n // 2
    sides = [ideal_elements(b), ideal_elements(b.fold_to(m))]
    total = len(sides[0]) * len(sides[1])
    h1, h2 = (np.bincount(np.count_nonzero(rows, axis=1), minlength=rows.shape[1] + 1)
              for rows in sides)
    prefix2 = np.cumsum(h2)

    def fraction(delta, limit: int) -> Fraction:
        t = weight_threshold(m, delta)
        if b.is_zero() or t < 1:
            return Fraction(0)
        if len(sides[1]) > limit:  # the words of <c> = <b mod X^m - 1>
            raise EnumerationTooLarge(f"{len(sides[1])} words exceed the limit {limit}")
        count = sum(int(h1[w]) * int(prefix2[min(t - w, m)]) for w in range(min(t, 2 * m) + 1))
        return Fraction(count - 1, total)

    return fraction


class TestExactLowWeightFraction:
    def test_zero_generator(self):
        assert exact_low_weight_fraction(RingElement.zero(F3, 4), 0.3) == 0

    def test_zero_threshold(self):
        assert exact_low_weight_fraction(j_plus_generator(2), "0.05") == 0

    def test_nine_element_oracle(self):
        # brute-force the image product and count weights in [1, 2]
        b = j_plus_generator(2)
        image_left = set()
        for idx in range(81):
            f = RingElement(F3, 4, tuple((idx // 3**j) % 3 for j in range(4)))
            image_left.add((f * b).coeffs)
        b2 = b.fold_to(2)
        image_right = set()
        for idx in range(9):
            f = RingElement(F3, 2, tuple((idx // 3**j) % 3 for j in range(2)))
            image_right.add((f * b2).coeffs)
        assert len(image_left) == 3 and len(image_right) == 3
        t = weight_threshold(2, Fraction(1, 3))
        hits = sum(
            1
            for u in image_left
            for v in image_right
            if 1 <= sum(1 for c in u if c) + sum(1 for c in v if c) <= t
        )
        want = Fraction(hits, 9)
        assert want == Fraction(2, 9)
        assert exact_low_weight_fraction(b, Fraction(1, 3)) == want

    def test_below_expectation_bound(self):
        assert float(exact_low_weight_fraction(j_plus_generator(2), Fraction(1, 3))) <= (
            ideal_expectation_bound(1, 2, 1 / 3, 3) + 1e-12
        )

    def test_all_restricted_generators_m2_m4(self):
        for m in (2, 4):
            a_list, _ = restricted_elements(F3, m)
            for delta in (0.1, 0.2, 0.3):
                for b in a_list:
                    frac = exact_low_weight_fraction(b, delta)
                    bound = ideal_expectation_bound(ideal_dim(b), m, delta, 3)
                    assert float(frac) <= bound + 1e-12

    def test_rejects_unrestricted_generator(self):
        # 1; 1 + X^2 = c || c with sum(c) != 0; 1 + 2X with b(1) = 0 but not c || c
        for text in ("1", "1,0,1", "1,2"):
            with pytest.raises(ValueError, match=r"not a multiple of \(X\^m \+ 1\)\(X - 1\)"):
                exact_low_weight_fraction(RingElement.from_text(F3, 4, text), 0.3)
        with pytest.raises(ValueError, match="b must live in R_2m, got co-length 5"):
            exact_low_weight_fraction(RingElement.one(F3, 5), 0.3)

    @pytest.mark.parametrize("q, ms", ((3, (2, 4, 5)), (5, (2, 3)), (7, (2, 3))))
    def test_matches_two_ideal_formula(self, q, ms):
        def outcome(fraction, delta, limit):
            try:
                return fraction(delta, limit)
            except EnumerationTooLarge as exc:
                return str(exc)

        deltas = ("0.05", "0.1", "0.2", Fraction(1, 3), "0.5", "0.7", 1)
        cases = [(delta, 2**24) for delta in deltas] + [(1, limit) for limit in (1, 81, 6561)]
        for m in ms:
            a_list, _ = restricted_elements(PrimeField(q), m)
            for b in a_list:
                oracle = two_ideal_formula(b)
                for delta, limit in cases:
                    ours = outcome(partial(exact_low_weight_fraction, b), delta, limit)
                    assert ours == outcome(oracle, delta, limit)

    def test_one_row_scan_per_call(self, monkeypatch):
        a_list, _ = restricted_elements(F3, 5)
        calls = []
        scan = ensemble.leading_independent_rows
        monkeypatch.setattr(ensemble, "leading_independent_rows",
                            lambda *args: calls.append(args) or scan(*args))
        nonzero = [b for b in a_list if not b.is_zero()]
        for b in nonzero:
            assert exact_low_weight_fraction(b, "0.3") > 0
        assert len(calls) == len(nonzero) == 80

    def test_both_ideals_share_one_dimension(self):
        # <b> in R_2m and <b mod X^m - 1> in R_m carve out the same factor set
        for m in (2, 4, 5):
            a_list, _ = restricted_elements(F3, m)
            for b in a_list:
                assert ideal_dim(b) == ideal_dim(b.fold_to(m))


class TestExactDeltaProb:
    def test_zero_threshold_gives_zero(self):
        rep = exact_delta_leq_prob(F3, 2, "0.05")
        assert rep.exact == 0
        assert rep.mode == "exact"
        assert rep.trials == 9

    def test_delta_one_counts_nonzero_codes(self):
        rep = exact_delta_leq_prob(F3, 2, 1.0)
        assert rep.exact == Fraction(8, 9)
        assert rep.bound is None  # 3*delta/2 > 1, outside the bound formula

    def test_m2_at_one_third(self):
        rep = exact_delta_leq_prob(F3, 2, Fraction(1, 3))
        assert rep.exact == Fraction(2, 9)
        assert rep.zero_code_fraction == pytest.approx(1 / 9)

    def test_m4_below_bound(self):
        rep = exact_delta_leq_prob(F3, 4, 0.1)
        assert rep.trials == 729
        assert float(rep.exact) <= rep.bound + 1e-12

    @pytest.mark.parametrize("m", (2, 4))
    @pytest.mark.parametrize("delta", ("0.05", "0.1"))
    def test_exact_below_bound_grid(self, m, delta):
        rep = exact_delta_leq_prob(F3, m, delta)
        assert rep.bound is not None
        assert float(rep.exact) <= rep.bound + 1e-12

    def test_markov_step(self):
        # exact Pr <= sum of per-generator expectations
        for delta in (Fraction(1, 3), Fraction(1, 2)):
            rep = exact_delta_leq_prob(F3, 2, delta)
            a_list, _ = restricted_elements(F3, 2)
            total = sum(exact_low_weight_fraction(b, delta) for b in a_list)
            assert rep.exact <= total

    def test_limit(self):
        with pytest.raises(EnumerationTooLarge):
            exact_delta_leq_prob(F3, 5, 0.1, limit=100)


class TestDistanceEvent:
    def test_one_stacked_scan_per_stack_at_the_widest_t_below_3m(self, monkeypatch):
        scans = []
        real = codes.rref_lightest_weights
        monkeypatch.setattr(codes, "rref_lightest_weights",
                            lambda stack, p, cap, plans: scans.append(
                                (len(stack), stack.shape[1], cap)) or real(stack, p, cap, plans))
        # at m = 4 the thresholds are t = 1, 3 and 12 = 3m, which needs no scan,
        # and the codes have dims 1, 2 and 3; the trials, then the attached
        # exact row's unit orbits. At t = 3 only the codes with a short
        # projection are scanned: in (X-1)R_m the others weigh at least 6
        mc_delta_probs(F3, 4, ["0.106", "0.3", "1"], TRIAL_BLOCK + 1, seed=3)
        expected = []
        for c, a_prime, _ in chain(_pair_source(F3, 4, trials=TRIAL_BLOCK + 1, seed=3),
                                   _pair_source(F3, 4)):
            dims, full, _ = coset_support(F3, c, a_prime)
            dims = [dim for dim, f in zip(dims.tolist(), full.tolist()) if not f]
            # one scan per stack and nonzero dim, in order of first appearance
            expected += [(dims.count(d), d, 3) for d in dict.fromkeys(dims) if d]
        assert scans == expected
        assert len({dim for _, dim, _ in scans}) > 1

    @pytest.mark.parametrize("delta, hits", (("1", 3**12 - 1), ("0.04", 0)))
    def test_thresholds_outside_1_to_3m_scan_nothing(self, monkeypatch, delta, hits):
        # t = 21 = 3m holds for every nonzero code and t = 0 for none
        calls = []
        real = codes.low_weight_messages
        monkeypatch.setattr(codes, "low_weight_messages",
                            lambda *args: calls.append(args) or real(*args))
        (rep,) = exact_delta_leq_probs(F3, 7, [delta])
        assert (rep.hits, calls) == (hits, [])

    def test_limit_is_checked_once_per_dim_before_any_scan(self, monkeypatch):
        # at t = 2 over GF(3) a code with full projections needs no candidate,
        # and the others of dims 1, 2 and 3 count 1, 4 and 9 messages; one
        # plan per dim and projections, all before any scan
        c, a_prime, _ = unit_orbits(F3, 4)
        dims, full, sum_zero = coset_support(F3, c, a_prime)
        kinds = list(zip(dims.tolist(), zip(full.tolist(), sum_zero.tolist())))
        first_seen = list(dict.fromkeys(kind for kind in kinds if kind[0]))
        assert len(first_seen) == 6
        planned, scans = [], []
        plan, scan = codes.scan_plan, codes.rref_lightest_weights
        monkeypatch.setattr(codes, "scan_plan",
                            lambda p, dim, projections, cap: planned.append((dim, projections))
                            or plan(p, dim, projections, cap))
        monkeypatch.setattr(codes, "rref_lightest_weights",
                            lambda *args: scans.append(args[0].shape[1]) or scan(*args))
        with pytest.raises(EnumerationTooLarge, match="^9 candidate messages exceed the limit 4$"):
            ensemble._distance_event(F3, [2], 4)(c, a_prime)
        assert (planned, scans) == (first_seen, [])
        planned.clear()
        ensemble._distance_event(F3, [0, 2, 12], 9)(c, a_prime)
        assert planned == first_seen and sorted(scans) == [1, 2, 3]

    def test_every_answer_comes_from_the_array_scan(self, monkeypatch):
        # an array scan that finds no word at all, not even of weight 3m: a
        # sweep that answered the event without it would leave these counts
        # at their true values
        monkeypatch.setattr(ensemble, "lightest_word_weights",
                            lambda p, spans, dims, *args: np.full(len(dims), spans.shape[2] + 1))
        for rep in mc_delta_probs(F3, 5, ["0.106", "0.3"], 100, seed=42):
            assert rep.hits == rep.trials
        assert [rep.hits for rep in exact_delta_leq_probs(F3, 4, ["0.3", "1"])] == [0, 0]

    def test_sweeps_build_no_code(self, monkeypatch):
        # the event answers from the stack's arrays: no Qc15Code per pair
        deltas = ["0.106", "0.3", "1"]
        expected = [[r.hits for r in mc_delta_probs(F3, 5, deltas, 100, seed=42)],
                    [r.hits for r in exact_delta_leq_probs(F3, 5, deltas)]]

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep built a Qc15Code")

        monkeypatch.setattr(codes.Qc15Code, "__init__", refuse)
        assert [[r.hits for r in mc_delta_probs(F3, 5, deltas, 100, seed=42)],
                [r.hits for r in exact_delta_leq_probs(F3, 5, deltas)]] == expected
        with pytest.raises(AssertionError, match="built a Qc15Code"):
            construct_code(*sample_pair(F3, 5, trial_rng(42, 0)))

    def test_a_broken_scan_changes_the_sweeps(self, monkeypatch):
        # a scan that finds no light word makes every trial at t < 3m a hit and
        # empties the exact row at t = 3 < 3m; t = 12 = 3m is answered without
        # it. At m = 5 and t = 4 only codes with a short projection are
        # scanned, at t = 7 those with full projections too
        deltas = ["0.106", "0.3", "0.5"]
        leq = [rep.hits for rep in exact_delta_leq_probs(F3, 4, ["0.3", "1"])]
        hits = [rep.hits for rep in mc_delta_probs(F3, 5, deltas, 100, seed=42)]
        monkeypatch.setattr(codes, "rref_lightest_weights",
                            lambda rref, p, cap, plans: np.full(len(rref), cap + 1))
        assert hits[0] == 100 and max(hits[1:]) < 100
        assert [rep.hits for rep in mc_delta_probs(F3, 5, deltas, 100, seed=42)] == [100] * 3
        assert leq[0] and [rep.hits for rep in exact_delta_leq_probs(F3, 4, ["0.3", "1"])] == [
            0, leq[1]]

    def test_answers_equal_each_codes_own_query(self):
        # on every unit orbit (the zero code first) and at t = 0 and t >= 3m
        for q, m in ((3, 4), (5, 3), (7, 3)):
            field = PrimeField(q)
            c, a_prime, _ = unit_orbits(field, m)
            assert not (c[0].any() or a_prime[0].any())
            built = [construct_code(RingElement(field, 2 * m, tuple(x + x)),
                                     RingElement(field, m, tuple(y)))
                      for x, y in zip(c.tolist(), a_prime.tolist())]
            for ts in (list(range(3 * m + 2)), [0, 2, 3 * m], [0, 3 * m + 1]):
                answers = ensemble._distance_event(field, ts, 10**6)(c, a_prime)
                expected = [[code.has_word_of_weight_at_most(t) for t in ts] for code in built]
                assert answers.shape == (len(c), len(ts)) and answers.tolist() == expected
                assert not answers[0].any() and answers.any() and not answers.all()


class TestUnitOrbits:
    @pytest.mark.parametrize("q, m", ORACLE_SPACES)
    def test_distance_hits_match_pair_sweep(self, q, m):
        hits, _ = pair_sweep(q, m)
        for t in range(1, 3 * m + 1):
            rep = exact_delta_leq_prob(PrimeField(q), m, Fraction(t, 3 * m))
            assert (rep.trials, rep.hits) == (q ** (2 * (m - 1)), hits[t])

    @pytest.mark.parametrize("q, m", ORACLE_SPACES)
    def test_fullrank_census_matches_pair_sweep(self, q, m):
        _, fullrank = pair_sweep(q, m)
        assert fullrank_census(PrimeField(q), m) == Fraction(fullrank, q ** (2 * (m - 1)))

    @pytest.mark.parametrize(
        "q, m, orbits",
        (
            (3, 2, 5), (3, 4, 55), (3, 5, 83), (3, 7, 731), (5, 3, 27), (7, 3, 81),
            (3, 8, 6655), (5, 6, 5103),
        ),
    )
    def test_orbit_count_is_product_over_cosets(self, q, m, orbits):
        field = PrimeField(q)
        c, a_prime, sizes = unit_orbits(field, m)
        assert orbits == math.prod(q**d + 2 for d in cyclotomic_cosets(m, q).nonzero_sizes())
        assert c.shape == a_prime.shape == (orbits, m) and len(sizes) == orbits
        assert sizes.sum() == q ** (2 * (m - 1))
        # every representative (c || c, a') is a restricted pair
        left, right = (set(map(tuple, ideal_elements(g))) for g in restricted_generators(field, m))
        assert set(map(tuple, np.hstack([c, c]).tolist())) <= left
        assert set(map(tuple, a_prime.tolist())) <= right

    @pytest.mark.parametrize("q, m", ((3, 4), (5, 3), (7, 3)))
    def test_each_orbit_spans_one_code(self, q, m):
        # {code: pairs spanning it} over every restricted pair equals
        # {representative's code: its orbit's size}
        field = PrimeField(q)

        def key(a, a_prime):
            rref = construct_code(a, a_prime).rref
            return rref.shape, rref.tobytes()

        census = Counter(key(a, a_prime) for a, a_prime in product(*restricted_elements(field, m)))
        c, a_prime, sizes = unit_orbits(field, m)
        orbits = {
            key(RingElement(field, 2 * m, tuple(x + x)), RingElement(field, m, tuple(y))): int(size)
            for x, y, size in zip(c.tolist(), a_prime.tolist(), sizes)
        }
        assert len(orbits) == len(sizes)
        assert orbits == dict(census)

    def test_delta_hits_q3_m8(self):
        reports = exact_delta_leq_probs(F3, 8, ["0.106", "0.2", "0.3"])
        assert [(r.trials, r.hits) for r in reports] == [
            (4782969, 46656), (4782969, 556488), (4782969, 2229848)
        ]


# (q, m) where the multiplier classes are checked against the orbits at every t
CLASS_SPACES = ((3, 2), (3, 4), (3, 5), (3, 7), (3, 8), (5, 3), (5, 4), (7, 3), (7, 4))


class TestMultiplierClasses:
    @pytest.mark.parametrize(
        "q, m, classes",
        ((3, 2, 5), (3, 4, 40), (3, 5, 26), (3, 7, 132), (3, 8, 2040), (5, 3, 17),
         (5, 4, 196), (7, 3, 45), (7, 4, 270)),
    )
    def test_class_sizes_sum_to_the_pair_count(self, q, m, classes):
        field = PrimeField(q)
        c, a_prime, sizes = multiplier_classes(field, m)
        assert len(sizes) == classes and sizes.sum() == q ** (2 * (m - 1))
        # each class stands for orbits: its pair is one of the representatives,
        # the zero pair alone first
        reps = set(map(tuple, np.hstack(unit_orbits(field, m)[:2]).tolist()))
        assert set(map(tuple, np.hstack([c, a_prime]).tolist())) <= reps
        assert sizes[0] == 1 and not (c[0].any() or a_prime[0].any())

    @pytest.mark.parametrize("q, m", CLASS_SPACES)
    def test_hits_equal_the_orbit_engine_at_every_t(self, q, m):
        # the orbit engine: every unit orbit, as one stack
        field, ts, orbits = PrimeField(q), list(range(3 * m + 1)), [unit_orbits(PrimeField(q), m)]
        n, hits, zero_codes = ensemble._tally(
            orbits, ensemble._distance_event(field, ts, 10**7), len(ts))
        reports = exact_delta_leq_probs(field, m, [Fraction(t, 3 * m) for t in ts], 10**7)
        assert [(r.trials, r.hits, r.zero_code_fraction) for r in reports] == [
            (n, h, zero_codes / n) for h in hits]
        _, (fullrank,), _ = ensemble._tally(orbits, ensemble._fullrank_event(field, m), 1)
        assert fullrank_census(field, m, 10**7) == Fraction(fullrank, n)

    @pytest.mark.parametrize("q, m", ((3, 4), (3, 5), (3, 7), (5, 3), (7, 3), (13, 3)))
    def test_class_count_is_the_codes_up_to_multipliers(self, q, m):
        # the orbits span every code once (TestUnitOrbits); count those codes
        # up to X -> X^s by brute force
        field = PrimeField(q)
        c, a_prime, _ = unit_orbits(field, m)
        dims = coset_support(field, c, a_prime)[0]
        spans = np.concatenate([circulant_matrix(c)] * 2 + [circulant_matrix(a_prime)], axis=2)
        assert len(multiplier_classes(field, m)[2]) == multiplier_class_count(
            [rows[:dim] for rows, dim in zip(spans, dims)], m, q)

    @pytest.mark.parametrize("block", (1, 7))
    @pytest.mark.parametrize("q, m", ((3, 1), (3, 7), (5, 4), (7, 3)))
    def test_stacks_do_not_depend_on_the_index_block(self, q, m, block, monkeypatch):
        # the same classes, sizes and order whichever orbit indices are read
        # together, and every stack but the last full
        field = PrimeField(q)
        expected = multiplier_classes(field, m)
        monkeypatch.setattr(ensemble, "PRODUCT_BLOCK", block)
        stacks = [len(sizes) for *_, sizes in _pair_source(field, m)]
        assert set(stacks[:-1]) <= {TRIAL_BLOCK}
        assert all(map(np.array_equal, multiplier_classes(field, m), expected))

    def test_pair_limit_is_capped_at_int64(self):
        # 3^30 pairs in 45,846,295 orbits, whose (c, a') would take 11.7 GB,
        # stream their first stack at any limit; 3^42 > 2^63 - 1 pairs are past
        # it, whose orbit indices need not fit in int64
        c, a_prime, sizes = next(_pair_source(F3, 16, 10**30))
        assert len(sizes) == TRIAL_BLOCK and sizes[0] == 1 and not (c[0].any() or a_prime[0].any())
        with pytest.raises(EnumerationTooLarge, match=f"^{3**42} pairs exceed the limit {2**63 - 1}$"):
            _pair_source(F3, 22, 10**30)


class TestMcDeltaProb:
    def test_empty_trials(self):
        with pytest.raises(EmptyTrialSet):
            mc_delta_prob(F3, 2, 0.1, trials=0, seed=1)

    def test_exact_cross_check_m2(self):
        rep = mc_delta_prob(F3, 2, Fraction(1, 3), trials=2000, seed=5)
        assert rep.exact == Fraction(7, 9)  # complement of 2/9
        p = float(rep.exact)
        se = math.sqrt(p * (1 - p) / rep.trials)
        assert abs(rep.estimate - p) <= 3 * se
        assert rep.mode == "montecarlo"
        assert rep.hits + round(rep.trials * (1 - rep.estimate)) == rep.trials

    @pytest.mark.parametrize(
        "m, delta, trials, leq",
        (
            (4, Fraction(1, 3), 2000, Fraction(274, 729)),
            (4, Fraction(1, 2), 2000, Fraction(562, 729)),
            (5, Fraction(2, 5), 1000, Fraction(2560, 6561)),
            (7, Fraction(3, 10), 2000, Fraction(72800, 531441)),
        ),
    )
    def test_agrees_with_exact_where_not_saturated(self, m, delta, trials, leq):
        # Pr(d <= delta) lies well inside (0, 1) here, so an estimate of the
        # wrong side of the event misses by more than 10 standard errors
        if m >= 5:
            assert exact_delta_leq_prob(F3, m, delta).exact == leq
        rep = mc_delta_prob(F3, m, delta, trials=trials, seed=2024)
        p = 1 - leq
        if m == 4:
            assert rep.exact == p
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(rep.estimate - p) <= 4 * se

    def test_exact_attached_only_within_limit(self):
        # the 9 pairs at m=2 are swept under limit 9; under limit 8 the row
        # carries no exact value instead of raising
        rep = mc_delta_prob(F3, 2, Fraction(1, 3), trials=50, seed=5, limit=9)
        assert rep.exact == Fraction(7, 9)
        rep = mc_delta_prob(F3, 2, Fraction(1, 3), trials=50, seed=5, limit=8)
        assert rep.exact is None

    def test_impossible_event_estimates_one(self):
        rep = mc_delta_prob(F3, 2, 0.1, trials=300, seed=9)
        assert rep.estimate == 1.0
        assert rep.exact == 1

    def test_deterministic_given_seed(self):
        r1 = mc_delta_prob(F3, 4, 0.2, trials=200, seed=31)
        r2 = mc_delta_prob(F3, 4, 0.2, trials=200, seed=31)
        assert r1 == r2
        r3 = mc_delta_prob(F3, 4, 0.2, trials=200, seed=32)
        assert r3.seed != r1.seed

    def test_zero_code_fraction_tracked(self):
        rep = mc_delta_prob(F3, 2, 0.4, trials=3000, seed=13)
        assert 0.0 < rep.zero_code_fraction < 0.25  # true rate is 1/9


class TestFullRank:
    def test_formula_values(self):
        assert exact_fullrank_prob(1, 3) == 1
        assert exact_fullrank_prob(2, 3) == Fraction(8, 9)
        assert exact_fullrank_prob(4, 3) == Fraction(640, 729)

    def test_census_matches_formula(self):
        assert fullrank_census(F3, 2) == Fraction(8, 9)
        assert fullrank_census(F3, 4) == Fraction(640, 729)
        assert fullrank_census(F3, 7) == exact_fullrank_prob(7, 3) == Fraction(531440, 531441)

    def test_census_matches_formula_q5(self):
        assert fullrank_census(PrimeField(5), 2) == exact_fullrank_prob(2, 5)

    @pytest.mark.parametrize("q, m", ((3, 8), (5, 6)))
    def test_census_matches_formula_large(self, q, m):
        assert fullrank_census(PrimeField(q), m) == exact_fullrank_prob(m, q)

    def test_mc_m2(self):
        rep = mc_fullrank_prob(F3, 2, trials=10_000, seed=21)
        p = 8 / 9
        se = math.sqrt(p * (1 - p) / rep.trials)
        assert abs(rep.estimate - p) <= 3 * se
        assert rep.exact == Fraction(8, 9)

    def test_mc_m4(self):
        rep = mc_fullrank_prob(F3, 4, trials=10_000, seed=22)
        p = 640 / 729
        se = math.sqrt(p * (1 - p) / rep.trials)
        assert abs(rep.estimate - p) <= 3 * se

    def test_estimate_in_unit_interval(self):
        for m in (5, 7):
            rep = mc_fullrank_prob(F3, m, trials=500, seed=23)
            assert 0.0 <= rep.estimate <= 1.0

    def test_empty_trials(self):
        with pytest.raises(EmptyTrialSet):
            mc_fullrank_prob(F3, 2, trials=0, seed=1)


# q = 3 at the co-indexes of the paper's examples and sweeps; q = 5 and 7 at
# small m, where many cosets are small and lower dimensions are common
DIM_SPACES = (
    [(3, m) for m in (1, 2, 4, 5, 7, 11, 13, 31)]
    + [(5, m) for m in (2, 3, 4, 6, 8)]
    + [(7, m) for m in (2, 3, 4, 5, 6, 8)]
)


class TestRestrictedDims:
    @pytest.mark.parametrize("q, m", DIM_SPACES)
    def test_equals_dimension_from_generator_poly(self, q, m):
        field = PrimeField(q)
        pairs = [tuple(sample_pair(field, m, trial_rng(77, i))) for i in range(60)]
        zero_a, zero_a_prime = RingElement.zero(field, 2 * m), RingElement.zero(field, m)
        # keep only the block of one coset, or kill it, in a few pairs
        one = RingElement.one(field, m)
        for e in coset_idempotents(field, m):
            for u in (e, one - e):
                lift = RingElement.from_coeffs(field, 2 * m, u.coeffs)
                pairs += [(a * lift, a_prime * u) for a, a_prime in pairs[:3]]
        pairs += [(zero_a, zero_a_prime)]
        pairs += [(a, zero_a_prime) for a, _ in pairs[:15]]
        pairs += [(zero_a, a_prime) for _, a_prime in pairs[:15]]
        a = np.array([a.coeffs for a, _ in pairs], dtype=np.int64)
        a_prime = np.array([a_prime.coeffs for _, a_prime in pairs], dtype=np.int64)
        assert (a[:, :m] == a[:, m:]).all()  # a = c || c
        expected = [2 * m - int(generator_poly(*pair).degree) for pair in pairs]
        assert coset_support(field, a[:, :m], a_prime)[0].tolist() == expected


def assert_rows_are_sample_pair_draws(field, m, seed, start, trials):
    c, a_prime, sizes = _sample_block(field, m, seed, start, trials)
    rows = min(TRIAL_BLOCK, trials - start)
    assert c.shape == a_prime.shape == (rows, m) and len(sizes) == rows
    assert sizes.tolist() == [1] * len(sizes)
    for k, (x, y) in enumerate(zip(c.tolist(), a_prime.tolist())):
        pair = sample_pair(field, m, trial_rng(seed, start + k))
        expected = (pair.a.coeffs, pair.a_prime.coeffs)
        assert (tuple(x + x), tuple(y)) == expected, (field.p, m, seed, start + k)


class TestTrialBlocks:
    def test_rows_are_sample_pair_draws(self):
        # 2^32 mod 2147483659 = 2147483637, so about half of its draws are
        # rejected and its rows come from trial_rng; 4294967311 > 2^32 takes
        # numpy's 64-bit Lemire step; seeds of 1, 3 and 7 words
        for q, seed, m in product((3, 5, 7, 1009, 2147483659, 4294967311),
                                  (0, 42, 2**64 + 5, 2**200 + 3), (1, 2, 5, 13, 31)):
            if m % q:
                for start in (0, TRIAL_BLOCK):
                    field = PrimeField(q)
                    assert_rows_are_sample_pair_draws(field, m, seed, start, TRIAL_BLOCK + 1)

    @pytest.mark.parametrize("seed", (0, 2**200 + 3))
    def test_rows_at_two_word_trial_indices(self, seed):
        # t = 2^32 and 2^32 + 1 have a two-word spawn key; no sweep runs this far
        assert_rows_are_sample_pair_draws(F3, 5, seed, 2**32 - 2, 2**32 + 2)

    def test_products_of_many_words_split_into_blocks(self):
        # m = 43 draws 65 words a trial, too many for one product of the block
        assert_rows_are_sample_pair_draws(F3, 43, 42, 0, TRIAL_BLOCK)

    def test_hits_match_a_loop_over_sample_pair(self):
        m, seed, trials = 4, 19, TRIAL_BLOCK + 1
        pairs = [sample_pair(F3, m, trial_rng(seed, i)) for i in range(trials)]
        fullrank = sum(2 * m - generator_poly(*pair).degree == m - 1 for pair in pairs)
        rep = mc_fullrank_prob(F3, m, trials, seed)
        assert (rep.trials, rep.hits) == (trials, fullrank)
        codes = [construct_code(*pair) for pair in pairs]
        zero_codes = sum(code.dim == 0 for code in codes)
        assert rep.zero_code_fraction == zero_codes / trials
        deltas = (Fraction(1, 4), Fraction(1, 2))
        for rep, delta in zip(mc_delta_probs(F3, m, deltas, trials, seed), deltas):
            t = weight_threshold(m, delta)
            assert (rep.trials, rep.zero_code_fraction) == (trials, zero_codes / trials)
            assert rep.hits == sum(not code.has_word_of_weight_at_most(t) for code in codes)

    @pytest.mark.parametrize("trials", (None, 5))
    def test_m_not_coprime_raises_before_the_first_stack(self, trials):
        # the samplers no longer go through sample_pair, which checks it too
        with pytest.raises(NotCoprime):
            _pair_source(F3, 3, trials=trials)

    def test_m1_draws_only_the_zero_code(self):
        trials = TRIAL_BLOCK + 1
        rep = mc_fullrank_prob(F3, 1, trials, 3)
        assert (rep.hits, rep.zero_code_fraction) == (trials, 1.0)
        (rep,) = mc_delta_probs(F3, 1, ["0.5"], trials, 3)
        assert (rep.hits, rep.zero_code_fraction) == (trials, 1.0)


class TestIdealCounts:
    def test_m4(self):
        assert count_ideals_by_dim(4, 3) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_m5(self):
        assert count_ideals_by_dim(5, 3) == {0: 1, 4: 1}
        assert 1 <= 5 ** (4 / 4)

    def test_no_dimension_below_minimum(self):
        for q in (3, 5):
            for m in range(2, 31):
                if math.gcd(m, q) != 1:
                    continue
                ell = min_factor_degree(m, q)
                for d, count in count_ideals_by_dim(m, q).items():
                    if d == 0:
                        assert count == 1
                        continue
                    assert d >= ell
                    # count <= m^(d/ell), compared exactly in integers
                    assert count**ell <= m**d

    def test_total_is_number_of_factor_subsets(self):
        for q, m in ((3, 8), (3, 13), (5, 12)):
            h = len(cyclotomic_cosets(m, q).nonzero_sizes())
            assert sum(count_ideals_by_dim(m, q).values()) == 2**h


class TestSphereCount:
    def test_weight_zero(self):
        exact, bound = sphere_count_check(j_plus_generator(2), 0)
        assert exact == 1
        assert bound == pytest.approx(1.0)

    def test_full_ball_is_whole_ideal(self):
        b = j_plus_generator(2)
        exact, _ = sphere_count_check(b, 4)
        assert exact == 3 ** ideal_dim(b)

    def test_restricted_generator_weight_two(self):
        from qc15.bounds import qary_entropy

        exact, bound = sphere_count_check(j_plus_generator(2), 2)
        assert exact == 1  # both nonzero elements have weight 4
        assert bound == pytest.approx(3 ** qary_entropy(3, 0.5), rel=1e-12)
        assert exact <= bound

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_count_check(j_plus_generator(2), 5)

    def test_inequality_all_ideals_of_r4_and_r8(self):
        # ideals of R_n dedupe as gcd(lift(b), X^n - 1) over every b
        for n in (4, 8):
            gens: dict = {}
            target = Poly.x_pow_minus_one(F3, n)
            for idx in range(3**n):
                b = RingElement(F3, n, tuple((idx // 3**j) % 3 for j in range(n)))
                g = b.lift().gcd(target)
                gens.setdefault(g.coeffs, b)
            assert len(gens) == 2 ** len(cyclotomic_cosets(n, 3).cosets)
            for b in gens.values():
                for w in range(0, n + 1):
                    exact, bound = sphere_count_check(b, w)
                    if w / n <= 1 - Fraction(1, 3):
                        assert exact <= bound + 1e-9


# Each enumerates 27 words: the codewords of a dim-3 code at q = 3, m = 2, or
# the elements of <b> for b = j_plus_generator(4) in R_8, of which <c> for
# b = c || c is a copy (exact_low_weight_fraction enumerates <c> alone).
# min_distance on the same dim-3 code enumerates no word: its limit counts the
# 3 candidate messages of the scan plan of cap U - 1 = 1 (plan (1, -1)).
DIM3_CODE = (RingElement(F3, 4, (2, 1, 0, 0)), RingElement(F3, 2, (2, 1)))
WORD_ENUMERATIONS = {
    "codewords": (lambda limit: construct_code(*DIM3_CODE).codewords(limit), 27, "words"),
    "min_distance": (lambda limit: construct_code(*DIM3_CODE).min_distance(limit),
                     3, "candidate messages"),
    "ideal_elements": (lambda limit: ideal_elements(j_plus_generator(4), limit), 27, "words"),
    "exact_low_weight_fraction": (lambda limit: exact_low_weight_fraction(
        j_plus_generator(4), "0.5", limit), 27, "words"),
    "sphere_count_check": (
        lambda limit: sphere_count_check(j_plus_generator(4), 8, limit), 27, "words"),
}


@pytest.mark.parametrize("name", sorted(WORD_ENUMERATIONS))
def test_word_limit_is_the_number_of_words(name):
    enumerate_words, count, what = WORD_ENUMERATIONS[name]
    assert 3 ** ideal_dim(j_plus_generator(4)) == 27
    assert construct_code(*DIM3_CODE).dim == 3
    enumerate_words(count)
    with pytest.raises(EnumerationTooLarge, match=f"^{count} {what} exceed the limit {count - 1}$"):
        enumerate_words(count - 1)


def test_report_csv_row_roundtrip():
    rep = exact_delta_leq_prob(F3, 2, 0.34)
    row = rep.csv_row()
    assert row[0] == "3" and row[1] == "2"
    assert float(row[6]) == rep.estimate  # estimate parses back exactly
    assert row[3] == "exact"
