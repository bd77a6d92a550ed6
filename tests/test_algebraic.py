"""Tests for the exact-arithmetic layer: integer polynomials, algebraic
numbers, Mahler measure, the small-value search, and overlap detection."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bconv.algebraic import (
    _top_candidates,
    _word_states,
    AlgebraicNumber,
    approximate_parameters,
    count_roots_in_disk,
    exact_overlap_depth,
    IntPolynomial,
    OverlapReport,
    mahler_measure,
    min_value_poly_search,
    reduce_mod_minpoly,
)
from bconv.errors import BudgetExceededError
from bconv.selfaffine import SystemSpec, rw_entropy_upper

GOLDEN = 0.6180339887498949
GOLDEN_MINPOLY = IntPolynomial((-1, 1, 1))  # x^2 + x - 1


class TestIntPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = IntPolynomial((1, 2, 0, 0))
        assert p.coeffs == (1, 2)
        assert p.degree == 1
        assert p.leading == 2

    def test_zero_polynomial(self):
        z = IntPolynomial((0, 0))
        assert z.is_zero()
        assert z.degree == -1
        assert z.coeffs == ()
        with pytest.raises(ValueError, match="leading"):
            z.leading

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError, match="integers"):
            IntPolynomial((1.5, 2))
        # integral floats are fine
        assert IntPolynomial((1.0, 2.0)).coeffs == (1, 2)

    def test_call_float_and_fraction(self):
        p = IntPolynomial((-1, 1, 1))
        assert p(0.5) == -0.25
        assert p(Fraction(1, 2)) == Fraction(-1, 4)
        assert isinstance(p(Fraction(1, 2)), Fraction)

    def test_content_and_primitive(self):
        p = IntPolynomial((2, -4, 6))
        assert p.content() == 2
        assert p.primitive().coeffs == (1, -2, 3)
        # negative leading flips sign
        q = IntPolynomial((2, 0, -4))
        assert q.primitive().coeffs == (-1, 0, 2)
        assert IntPolynomial(()).content() == 0

    def test_mul(self):
        p = IntPolynomial((1, 1))  # 1 + x
        q = IntPolynomial((-1, 1))  # -1 + x
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p * IntPolynomial(())).is_zero()

    def test_derivative(self):
        p = IntPolynomial((7, -1, 0, 2))  # 7 - x + 2x^3
        assert p.derivative().coeffs == (-1, 0, 6)
        assert IntPolynomial((3,)).derivative().is_zero()

    def test_neg(self):
        assert (-IntPolynomial((1, -2))).coeffs == (-1, 2)

    def test_str(self):
        assert str(IntPolynomial((-1, 1, 1))) == "-1 + 1*x + 1*x^2"
        assert str(IntPolynomial(())) == "0"
        assert str(IntPolynomial((0, 3))) == "3*x"

    def test_bounded_by(self):
        p = IntPolynomial((1, -2, 0, 1))
        assert p.bounded_by(4, 2)
        assert not p.bounded_by(3, 2)  # degree 3 not < 3
        assert not p.bounded_by(4, 1)  # |-2| > 1
        assert not IntPolynomial(()).bounded_by(4, 2)


class TestReduceModMinpoly:
    def test_golden_square(self):
        # x^2 = 1 - x modulo x^2 + x - 1
        assert reduce_mod_minpoly((0, 0, 1), GOLDEN_MINPOLY) == (1, -1)

    def test_golden_cube(self):
        # x^3 = x - x^2 = 2x - 1
        assert reduce_mod_minpoly((0, 0, 0, 1), GOLDEN_MINPOLY) == (-1, 2)

    def test_low_degree_passthrough(self):
        assert reduce_mod_minpoly((5,), GOLDEN_MINPOLY) == (5, 0)
        assert reduce_mod_minpoly((), GOLDEN_MINPOLY) == (0, 0)

    def test_linear_minpoly_gives_rational_value(self):
        # modulo 3x - 1 every polynomial reduces to its value at 1/3
        v = reduce_mod_minpoly((0, 1), IntPolynomial((-1, 3)))
        assert v == (Fraction(1, 3),)
        w = reduce_mod_minpoly((1, 0, 9), IntPolynomial((-1, 3)))
        assert w == (2,)

    def test_non_monic_uses_fractions(self):
        # x^2 = 1/2 modulo 2x^2 - 1
        v = reduce_mod_minpoly((0, 0, 1), IntPolynomial((-1, 0, 2)))
        assert v == (Fraction(1, 2), 0)

    def test_colliding_words_reduce_equally(self):
        # digit words (1,-1,-1) and (-1,1,1) describe the same point at the
        # golden parameter; both difference polynomials reduce to zero
        a = reduce_mod_minpoly((1, -1, -1), GOLDEN_MINPOLY)
        b = reduce_mod_minpoly((-1, 1, 1), GOLDEN_MINPOLY)
        assert a == b == (0, 0)

    def test_accepts_algebraic_number(self):
        g = AlgebraicNumber(GOLDEN_MINPOLY, Fraction(0), Fraction(1))
        assert reduce_mod_minpoly((0, 0, 1), g) == (1, -1)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree >= 1"):
            reduce_mod_minpoly((1, 1), IntPolynomial((3,)))


class TestAlgebraicNumber:
    def test_golden_to_float(self):
        g = AlgebraicNumber(GOLDEN_MINPOLY, Fraction(0), Fraction(1))
        assert abs(g.to_float() - GOLDEN) < 1e-15
        assert g.degree == 2

    def test_refined_brackets_root(self):
        g = AlgebraicNumber(GOLDEN_MINPOLY, Fraction(0), Fraction(1))
        lo, hi = g.refined(Fraction(1, 2**40))
        assert hi - lo <= Fraction(1, 2**40)
        assert lo < Fraction(GOLDEN) < hi

    def test_rational_root(self):
        a = AlgebraicNumber(IntPolynomial((-1, 2)), Fraction(0), Fraction(1))
        assert a.to_float() == 0.5

    def test_reducible_minpoly_rejected(self):
        with pytest.raises(ValueError, match="irreducible"):
            AlgebraicNumber(IntPolynomial((-1, 0, 1)), Fraction(0), Fraction(2))

    def test_imprimitive_minpoly_rejected(self):
        with pytest.raises(ValueError, match="primitive"):
            AlgebraicNumber(IntPolynomial((-2, 2, 2)), Fraction(0), Fraction(1))

    def test_negative_leading_rejected(self):
        with pytest.raises(ValueError, match="positive leading"):
            AlgebraicNumber(IntPolynomial((1, -1)), Fraction(0), Fraction(2))

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError, match="sign change"):
            AlgebraicNumber(GOLDEN_MINPOLY, Fraction(2), Fraction(3))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AlgebraicNumber(GOLDEN_MINPOLY, Fraction(1), Fraction(0))

    def test_multi_root_interval_rejected(self):
        # x^3 - 3x - 1 has three real roots; (-2, 2) holds all of them but
        # still shows a sign change at the endpoints
        p = IntPolynomial((-1, -3, 0, 1))
        with pytest.raises(ValueError, match="isolate"):
            AlgebraicNumber(p, Fraction(-2), Fraction(2))

    def test_from_root_near_factors_out_minpoly(self):
        # 2x - 2x^2 - 2x^3 = -2 x (x^2 + x - 1); near 0.6 the golden factor wins
        got = AlgebraicNumber.from_root_near(IntPolynomial((0, 2, -2, -2)), 0.6)
        assert got.minpoly.coeffs == (-1, 1, 1)
        assert abs(got.to_float() - GOLDEN) < 1e-15

    def test_from_root_near_picks_nearest(self):
        p = IntPolynomial((0, 2, -2, -2))
        assert AlgebraicNumber.from_root_near(p, -1.5).to_float() == pytest.approx(
            -1.618033988749895, abs=1e-12
        )
        near_zero = AlgebraicNumber.from_root_near(p, 0.1)
        assert near_zero.minpoly.coeffs == (0, 1)
        assert near_zero.to_float() == 0.0

    def test_from_root_near_no_real_roots(self):
        with pytest.raises(ValueError, match="no real roots"):
            AlgebraicNumber.from_root_near(IntPolynomial((1, 0, 1)), 0.5)

    def test_from_root_near_degenerate_inputs(self):
        with pytest.raises(ValueError, match="degree >= 1"):
            AlgebraicNumber.from_root_near(IntPolynomial((3,)), 0.5)


class TestMahlerMeasure:
    def test_golden_companion(self):
        # x^2 - x - 1: roots phi and -1/phi
        assert mahler_measure((-1, -1, 1)) == pytest.approx(1.618033988749895, abs=1e-9)

    def test_linear_non_monic(self):
        assert mahler_measure((-1, 2)) == pytest.approx(2.0, abs=1e-9)

    def test_lehmer_polynomial(self):
        lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
        assert mahler_measure(lehmer) == pytest.approx(1.176280818259917, abs=1e-9)

    def test_cyclotomic_is_one(self):
        assert mahler_measure((1, 1, 1)) == pytest.approx(1.0, abs=1e-9)
        assert mahler_measure((0, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_constants(self):
        assert mahler_measure((5,)) == 5.0
        assert mahler_measure((-3,)) == 3.0

    def test_scaled_golden(self):
        # -2(x^2 + x - 1): measure 2 * phi
        assert mahler_measure((2, -2, -2)) == pytest.approx(2 * 1.618033988749895, abs=1e-8)

    def test_multiplicative(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = IntPolynomial(tuple(rng.integers(-3, 4, rng.integers(2, 5))))
            b = IntPolynomial(tuple(rng.integers(-3, 4, rng.integers(2, 5))))
            if a.is_zero() or b.is_zero():
                continue
            assert mahler_measure(a * b) == pytest.approx(
                mahler_measure(a) * mahler_measure(b), rel=1e-8
            )

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            mahler_measure(())


class TestCountRootsInDisk:
    def test_golden_companion_counts(self):
        p = (-1, -1, 1)  # roots 1.618..., -0.618...
        assert count_roots_in_disk(p, 1.0) == 1
        assert count_roots_in_disk(p, 2.0) == 2

    def test_radius_on_root_modulus_rejected(self):
        with pytest.raises(ValueError, match="perturb rho"):
            count_roots_in_disk((-1, -1, 1), 1.618033988749895)

    def test_unit_circle_ambiguity(self):
        with pytest.raises(ValueError, match="perturb rho"):
            count_roots_in_disk((1, 1, 1), 1.0)
        assert count_roots_in_disk((1, 1, 1), 1.5) == 2

    def test_zero_roots_ignored(self):
        p = (0, 0, -2, 1)  # x^2 (x - 2)
        assert count_roots_in_disk(p, 1.0) == 0
        assert count_roots_in_disk(p, 3.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            count_roots_in_disk((), 1.0)
        with pytest.raises(ValueError, match="positive"):
            count_roots_in_disk((1, 1), 0.0)
        assert count_roots_in_disk((7,), 1.0) == 0


class TestMinValuePolySearch:
    def test_linear_example(self):
        res = min_value_poly_search(0.7, 2, (-1, 0, 1))
        assert res.poly.coeffs == (1, -1)
        assert res.value == 0.30000000000000004
        assert res.abs_value == res.value

    def test_golden_exact_zero(self):
        res = min_value_poly_search(GOLDEN, 3, (-2, 0, 2))
        assert res.poly.coeffs == (2, -2, -2)
        assert res.value == 0.0

    def test_golden_degree4_tiebreak(self):
        # at n = 4 several multiples of the golden relation hit 0; the
        # descending-degree tie rule picks x-times-the-relation
        res = min_value_poly_search(GOLDEN, 4, (-2, 0, 2))
        assert res.poly.coeffs == (0, 2, -2, -2)
        assert res.value == 0.0

    def test_tiebreak_at_half(self):
        # |P(1/2)| = 1/2 four ways; smallest descending-degree vector is -x
        for strategy in ("exhaustive", "meet-in-middle", "branch-and-bound"):
            res = min_value_poly_search(0.5, 2, (-1, 0, 1), strategy=strategy)
            assert res.poly.coeffs == (0, -1), strategy
            assert res.value == -0.5
            assert res.strategy == strategy

    @pytest.mark.parametrize("n", range(1, 13))
    def test_tiebreak_at_half_all_strategies(self, n):
        # |P(1/2)| >= 2^-(n-1) with many ties; the tie rule picks the vector
        # with the most -1 entries from the top: 1 - x - ... - x^(n-1)
        expected = {1: (-1,), 2: (0, -1)}.get(n, (1,) + (-1,) * (n - 1))
        for strategy in ("exhaustive", "meet-in-middle", "branch-and-bound"):
            res = min_value_poly_search(0.5, n, (-1, 0, 1), strategy=strategy)
            assert res.poly.coeffs == expected, (n, strategy)
            assert abs(res.value) == 2.0 ** -(n - 1)

    def test_overflow_refused(self):
        # every strategy refuses before any float arithmetic can overflow
        for xi, n in ((1e200, 4), (-1e300, 5)):
            for strategy in ("exhaustive", "meet-in-middle", "branch-and-bound"):
                with pytest.raises(ValueError, match="overflows"):
                    min_value_poly_search(xi, n, (-1, 0, 1), strategy=strategy)

    def test_zero_poly_excluded(self):
        res = min_value_poly_search(0.7, 3, (0, 1))
        assert res.poly.coeffs == (0, 0, 1)
        assert res.value == pytest.approx(0.49, abs=1e-15)

    def test_strategies_agree_on_random_fixtures(self):
        rng = np.random.default_rng(77)
        sets = [(-1, 0, 1), (-2, 0, 2), (-1, 0, 1, 2), (-3, 0, 3)]
        for i in range(15):
            xi = float(rng.uniform(0.05, 0.95))
            n = int(rng.integers(2, 11))
            cs = sets[i % len(sets)]
            results = [
                min_value_poly_search(xi, n, cs, strategy=s)
                for s in ("exhaustive", "meet-in-middle", "branch-and-bound")
            ]
            assert len({r.value for r in results}) == 1, (xi, n, cs)
            assert len({r.poly for r in results}) == 1, (xi, n, cs)

    def test_coeff_set_deduplicated_and_order_free(self):
        a = min_value_poly_search(0.7, 3, (1, 0, -1, 1))
        b = min_value_poly_search(0.7, 3, (-1, 0, 1))
        assert a == b

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError, match="budget"):
            min_value_poly_search(0.7, 10, (-1, 0, 1), strategy="exhaustive", budget=100)
        with pytest.raises(BudgetExceededError, match="budget"):
            min_value_poly_search(0.7, 10, (-1, 0, 1), strategy="meet-in-middle", budget=10)

    def test_validation(self):
        with pytest.raises(ValueError, match="contain 0"):
            min_value_poly_search(0.7, 3, (1, 2))
        with pytest.raises(ValueError, match="nonzero"):
            min_value_poly_search(0.7, 3, (0,))
        with pytest.raises(ValueError, match=">= 1"):
            min_value_poly_search(0.7, 0, (-1, 0, 1))
        with pytest.raises(ValueError, match="finite"):
            min_value_poly_search(float("inf"), 3, (-1, 0, 1))
        with pytest.raises(ValueError, match="strategy"):
            min_value_poly_search(0.7, 3, (-1, 0, 1), strategy="oracle")


def _brute_force_ranking(xi, n, coeffs):
    """Every nonzero family member as (|value|, digits), sorted by |value| and
    then by the descending-degree tuple; values use the split evaluation."""
    powers = [1.0]
    for _ in range(1, n):
        powers.append(powers[-1] * xi)
    h = n // 2
    family = []
    for d in itertools.product(coeffs, repeat=n):
        if any(d):
            lo = 0.0
            for k in range(h):
                lo = d[k] * powers[k] + lo
            hi = 0.0
            for k in range(h, n):
                hi = d[k] * powers[k] + hi
            family.append((abs(lo + hi), d[::-1], d))
    family.sort()
    return [(a, d) for a, _, d in family]


def _ranking_fixtures():
    fixtures = [
        (0.5, 1, (-1, 0, 1)),
        (0.5, 2, (-1, 0, 1)),
        (0.5, 7, (-1, 0, 1)),
        (0.5, 5, (-2, -1, 0, 1, 2)),
        (0.25, 4, (-2, 0, 2)),
        (0.25, 7, (-1, 0, 1, 2)),
        (GOLDEN, 6, (-2, 0, 2)),
        (GOLDEN, 8, (-2, 0, 2)),
        (-0.5, 6, (0, 1)),
    ]
    rng = np.random.default_rng(404)
    sets = [(-1, 0, 1), (-2, 0, 2), (-1, 0, 1, 2), (0, 3)]
    for i in range(8):
        xi = float(rng.uniform(-0.95, 0.95))
        fixtures.append((xi, int(rng.integers(1, 8)), sets[i % len(sets)]))
    return fixtures


class TestTopCandidates:
    """The sorted-halves kernel against a brute-force ranking of the family."""

    @pytest.mark.parametrize("xi, n, coeffs", _ranking_fixtures())
    def test_matches_brute_force(self, xi, n, coeffs):
        ranking = _brute_force_ranking(xi, n, coeffs)
        for k in (1, 2, 7, 32):
            assert _top_candidates(xi, n, coeffs, k) == ranking[:k], k

    def test_tie_group_cut_by_tie_rule(self):
        # the 7th and 8th best share |P(1/4)| = 5/32; the tie rule keeps the -2 one
        top = _top_candidates(0.25, 4, (-2, 0, 2), 7)
        assert top[-1] == (0.15625, (0, 0, -2, -2))

    def test_budget_counts_half_table_entries(self):
        assert len(_top_candidates(0.7, 4, (-1, 0, 1), 3, budget=9)) == 3
        with pytest.raises(BudgetExceededError, match="budget"):
            _top_candidates(0.7, 4, (-1, 0, 1), 3, budget=8)
        with pytest.raises(BudgetExceededError, match="budget"):
            _top_candidates(GOLDEN, 16, (-2, 0, 2), 32, budget=10)


class TestApproximateParameters:
    def test_golden_recovery(self):
        rep = approximate_parameters((GOLDEN,), 3, ((-2, 0, 2),))
        ax = rep.axes[0]
        assert ax.status == "ok"
        assert ax.poly.coeffs == (2, -2, -2)
        assert ax.search_value == 0.0
        assert ax.eta is not None and ax.eta.minpoly.coeffs == (-1, 1, 1)
        assert ax.eta_float == GOLDEN
        assert ax.distance == 0.0
        assert rep.eta == (GOLDEN,)
        assert rep.in_omega
        assert rep.max_distance == 0.0

    def test_no_root_in_unit_interval(self):
        # every candidate's real roots sit at 0, 1, or -1; none in (0, 1)
        rep = approximate_parameters((0.7,), 2, ((-1, 0, 1),))
        ax = rep.axes[0]
        assert ax.status == "no-root"
        assert ax.eta is None
        assert ax.eta_float == 1.0  # nearest real root seen anywhere
        assert ax.distance == pytest.approx(0.3, abs=1e-12)
        assert rep.eta is None
        assert not rep.in_omega

    def test_golden_recovery_at_degree_16(self):
        # the candidate ranking spans 3^16 polynomials but tables of 3^8 entries
        rep = approximate_parameters((GOLDEN,), 16, ((-2, 0, 2),))
        ax = rep.axes[0]
        assert ax.status == "ok"
        assert ax.eta is not None and ax.eta.minpoly.coeffs == (-1, 1, 1)

    def test_axis_count_validation(self):
        with pytest.raises(ValueError, match="per axis"):
            approximate_parameters((0.7, 0.3), 3, ((-1, 0, 1),))

    def test_d2_in_omega_requires_decreasing(self):
        rep = approximate_parameters(
            (GOLDEN, 1.0 / 3.0), 4, ((-2, 0, 2), (-1, 0, 1))
        )
        if rep.eta is not None:
            assert rep.in_omega == (
                all(0 < e < 1 for e in rep.eta) and rep.eta[0] > rep.eta[1]
            )


class TestExactOverlapDepth:
    def test_golden_depth_three(self):
        s = SystemSpec((GOLDEN,), ((1,), (-1,)), (0.5, 0.5), ((-1, 1, 1),))
        rep = exact_overlap_depth(s, 5)
        assert rep.per_axis == (3,)
        assert rep.joint == 3
        assert rep.n_max == 5

    def test_third_never_collides(self):
        s = SystemSpec((1 / 3,), ((1,), (-1,)), (0.5, 0.5), ((-1, 3),))
        rep = exact_overlap_depth(s, 6)
        assert rep.per_axis == (None,)
        assert rep.joint is None

    def test_mixed_axes(self):
        s = SystemSpec(
            (GOLDEN, 1 / 3),
            ((1, 1), (-1, -1)),
            (0.5, 0.5),
            ((-1, 1, 1), (-1, 3)),
        )
        rep = exact_overlap_depth(s, 6)
        assert rep.per_axis == (3, None)
        assert rep.joint is None

    def test_requires_minpolys(self):
        s = SystemSpec((0.5,), ((1,), (-1,)), (0.5, 0.5))
        with pytest.raises(ValueError, match="minimal polynomials"):
            exact_overlap_depth(s, 3)

    def test_budget_and_validation(self):
        s = SystemSpec((GOLDEN,), ((1,), (-1,)), (0.5, 0.5), ((-1, 1, 1),))
        # the scan stops at the first joint collision, long before 2^40 words
        assert exact_overlap_depth(s, 40, budget=1000).joint == 3
        # third never collides, so its rows double until depth 10 passes the
        # budget; n_max stays under depth 40, where its entries reach 2^62
        third = SystemSpec((1 / 3,), ((1,), (-1,)), (0.5, 0.5), ((-1, 3),))
        with pytest.raises(BudgetExceededError, match="depth 10 builds 1024"):
            exact_overlap_depth(third, 39, budget=1000)
        # depth 8 of 1000x - 1 could carry word-state entries past 2^62
        wide = SystemSpec((0.001,), ((0,), (1,)), (0.5, 0.5), ((-1, 1000),))
        assert exact_overlap_depth(wide, 7) == OverlapReport((None,), None, 7)
        with pytest.raises(BudgetExceededError, match="2\\^62"):
            exact_overlap_depth(wide, 8)
        with pytest.raises(ValueError, match="n_max"):
            exact_overlap_depth(s, 0)


def _seeded_system(lam, minpolys, k, seed):
    """k distinct translation rows in [-4, 4]^d and random probabilities."""
    rng = np.random.default_rng(seed)
    pool = list(itertools.product(range(-4, 5), repeat=len(lam)))
    rows = [pool[i] for i in rng.choice(len(pool), k, replace=False)]
    w = rng.integers(1, 10, k).astype(float)
    return SystemSpec(lam, rows, tuple(w / w.sum()), minpolys)


def _brute_force_states(spec, n):
    """{joint reduced key: exact mass} over every length-n word, one
    reduce_mod_minpoly per word and axis; digit k carries lambda^k."""
    out = {}
    for word in itertools.product(range(spec.n_maps), repeat=n):
        key = tuple(
            reduce_mod_minpoly([spec.translations[u][j] for u in word], mp)
            for j, mp in enumerate(spec.minpolys)
        )
        mass = math.prod((Fraction(spec.probs[u]) for u in word), start=Fraction(1))
        out[key] = out.get(key, 0) + mass
    return out


def _shift_reduce(vec, minpoly):
    """Reduced vector of x * v(x) given the reduced vector of v(x)."""
    m = minpoly.degree
    top = vec[m - 1]
    out = [Fraction(0)] + list(vec[: m - 1])
    if top:
        for i in range(m):
            out[i] -= top * Fraction(minpoly.coeffs[i], minpoly.leading)
    return tuple(out)


def _reduced_power_table(minpoly, count):
    """Reduced vectors of x^0, ..., x^{count-1} modulo minpoly."""
    table = [tuple([Fraction(1)] + [Fraction(0)] * (minpoly.degree - 1))]
    for _ in range(1, count):
        table.append(_shift_reduce(table[-1], minpoly))
    return table


def _fraction_word_states(spec, n):
    """Depth-by-depth {tuple of per-axis Fraction vectors: probability},
    accumulated per child in a dict over states, then maps in spec order."""
    tables = [_reduced_power_table(p, n) for p in spec.minpolys]
    states = {tuple(tuple([Fraction(0)] * p.degree) for p in spec.minpolys): 1.0}
    for depth in range(n):
        pw = [t[depth] for t in tables]
        nxt = {}
        for state, w in states.items():
            for a, p in zip(spec.translations, spec.probs):
                child = tuple(
                    tuple(s + aj * q for s, q in zip(sj, pj)) for sj, aj, pj in zip(state, a, pw)
                )
                nxt[child] = nxt.get(child, 0.0) + w * p
        states = nxt
        yield states


_WORD_STATE_FIXTURES = [
    ((GOLDEN,), ((-1, 1, 1),), 3, 1, 6, ((3,), 3)),
    ((1 / 3,), ((-1, 3),), 3, 1, 6, ((2,), 2)),
    ((0.75,), ((-3, 4),), 4, 2, 5, ((2,), 2)),
    ((0.75, 1 / 3), ((-3, 4), (-1, 3)), 4, 10, 4, ((3, 1), 3)),
    # axis 1 collides at depth 3, axis 2 and the joint maps never do
    ((GOLDEN, 1 / 3), ((-1, 1, 1), (-1, 3)), 2, 3, 7, ((3, None), None)),
    # negative leading coefficients: 3 - 4x and 1 - 3x
    ((0.75, 1 / 3), ((3, -4), (1, -3)), 4, 10, 4, ((3, 1), 3)),
]


class TestWordStatesOracle:
    """The word-state kernel against brute-force exact enumeration."""

    @pytest.mark.parametrize("lam, minpolys, k, seed, n_max, expected", _WORD_STATE_FIXTURES)
    def test_matches_brute_force(self, lam, minpolys, k, seed, n_max, expected):
        spec = _seeded_system(lam, minpolys, k, seed)
        per_axis = [None] * spec.dim
        joint = None
        for n in range(1, n_max + 1):
            states = _brute_force_states(spec, n)
            for j in range(spec.dim):
                if per_axis[j] is None and len({key[j] for key in states}) < k**n:
                    per_axis[j] = n
            if joint is None and len(states) < k**n:
                joint = n
            rep = rw_entropy_upper(spec, n)
            assert rep.distinct_maps == len(states)
            h = -math.fsum(float(m) * math.log2(float(m)) for m in states.values())
            assert abs(rep.value - h / n) <= 1e-12
        assert (tuple(per_axis), joint) == expected
        assert exact_overlap_depth(spec, n_max) == OverlapReport(tuple(per_axis), joint, n_max)


def _oracle_specs():
    pm1 = ((1,), (-1,))
    tri2d = SystemSpec(
        (GOLDEN, 0.3819660112501051),
        ((0, 0), (1, 0), (0, 1)),
        (1 / 3, 1 / 3, 1 / 3),
        ((-1, 1, 1), (1, -3, 1)),
    )
    out = [
        pytest.param(SystemSpec((GOLDEN,), pm1, (0.5, 0.5), ((-1, 1, 1),)), 19, id="golden"),
        pytest.param(SystemSpec((1 / 3,), pm1, (0.5, 0.5), ((-1, 3),)), 14, id="third"),
        pytest.param(tri2d, 9, id="tri2d"),
        pytest.param(SystemSpec((0.001,), ((0,), (1,)), (0.5, 0.5), ((1, -1000),)), 7, id="lead-1000"),
    ]
    for i, (lam, minpolys, k, seed, n_max, _) in enumerate(_WORD_STATE_FIXTURES):
        out.append(pytest.param(_seeded_system(lam, minpolys, k, seed), n_max, id=f"fixture{i}"))
    return out


class TestIntegerWordStates:
    """The int64 kernel against the Fraction dict kernel, depth by depth:
    rows divided by lead^(depth-1) are the Fraction states in the dict's
    insertion order, and the weights are the same floats."""

    @pytest.mark.parametrize("spec, n", _oracle_specs())
    def test_bit_identical_to_fraction_kernel(self, spec, n):
        leads = [p.leading for p in spec.minpolys]
        edges = np.cumsum([0] + [p.degree for p in spec.minpolys])
        got = _word_states(spec, n, 1 << 24)
        for depth, ((rows, weights), states) in enumerate(zip(got, _fraction_word_states(spec, n)), 1):
            assert rows.dtype == np.int64 and len(rows) == len(weights) == len(states)
            scaled = [
                tuple(
                    tuple(Fraction(x, lead ** (depth - 1)) for x in row[lo:hi])
                    for lead, lo, hi in zip(leads, edges[:-1], edges[1:])
                )
                for row in rows.tolist()
            ]
            assert scaled == list(states), depth
            assert weights.tolist() == list(states.values()), depth
        assert depth == n
