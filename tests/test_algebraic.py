"""Tests for the exact-arithmetic layer: integer polynomials, algebraic
numbers, Mahler measure, the small-value search, and overlap detection."""

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bconv import algebraic, entropy
from bconv.algebraic import (
    _canonical_value,
    _powers,
    _real_roots,
    _rev_key,
    _search_branch_and_bound,
    _smallest,
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
from bconv.errors import BudgetExceededError, UncertifiedError
from bconv.selfaffine import SystemSpec, rw_entropy_upper

GOLDEN = 0.6180339887498949
GOLDEN_MINPOLY = IntPolynomial((-1, 1, 1))  # x^2 + x - 1


def bounded_by(p, n, height):
    """Membership in the search family deg < n, max |coefficient| <= height."""
    return not p.is_zero() and p.degree < n and max(abs(c) for c in p.coeffs) <= height


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
        assert bounded_by(p, 4, 2)
        assert not bounded_by(p, 3, 2)  # degree 3 not < 3
        assert not bounded_by(p, 4, 1)  # |-2| > 1
        assert not bounded_by(IntPolynomial(()), 4, 2)


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

    @pytest.mark.parametrize(
        "coeffs, want",
        [((-1, 10**15), 1e-15), ((-3, 0, 10**24), 1.7320508075688772e-12)],
        ids=["linear-1e-15", "quadratic-sqrt3e-12"],
    )
    def test_small_root_to_float_is_correctly_rounded(self, coeffs, want):
        # a midpoint at absolute width 2^-60 gave 9.99634403031635e-16 and
        # 1.7320507007811958e-12
        a = AlgebraicNumber(IntPolynomial(coeffs), Fraction(0), Fraction(1))
        assert a.to_float() == want

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

    def test_from_root_near_reads_nearest_interval(self):
        # 1 - x - x^3 + x^5 = (x - 1)(x^4 + x^3 - 1); the root 0.819... lies
        # nearer the quartic's unrefined isolating interval than its midpoint
        p = IntPolynomial((1, -1, 0, -1, 0, 1))
        got = AlgebraicNumber.from_root_near(p, 0.8191725133961645)
        assert got.minpoly.coeffs == (-1, 0, 0, 1, 1)
        assert got.to_float() == 0.8191725133961645

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_from_root_near_non_finite_x0_refused(self, x0):
        with pytest.raises(ValueError, match="x0 must be finite"):
            AlgebraicNumber.from_root_near(IntPolynomial((0, 2, -2, -2)), x0)


def _sympy_poly(poly):
    import sympy

    return sympy.Poly(list(reversed(poly.coeffs)), sympy.Symbol("x"))


def _oracle_real_roots(poly):
    """Real roots with multiplicity, sympy real_roots() rounded via 25 digits."""
    return [float(r.evalf(25)) for r in _sympy_poly(poly).real_roots()]


def _sign_polys(count, seed=17):
    """Seeded {-1,0,1} polynomials of degree 3..12 with leading coefficient 1."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.integers(-1, 2, int(rng.integers(3, 13)) + 1).tolist()
        c[-1] = 1
        out.append(IntPolynomial(tuple(c)))
    return out


class TestRealRoots:
    def test_distinct_roots_match_sympy_sweep(self):
        for p in _sign_polys(200):
            roots = _real_roots(p)
            assert [r[0] for r in roots] == sorted(set(_oracle_real_roots(p))), p
            for x, minpoly, lo, hi in roots:
                assert lo < hi and hi - lo <= Fraction(2, 2**60), p
                assert AlgebraicNumber.from_root_near(p, x).to_float() == x, (p, x)
                assert minpoly == minpoly.primitive() and p(x) == pytest.approx(0.0, abs=1e-9)

    def test_to_float_from_wide_intervals_matches_real_roots(self):
        # each root alone in the widest interval between its minpoly's
        # neighbouring roots, scaled down to 10^-15: to_float bisects it to
        # the same correctly rounded float that _real_roots reports
        for p in _sign_polys(30, seed=23):
            for k in (0, 6, 15):
                q = IntPolynomial(tuple(c * 10 ** (k * i) for i, c in enumerate(p.coeffs)))
                roots = _real_roots(q)
                for x, minpoly, lo, hi in roots:
                    xs = [Fraction(r[0]) for r in roots if r[1] == minpoly]
                    i = xs.index(Fraction(x))
                    low = (xs[i - 1] + xs[i]) / 2 if i > 0 else lo - 1
                    high = (xs[i] + xs[i + 1]) / 2 if i + 1 < len(xs) else hi + 1
                    assert AlgebraicNumber(minpoly, low, high).to_float() == x, (q, x)

    def test_rational_root_is_widened_symmetrically(self):
        (x, minpoly, lo, hi), = _real_roots(IntPolynomial((-1, 3)))
        assert minpoly.coeffs == (-1, 3)
        assert (lo + hi) / 2 == Fraction(1, 3)
        assert x == 1 / 3

    @pytest.mark.parametrize(
        "coeffs",
        [(1, -1000, 1), (1, 0, -10**7, 0, 3), (-2, 0, 0, 10**12)],
        ids=["near-1e-3", "near-3e-4", "cube-root"],
    )
    def test_small_roots_are_correctly_rounded(self, coeffs):
        # below 2^-6 a 2^-60 interval's midpoint may round differently from
        # the root, so those intervals are bisected further
        p = IntPolynomial(coeffs)
        roots = _real_roots(p)
        assert [r[0] for r in roots] == sorted(set(_oracle_real_roots(p)))
        assert any(abs(r[0]) < 2**-6 for r in roots)
        for x, minpoly, lo, hi in roots:
            assert AlgebraicNumber(minpoly, lo, hi).to_float() == x

    def test_constant_has_none(self):
        assert _real_roots(IntPolynomial((5,))) == []
        assert _real_roots(IntPolynomial(())) == []

    @pytest.mark.parametrize(
        "factor",
        [IntPolynomial((-1, 1)), IntPolynomial((1, 1)), IntPolynomial((-1, 2)), IntPolynomial((2, 3)),
         IntPolynomial((-3, 0, 5)), IntPolynomial((1, -7, 0, 4))],
        ids=["root-1", "root-minus-1", "half", "minus-two-thirds", "non-monic-quadratic", "non-monic-cubic"],
    )
    def test_interval_counts_match_sympy(self, factor):
        rng = np.random.default_rng(factor.degree * 31 + factor.coeffs[0])
        for p in _sign_polys(8, seed=int(rng.integers(1000))):
            p = p * factor
            roots = _real_roots(p)
            assert len(roots) == len(set(_oracle_real_roots(p))), p
            for _, minpoly, lo, hi in roots:
                assert _sympy_poly(minpoly).count_roots(lo, hi) == 1, (p, minpoly)
            for minpoly, _ in algebraic._factor(p)[1]:
                for _ in range(6):
                    lo, hi = sorted(_random_rational(rng) for _ in range(2))
                    if lo == hi or minpoly(lo) == 0 or minpoly(hi) == 0:
                        continue
                    got = algebraic._count_roots(minpoly, lo, hi)
                    assert got == _sympy_poly(minpoly).count_roots(lo, hi), (minpoly, lo, hi)


def _random_rational(rng):
    """A seeded rational in [-12, 12] with denominator at most 6."""
    return Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 7)))


def _oracle_factor(poly):
    """sympy's factor_list as (content, sorted (coefficients, multiplicity))."""
    content, factors = _sympy_poly(poly).factor_list()
    return int(content), sorted((tuple(int(c) for c in reversed(f.all_coeffs())), m) for f, m in factors)


def _power(p, m):
    out = IntPolynomial((1,))
    for _ in range(m):
        out = out * p
    return out


def _factored(poly):
    content, factors = algebraic._factor(poly)
    return content, sorted((f.coeffs, m) for f, m in factors)


def _family_polys(count, height, seed):
    """Seeded polynomials of degree 3..40, coefficients in [-height, height]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.integers(-height, height + 1, int(rng.integers(3, 41)) + 1).tolist()
        c[-1] = c[-1] or 1
        out.append(IntPolynomial(tuple(c)))
    return out


X = IntPolynomial((0, 1))
PHI3 = IntPolynomial((1, 1, 1))
X4_PLUS_1 = IntPolynomial((1, 0, 0, 0, 1))
SQRT2_SQRT3 = IntPolynomial((1, 0, -10, 0, 1))  # roots +-sqrt(2) +- sqrt(3)


class TestFactor:
    """_factor against sympy's factor_list."""

    @pytest.mark.parametrize("height, seed", [(1, 41), (2, 43)], ids=["sign", "difference-set"])
    def test_family_sweep(self, height, seed):
        for p in _family_polys(20, height, seed):
            assert _factored(p) == _oracle_factor(p), p

    @pytest.mark.parametrize(
        "poly",
        [
            PHI3 * PHI3 * _power(IntPolynomial((-1, 1)), 3) * IntPolynomial((3, 2)),  # repeated factors
            IntPolynomial((-1,) + (0,) * 11 + (1,)),  # x^12 - 1: six cyclotomic factors
            IntPolynomial((-1,) + (0,) * 14 + (1,)),  # x^15 - 1
            IntPolynomial((1,) * 7),  # Phi_7
            IntPolynomial((-1, 2)) * IntPolynomial((1, 0, 3)) * IntPolynomial((5, -1, 0, 7)),  # non-monic
            IntPolynomial((-6,)) * GOLDEN_MINPOLY * IntPolynomial((2, 1)),  # content, negative lead
            _power(X, 3) * IntPolynomial((-2, 0, 1)),  # zero roots
            X4_PLUS_1,  # irreducible, reducible mod every prime
            SQRT2_SQRT3,
            X4_PLUS_1 * SQRT2_SQRT3,
            SQRT2_SQRT3 * SQRT2_SQRT3 * IntPolynomial((-3, 0, 2)),
            IntPolynomial((5,)),
            IntPolynomial((-3,)),
            IntPolynomial(()),
        ],
        ids=[
            "repeated", "x12-1", "x15-1", "phi7", "non-monic", "content-negative-lead",
            "zero-roots", "x4+1", "x4-10x2+1", "two-quartics", "squared-quartic",
            "constant", "negative-constant", "zero",
        ],
    )
    def test_special_inputs(self, poly):
        assert _factored(poly) == _oracle_factor(poly)

    def test_factors_reassemble_the_input(self):
        for p in _family_polys(10, 2, 47):
            content, factors = algebraic._factor(p)
            prod = IntPolynomial((content,))
            for f, m in factors:
                assert f == f.primitive()
                prod = prod * _power(f, m)
            assert prod == p


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

    def test_measure_past_float64_rejected(self):
        with pytest.raises(ValueError, match="float64 range"):
            mahler_measure((1, 10**310))

    def test_rel_tol_below_float_resolution_rejected(self):
        with pytest.raises(ValueError, match="rel_tol"):
            mahler_measure((-1, -1, 1), rel_tol=1e-17)


def _oracle_mahler(coeffs):
    """|lead| * prod max(1, |root|) from mp.polyroots at 100 digits."""
    import mpmath as mp

    c = list(coeffs)
    while c[0] == 0:
        c.pop(0)
    desc = c[::-1]
    with mp.workdps(100):
        init = [mp.mpc(complex(z)) for z in np.roots(desc)]
        roots = mp.polyroots(desc, maxsteps=100, extraprec=100, roots_init=init)
        return abs(c[-1]) * mp.fprod(max(mp.mpf(1), abs(z)) for z in roots)


def _random_polys(count, seed=2024):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.integers(-1, 2, int(rng.integers(10, 61)) + 1).tolist()
        c[-1] = 1
        out.append(IntPolynomial(tuple(c)))
    return out


def _enclosures_taken(monkeypatch, poly, rel_tol=1e-9):
    """mahler_measure(poly) and the number of enclosures it read."""
    taken = []
    inner = algebraic._root_enclosures

    def counting(p):
        for enc in inner(p):
            taken.append(enc)
            yield enc

    monkeypatch.setattr(algebraic, "_root_enclosures", counting)
    return mahler_measure(poly, rel_tol), len(taken)


CYCLOTOMIC_SQUARED = IntPolynomial((1, 1, 1)) * IntPolynomial((1, 1, 1))
# 10^20 (x - 2)^2 - 1: square-free, but its roots 2 +- 1e-10 look double to
# the float estimates, so its disks need Weierstrass steps too
CLOSE_PAIR = IntPolynomial((4 * 10**20 - 1, -4 * 10**20, 10**20))
RANDOM_16 = _random_polys(1, seed=11)[0]  # degree 16
RANDOM_30 = _random_polys(30)


class TestCertifiedMahler:
    """Every value lies within its error_bound of a 100-digit oracle."""

    @staticmethod
    def assert_certified(m, oracle, rel_tol=1e-9):
        value = float(m)
        assert m.method == "inclusion-disks"
        assert abs(value - oracle) <= m.error_bound * value <= rel_tol * value

    @pytest.mark.parametrize(
        "poly", RANDOM_30, ids=[f"{i}-deg{p.degree}" for i, p in enumerate(RANDOM_30)]
    )
    def test_random_family_polynomials(self, poly):
        self.assert_certified(mahler_measure(poly), _oracle_mahler(poly.coeffs))

    @pytest.mark.parametrize(
        "coeffs",
        [
            (0, 0, -1, -1, 1),  # x^2 (x^2 - x - 1): zero roots
            (2, -1, 0, 3),  # non-monic
            (-5, 0, 7, 1, -3),  # non-monic, roots on both sides of the unit circle
            (1,) * 7,  # cyclotomic: the 7th roots of unity but 1
            (1, 0, -1, 0, 1),  # cyclotomic Phi_12
        ],
        ids=["zero-roots", "non-monic-cubic", "non-monic-quartic", "phi7", "phi12"],
    )
    def test_special_inputs(self, coeffs):
        self.assert_certified(mahler_measure(coeffs), _oracle_mahler(coeffs))

    def test_tight_tolerance(self):
        lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
        m = mahler_measure(lehmer, rel_tol=1e-15)
        self.assert_certified(m, _oracle_mahler(lehmer), rel_tol=1e-15)

    def test_simple_roots_certified_from_float_estimates(self, monkeypatch):
        lehmer = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
        assert _enclosures_taken(monkeypatch, lehmer)[1] == 1

    @pytest.mark.parametrize(
        "square, root_poly",
        [(CYCLOTOMIC_SQUARED, IntPolynomial((1, 1, 1))), (RANDOM_16 * RANDOM_16, RANDOM_16)],
        ids=["cyclotomic-squared", "random-squared"],
    )
    def test_repeated_roots_take_weierstrass_steps(self, square, root_poly):
        # float estimates of a double root are off by about 1e-8, so the
        # first disks are too wide; exact Weierstrass steps narrow them
        oracle = _oracle_mahler(root_poly.coeffs) ** 2
        for taken, bracket in enumerate(algebraic._measure_brackets(square), start=1):
            m = algebraic._certified(*bracket, 1e-9)
            if m is not None:
                break
        assert taken > 1
        self.assert_certified(m, oracle)
        self.assert_certified(mahler_measure(square), oracle)

    def test_close_roots_take_weierstrass_steps(self, monkeypatch):
        m, taken = _enclosures_taken(monkeypatch, CLOSE_PAIR)
        assert taken > 1
        self.assert_certified(m, _oracle_mahler(CLOSE_PAIR.coeffs))

    @pytest.mark.parametrize(
        "coeffs, value",
        [
            ((1, 12, 66, 220, 495, 792, 924, 792, 495, 220, 66, 12, 1), 1.0),  # (1 + x)^12
            ((0, 0, 0, 2, -6, 6, -2), 2.0),  # -2 x^3 (x - 1)^3
            ((-4, 12, -9, 2), 8.0),  # (x - 2)^2 (2x - 1)
        ],
        ids=["one-plus-x-12", "content-and-zeros", "double-root-non-monic"],
    )
    def test_repeated_roots_multiply_square_free_parts(self, coeffs, value):
        # exact values: mp.polyroots does not converge on repeated roots
        self.assert_certified(mahler_measure(coeffs), value)

    def test_refuses_when_no_enclosure_fits(self, monkeypatch):
        monkeypatch.setattr(algebraic, "_WEIERSTRASS_STEPS", 1)
        with pytest.raises(ArithmeticError, match="relative width"):
            mahler_measure(CLOSE_PAIR)
        with pytest.raises(ArithmeticError, match="decided the count"):
            count_roots_in_disk(CYCLOTOMIC_SQUARED, 1.0 + 1e-8)

    def test_refusal_is_uncertified_error(self, monkeypatch):
        monkeypatch.setattr(algebraic, "_WEIERSTRASS_STEPS", 1)
        with pytest.raises(UncertifiedError):
            mahler_measure(CLOSE_PAIR)
        with pytest.raises(UncertifiedError):
            count_roots_in_disk(CYCLOTOMIC_SQUARED, 1.0 + 1e-8)
        with pytest.raises(UncertifiedError):
            mahler_measure(CYCLOTOMIC_SQUARED * CLOSE_PAIR)


class TestRootEnclosures:
    def test_disks_join_only_when_they_may_overlap(self):
        # centers 0 and 3 on the real axis, moduli ranges widened by the radii
        assert algebraic._disk_clusters([(0, 0), (3, 0)], [2, 1]) == [(2, 0, 4)]
        assert sorted(algebraic._disk_clusters([(0, 0), (3, 0)], [1, 1])) == [(1, 0, 1), (1, 2, 4)]
        assert algebraic._disk_clusters([(-3, -4)], [0]) == [(1, 5, 5)]

    @pytest.mark.parametrize(
        "poly, moduli",
        [
            (IntPolynomial((-4, 12, -9, 2)), [0.5, 2.0, 2.0]),
            (CYCLOTOMIC_SQUARED, [1.0] * 4),
            (IntPolynomial((0, 0, -1, -1, 1)), [(5**0.5 - 1) / 2, (5**0.5 + 1) / 2]),
        ],
        ids=["double-root", "cyclotomic-squared", "zero-roots"],
    )
    def test_clusters_hold_the_roots(self, poly, moduli):
        for _, (bits, clusters) in zip(range(8), algebraic._root_enclosures(poly)):
            assert sum(m for m, _, _ in clusters) == len(moduli)
            for m, lo, hi in clusters:
                inside = [r for r in moduli if lo / 2**bits - 1e-15 <= r <= hi / 2**bits + 1e-15]
                assert len(inside) >= m


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

    def test_double_root_on_radius_rejected(self):
        with pytest.raises(ValueError, match="perturb rho"):
            count_roots_in_disk((4, -4, 1), 2.0)  # (x - 2)^2
        with pytest.raises(ValueError, match="perturb rho"):
            count_roots_in_disk(CYCLOTOMIC_SQUARED, 1.0)

    def test_coefficients_past_float64(self):
        # np.roots cannot take 10^400; the disks start from fixed points
        assert count_roots_in_disk((1, 10**400), 1.0) == 1

    def test_counts_with_multiplicity(self):
        p = (-4, 12, -9, 2)  # (x - 2)^2 (2x - 1)
        assert count_roots_in_disk(p, 1.0) == 1
        assert count_roots_in_disk(p, 3.0) == 3
        assert count_roots_in_disk(CYCLOTOMIC_SQUARED, 1.5) == 4
        assert count_roots_in_disk(CYCLOTOMIC_SQUARED, 0.5) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            count_roots_in_disk((), 1.0)
        with pytest.raises(ValueError, match="positive"):
            count_roots_in_disk((1, 1), 0.0)
        with pytest.raises(ValueError, match="tol"):
            count_roots_in_disk((1, 1), 0.5, tol=0.0)
        assert count_roots_in_disk((7,), 1.0) == 0


class TestMinValuePolySearch:
    def test_linear_example(self):
        res = min_value_poly_search(0.7, 2, (-1, 0, 1))
        assert res.poly.coeffs == (1, -1)
        assert res.value == 0.30000000000000004

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


def _recursive_branch_and_bound(
    xi: float, n: int, coeffs: tuple[int, ...]
) -> tuple[tuple[int, ...], float]:
    """The per-node recursive walk the numpy block walk replaced, kept
    verbatim as its oracle."""
    powers = _powers(xi, n)
    h = n // 2
    cmax = max(abs(c) for c in coeffs)
    # rem[k]: loosest possible |contribution| of positions 0..k.
    rem = [0.0] * n
    acc = 0.0
    for k in range(n):
        acc += cmax * abs(powers[k])
        rem[k] = acc
    slack = 1e-12 * (1.0 + acc)

    best_abs = math.inf
    best_digits: tuple[int, ...] | None = None
    chosen = [0] * n

    def visit(k: int, partial: float):
        nonlocal best_abs, best_digits
        if k < 0:
            if all(c == 0 for c in chosen):
                return
            value = _canonical_value(chosen, powers, h)
            a = abs(value)
            digits = tuple(chosen)
            if a < best_abs or (a == best_abs and (best_digits is None or _rev_key(digits) < _rev_key(best_digits))):
                best_abs = a
                best_digits = digits
            return
        bound = abs(partial) - rem[k]
        if bound > best_abs + slack:
            return
        for c in coeffs:
            chosen[k] = c
            visit(k - 1, partial + c * powers[k])
        chosen[k] = 0

    visit(n - 1, 0.0)
    assert best_digits is not None
    return best_digits, _canonical_value(best_digits, powers, h)


def _benchmark_search_xis(seed):
    """The xi of the benchmark's search workload, read from perfbench/inputs.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    found = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(found)
    found.loader.exec_module(inputs)
    return inputs.search_xis(seed)


def _walk_sweep():
    """Seeded (xi, n, coeffs) with xi in (-1.2, 1.2) and n small enough for the
    oracle, then the fixed cases."""
    rng = np.random.default_rng(413)
    sets = [(0, 1), (-1, 0, 1), (-2, 0, 2), (-3, 0, 3), (-1, 0, 1, 2), (-2, -1, 0, 1, 2)]
    top = {2: 12, 3: 9, 4: 7, 5: 6}  # largest n per |C|
    cases = []
    for i in range(60):
        cs = sets[i % len(sets)]
        cases.append((float(rng.uniform(-1.2, 1.2)), int(rng.integers(1, top[len(cs)] + 1)), cs))
    # the search workload's bb11 ops; each frontier level spans several blocks
    cases += [(xi, 11, (-1, 0, 1)) for xi in _benchmark_search_xis(300)]
    # exact ties at 1/2
    cases += [(0.5, n, (-1, 0, 1)) for n in range(1, 13)]
    # multiples of a minimal polynomial leave rounding residues a few ulps
    # apart, so the minimizer depends on the summation order of each half
    cases += [
        (GOLDEN, 8, (-1, 0, 1)),
        (GOLDEN, 10, (-2, 0, 2)),
        (GOLDEN, 6, (-2, -1, 0, 1, 2)),
        (-GOLDEN, 8, (-1, 0, 1)),
        (2 / 3, 7, (-1, 0, 1, 2)),
    ]
    return cases


class TestBranchAndBoundWalk:
    """The numpy block walk against the recursive walk it replaced: the same
    (digits, value), compared with ==."""

    @pytest.mark.parametrize("xi, n, coeffs", _walk_sweep())
    def test_matches_recursive_walk(self, xi, n, coeffs):
        assert _search_branch_and_bound(xi, n, coeffs) == _recursive_branch_and_bound(xi, n, coeffs)

    def test_frontier_split_into_many_blocks(self, monkeypatch):
        monkeypatch.setattr(algebraic, "_BB_BLOCK", 5)
        for xi, n, coeffs in _walk_sweep()[:24]:
            assert _search_branch_and_bound(xi, n, coeffs) == _recursive_branch_and_bound(xi, n, coeffs)

    def test_pruning_removes_most_of_the_tree(self, monkeypatch):
        decoded = []
        digits = algebraic._digits

        def counting(index, n_digits, coeffs):
            decoded.append(len(index))
            return digits(index, n_digits, coeffs)

        monkeypatch.setattr(algebraic, "_digits", counting)
        cs = (-1, 0, 1)
        assert _search_branch_and_bound(2.0, 12, cs) == _recursive_branch_and_bound(2.0, 12, cs)
        assert 0 < sum(decoded) < 3**12 // 10

    @pytest.mark.parametrize("n", [41, 45])
    def test_node_index_past_int64(self, n):
        # 3^n > 2^62, so a node index takes two int64 limbs.  Every nonzero
        # {-1,0,1} polynomial has |P(2)| >= 1, and the tie rule picks the
        # one with leading -1: 1 + 2 + ... + 2^(n-2) - 2^(n-1) = -1.
        assert 3**n > 2**62
        assert _search_branch_and_bound(2.0, n, (-1, 0, 1)) == ((1,) * (n - 1) + (-1,), -1.0)


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


def _top_candidates(xi, n, coeffs, k, budget=1 << 24):
    """The k best (|value|, digits) pairs of the sorted-halves kernel."""
    return [(a, d) for a, d, _ in _smallest(xi, n, coeffs, k, budget)]


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

    def test_eta_is_the_scanned_root(self):
        # the candidate -1 + x + x^4 - x^6 has a root at 0.856...; the chosen
        # eta must be that root, not the rational root 1 of another factor
        lam = 0.8566748838545029
        rep = approximate_parameters((lam,), 7, ((-1, 0, 1),))
        ax = rep.axes[0]
        assert ax.status == "ok"
        assert ax.poly.coeffs == (-1, 1, 0, 0, 1, 0, -1)
        assert rep.eta == (lam,)
        assert rep.in_omega

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

    def test_digit_past_int64_is_refused(self):
        # depth 1 already passes 2^62; the digit table raised OverflowError
        s = SystemSpec((0.5,), ((0,), (2**70,)), (0.5, 0.5), ((-1, 2),))
        with pytest.raises(BudgetExceededError, match="depth 1 may reach"):
            exact_overlap_depth(s, 3)


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


# Digits 0 and 2^45 on lambda = (1/3, 1/5): at depth 7 the axis columns span
# about 2^55 and 2^59 and axis 1 takes 2^7 values, so the packed code of the
# child rows ranks the code and then the column too.
WIDE = SystemSpec((1 / 3, 1 / 5), ((0, 0), (2**45, 0), (0, 2**45)), (1 / 3,) * 3, ((-1, 3), (-1, 5)))


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
        pytest.param(WIDE, 7, id="ranks-code-and-column"),
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

    def test_wide_case_passes_the_code_limit(self):
        # the child rows of a depth have the columns of its distinct states
        *_, (rows, _) = _word_states(WIDE, 7, 1 << 24)
        first, second = rows.T
        span = int(second.max()) - int(second.min()) + 1
        assert (int(first.max()) - int(first.min()) + 1) * span >= entropy._CODE_LIMIT
        assert len(np.unique(first)) * span >= entropy._CODE_LIMIT
        assert int(np.abs(rows).max()) < algebraic._STATE_LIMIT
