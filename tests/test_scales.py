"""Scale vectors, the integer-ratio scale sequence, and cell keys."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bconv.entropy import en, grid
from bconv.scales import (
    MAX_DYADIC_LEVEL,
    ScaleVector,
    dyadic_levels,
    s_sequence,
    validate_contraction_vector,
)


class TestScaleVector:
    def test_group_operations(self):
        a = ScaleVector((0.5, 2.0))
        b = ScaleVector((4.0, 0.25))
        assert (a * b).entries == (2.0, 0.5)
        assert (a / b).entries == (0.125, 8.0)
        assert a.inverse().entries == (2.0, 0.5)
        assert (a * a.inverse()).entries == (1.0, 1.0)

    def test_real_power(self):
        a = ScaleVector((0.25, 4.0))
        assert (a**0.5).entries == (0.5, 2.0)
        assert (a**0).entries == (1.0, 1.0)
        assert (a**-1).entries == a.inverse().entries

    def test_partial_order_and_geometry(self):
        fine = ScaleVector((0.5, 0.2))
        coarse = ScaleVector((1.0, 0.2))
        assert fine.le(coarse)
        assert not coarse.le(fine)
        assert ScaleVector((2.0, 3.0)).det() == 6.0
        assert ScaleVector((3.0, 4.0)).norm() == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleVector(())
        with pytest.raises(ValueError):
            ScaleVector((1.0, 0.0))
        with pytest.raises(ValueError):
            ScaleVector((1.0, -2.0))
        with pytest.raises(ValueError):
            ScaleVector((1.0, float("inf")))
        with pytest.raises(ValueError):
            ScaleVector((1.0,)) * ScaleVector((1.0, 2.0))

    def test_sequence_protocol(self):
        a = ScaleVector((0.5, 0.25, 0.125))
        assert len(a) == 3
        assert a[1] == 0.25
        assert list(a) == [0.5, 0.25, 0.125]
        assert ScaleVector.ones(2).entries == (1.0, 1.0)
        np.testing.assert_array_equal(a.as_array(), [0.5, 0.25, 0.125])


class TestContractionValidation:
    def test_accepts_strictly_decreasing(self):
        lam = validate_contraction_vector((0.8, 0.3))
        assert isinstance(lam, ScaleVector)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"lie in \(0, 1\)"):
            validate_contraction_vector((1.0, 0.3))
        with pytest.raises(ValueError, match=r"lie in \(0, 1\)"):
            validate_contraction_vector((1.5, 0.3))
        # zero fails the positivity check of ScaleVector itself
        with pytest.raises(ValueError):
            validate_contraction_vector((0.5, 0.3, 0.0))

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            validate_contraction_vector((0.3, 0.8))
        with pytest.raises(ValueError, match="strictly decreasing"):
            validate_contraction_vector((0.5, 0.5))


class TestSSequence:
    def test_hand_computed_divisors(self):
        # lambda = 0.6: s = 1, 1, 1/2, 1/4, 1/4, 1/12, 1/12
        ss = s_sequence((0.6,), 6)
        assert ss.divisors == ((1,), (2,), (2,), (1,), (3,), (1,))
        assert ss.exact_term(3) == (Fraction(1, 4),)
        assert ss.exact_term(5) == (Fraction(1, 12),)
        assert ss.term(5).entries == (1.0 / 12.0,)
        assert ss.depth == 6

    def test_depth_zero(self):
        ss = s_sequence((0.5,), 0)
        assert ss.divisors == ()
        assert ss.term(0).entries == (1.0,)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            s_sequence((0.5,), -1)

    def test_two_sided_bound_exact(self):
        # lambda^n <= s_n < 2 lambda^n, checked in exact rational arithmetic.
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            lam = np.sort(rng.uniform(0.05, 0.95, d))[::-1]
            if len(set(lam)) < d:
                continue
            n = int(rng.integers(1, 201))
            ss = s_sequence(tuple(lam), n)
            lam_exact = [Fraction(float(v)) for v in lam]
            for m in range(n + 1):
                for j in range(d):
                    p = lam_exact[j] ** m
                    s = ss.exact_term(m)[j]
                    assert p <= s < 2 * p

    def test_consecutive_ratios_are_integers(self):
        ss = s_sequence((0.7, 0.3), 40)
        for m in range(1, 41):
            for j in range(2):
                ratio = ss.exact_term(m - 1)[j] / ss.exact_term(m)[j]
                assert ratio.denominator == 1
                assert ratio == ss.divisors[m - 1][j]

    def test_all_pair_ratios_are_integers(self):
        # s_n / s_n' has integer entries for any n' >= n.
        ss = s_sequence((0.55,), 30)
        for a in range(31):
            for b in range(a, 31):
                ratio = ss.exact_term(a)[0] / ss.exact_term(b)[0]
                assert ratio.denominator == 1


class TestDyadicLevels:
    def test_half_gives_depth_n(self):
        assert dyadic_levels((0.5,), 7) == (7,)

    def test_anisotropic_levels(self):
        # chi = (0.3219.., 1.7369..) at n = 10 floors to (3, 17)
        assert dyadic_levels((0.8, 0.3), 10) == (3, 17)

    def test_level_zero(self):
        assert dyadic_levels((0.9,), 0) == (0,)

    def test_exponent_range_guard(self):
        lam = (2.0**-60,)
        assert dyadic_levels(lam, 17) == (1020,)
        with pytest.raises(ValueError, match="exponent range"):
            dyadic_levels(lam, 18)
        assert MAX_DYADIC_LEVEL == 1023

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            dyadic_levels((1.5,), 3)


class TestEnKey:
    def test_half_is_plain_dyadic(self):
        assert en(3, (0.5,)).key((0.3,)) == (2,)  # floor(0.3 * 8)
        assert en(3, (0.5,)).key((-0.1,)) == (-1,)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            en(3, (0.5,)).key((0.3, 0.4))

    def test_boundary_nudge_matches_keying(self):
        # roundoff just below a cell edge lands in the cell above it
        assert en(1, (0.5,)).key((0.5 - 1e-15,)) == (1,)

    def test_keys_refine(self):
        # equal keys at level n+1 imply equal keys at level n
        rng = np.random.default_rng(11)
        lam = (0.8, 0.3)
        for _ in range(500):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            n = int(rng.integers(0, 12))
            if en(n + 1, lam).key(x) == en(n + 1, lam).key(y):
                assert en(n, lam).key(x) == en(n, lam).key(y)

    def test_commensurability_discrepancy_bounded(self):
        # Key of s_k * x at level n tracks the key of x at level n + k after
        # rescaling by rho = s_k * 2^(l_n - l_{n+k}); the discrepancy stays
        # below a lambda-dependent constant (4 covers both test vectors).
        # Draws that scale a coordinate to 2^52 or beyond must be refused.
        rng = np.random.default_rng(5)
        refused = 0
        for lam in [(0.6,), (0.8, 0.3)]:
            d = len(lam)
            ss = s_sequence(lam, 20)
            for _ in range(5000):
                x = rng.uniform(0.0, 1.0, d)
                n = int(rng.integers(0, 25))
                k = int(rng.integers(1, 21))
                ln = dyadic_levels(lam, n)
                lnk = dyadic_levels(lam, n + k)
                sk = ss.term(k)
                i1 = en(n, lam).key(sk.as_array() * x)
                if np.any(x * 2.0 ** np.array(lnk) >= 2.0**52):
                    with pytest.raises(ValueError, match="2\\^52"):
                        en(n + k, lam).key(x)
                    refused += 1
                    continue
                i2 = en(n + k, lam).key(x)
                for j in range(d):
                    rho = sk[j] * 2.0 ** (ln[j] - lnk[j])
                    assert abs(i1[j] - rho * i2[j]) <= 4.0
        assert 0 < refused < 5000


class TestGridKey:
    def test_unit_grid(self):
        assert grid((1.0,)).key((2.7,)) == (2,)
        assert grid((1.0,), (0.5,)).key((2.7,)) == (3,)

    def test_boundary_nudge_matches_keying(self):
        assert grid(1.0).key((1.0 - 1e-15,)) == (1,)

    def test_offset_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            grid((1.0,), (1.0,))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            grid((1.0,), (-0.1,))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            grid((1.0,)).key((0.5, 0.5))
        with pytest.raises(ValueError):
            grid((1.0,), (0.1, 0.2))
