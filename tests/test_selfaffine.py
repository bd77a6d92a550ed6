"""Tests for self-affine system specs, level-n measures, and the profiles
built on top of them (Lyapunov, kappa, random-walk bounds, saturation,
separation)."""

import math

import numpy as np
import pytest

from bconv import selfaffine
from bconv.algebraic import _word_states, exact_overlap_depth
from bconv.errors import BudgetExceededError
from bconv.measures import convolve, from_atoms, pushforward, ScaleBy
from bconv.scales import ScaleVector
from bconv.selfaffine import (
    build_factor,
    build_level_n,
    dim_from_kappa,
    kappa_estimate,
    lyapunov_dimension,
    non_saturation_profile,
    rw_entropy_upper,
    separation_profile,
    SystemSpec,
)

GOLDEN = 0.6180339887498949  # positive root of x^2 + x - 1
PM1 = ((1,), (-1,))
HALF = (0.5, 0.5)


def golden_spec():
    return SystemSpec((GOLDEN,), PM1, HALF, ((-1, 1, 1),))


def third_spec():
    return SystemSpec((1.0 / 3.0,), PM1, HALF, ((-1, 3),))


class TestSystemSpec:
    def test_basic_fields(self):
        s = golden_spec()
        assert s.dim == 1
        assert s.n_maps == 2
        assert s.chi[0] == pytest.approx(-math.log2(GOLDEN))
        assert s.prob_entropy == pytest.approx(1.0)
        assert s.translation_diameter == 2
        assert s.axis_difference_sets() == ((-2, 0, 2),)

    def test_minpoly_accepts_coefficient_tuples(self):
        s = golden_spec()
        assert s.minpolys is not None
        assert s.minpolys[0].coeffs == (-1, 1, 1)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="p must sum to 1"):
            SystemSpec((0.5,), PM1, (0.5, 0.6))

    def test_probs_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SystemSpec((0.5,), PM1, (1.0, 0.0))

    def test_probs_length(self):
        with pytest.raises(ValueError, match="one entry per map"):
            SystemSpec((0.5,), PM1, (1.0,))

    def test_needs_two_maps(self):
        with pytest.raises(ValueError, match="at least two maps"):
            SystemSpec((0.5,), ((1,),), (1.0,))

    def test_translation_rows_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            SystemSpec((0.5,), ((1,), (1,)), HALF)

    def test_translation_rows_match_dimension(self):
        with pytest.raises(ValueError, match="match the dimension"):
            SystemSpec((0.5,), ((1, 2), (0, 0)), HALF)

    def test_minpoly_must_vanish(self):
        with pytest.raises(ValueError, match="does not vanish"):
            SystemSpec((0.5,), PM1, HALF, ((-1, 1, 1),))

    def test_minpoly_per_axis_count(self):
        with pytest.raises(ValueError, match="one minimal polynomial per axis"):
            SystemSpec((0.5, 0.25), ((1, 1), (-1, 0)), HALF, ((-1, 2),))

    def test_contraction_vector_validated(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            SystemSpec((0.3, 0.8), ((1, 1), (0, 0)), HALF)

    def test_d2_difference_sets(self):
        s = SystemSpec((0.8, 0.3), ((1, 0), (0, 2)), HALF)
        assert s.axis_difference_sets() == ((-1, 0, 1), (-2, 0, 2))
        assert s.translation_diameter == 2


class TestBuildLevelN:
    def test_level_zero_is_point_mass_at_origin(self):
        mu = build_level_n(golden_spec(), 0)
        assert mu.n_atoms == 1
        assert mu.points[0, 0] == 0.0
        assert mu.mass == 1.0

    def test_level_one_is_translation_row_measure(self):
        mu = build_level_n(golden_spec(), 1)
        assert mu.n_atoms == 2
        np.testing.assert_array_equal(np.sort(mu.points[:, 0]), [-1.0, 1.0])
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_outermost_digit_carries_power_zero(self):
        # With unequal probs the heavier digit must sit at full (power-0)
        # magnitude, not scaled by lambda.
        s = SystemSpec((0.5,), ((1,), (0,)), (0.75, 0.25))
        mu = build_level_n(s, 2)
        # words (digit at power 0, digit at power 1): values 1.5, 1.0, 0.5, 0
        by_point = {float(x): w for (x,), w in zip(mu.points, mu.weights)}
        assert by_point[1.5] == pytest.approx(0.75 * 0.75)
        assert by_point[1.0] == pytest.approx(0.75 * 0.25)
        assert by_point[0.5] == pytest.approx(0.25 * 0.75)
        assert by_point[0.0] == pytest.approx(0.25 * 0.25)

    def test_golden_depth3_collision_exact(self):
        # words (1,-1,-1) and (-1,1,1) land on the same point; their float
        # images differ by ~1e-16, so only the exact word states merge them
        assert build_level_n(golden_spec(), 3).n_atoms == 8
        rows, weights = list(_word_states(golden_spec(), 3, 1 << 24))[-1]
        assert len(rows) == len(weights) == 7
        assert weights.max() == 0.25  # 1/8 + 1/8 merged

    def test_no_overlap_gives_full_tree(self):
        s = SystemSpec((0.5,), ((1,), (0,)), HALF)
        for n in (1, 2, 5):
            assert build_level_n(s, n).n_atoms == 2**n

    def test_mass_is_one(self):
        mu = build_level_n(golden_spec(), 6)
        assert mu.mass == pytest.approx(1.0, abs=1e-12)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError, match="budget"):
            build_level_n(golden_spec(), 40, budget=1000)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_level_n(golden_spec(), -1)


class TestBuildFactor:
    def test_factorization_into_digit_ranges(self):
        # level-n measure = (digits [0,k)) * (digits [k,n)) as a convolution
        s = SystemSpec((0.8, 0.3), ((1, 0), (0, 1), (1, 1)), (0.5, 0.25, 0.25))
        n = 5
        whole = build_level_n(s, n)
        for k in (1, 2, 4):
            split = convolve(build_factor(s, 0, k), build_factor(s, k, n))
            assert split.n_atoms == whole.n_atoms
            np.testing.assert_allclose(split.points, whole.points, atol=1e-12)
            np.testing.assert_allclose(split.weights, whole.weights, atol=1e-12)

    def test_factor_is_scaled_level_measure(self):
        s = golden_spec()
        f = build_factor(s, 2, 5)
        expect = pushforward(build_level_n(s, 3), ScaleBy(s.lam**2.0))
        np.testing.assert_allclose(f.points, expect.points, atol=0)
        np.testing.assert_allclose(f.weights, expect.weights, atol=0)

    def test_range_validation(self):
        for a, b in ((-1, 2), (2, 2), (3, 1)):
            with pytest.raises(ValueError, match="0 <= a < b"):
                build_factor(golden_spec(), a, b)


class TestLyapunovDimension:
    def test_two_axis_interpolation(self):
        s = SystemSpec((0.8, 0.3), ((1, 0), (0, 1)), HALF)
        rep = lyapunov_dimension(s)
        assert rep.m == 1
        assert rep.dim_lyapunov == pytest.approx(1.3903772805805816, abs=1e-12)
        assert rep.gamma == pytest.approx(rep.dim_lyapunov)
        # single interior bound coincides with the dimension here
        assert rep.axis_bounds[0] == pytest.approx(rep.dim_lyapunov)

    def test_saturated_case_rescales(self):
        s = SystemSpec((0.9, 0.8), ((1, 0), (0, 1)), HALF)
        rep = lyapunov_dimension(s)
        assert rep.m == 2
        expect = 2.0 / (-math.log2(0.9) - math.log2(0.8))
        assert rep.dim_lyapunov == pytest.approx(expect, abs=1e-12)
        assert rep.dim_lyapunov == pytest.approx(4.220021912964321, abs=1e-9)
        assert rep.gamma == 2.0

    def test_d1_half(self):
        s = SystemSpec((0.5,), PM1, HALF)
        rep = lyapunov_dimension(s)
        assert rep.dim_lyapunov == 1.0
        assert rep.m == 1
        assert rep.gamma == 1.0
        assert rep.axis_bounds == ()

    def test_d1_third(self):
        rep = lyapunov_dimension(third_spec())
        assert rep.dim_lyapunov == pytest.approx(1.0 / math.log2(3.0))
        assert rep.m == 0
        assert rep.gamma == rep.dim_lyapunov

    def test_entropy_and_chi_recorded(self):
        rep = lyapunov_dimension(golden_spec())
        assert rep.prob_entropy == pytest.approx(1.0)
        assert rep.chi == golden_spec().chi


class TestKappa:
    def test_third_is_fully_separated(self):
        # lambda = 1/3 keeps all 2^n words 2*3^{-(n-1)} apart, so the level-n
        # partition at matching depth resolves every word: kappa = 1 exactly.
        rep = kappa_estimate(third_spec(), 8)
        assert rep.kappa == pytest.approx(1.0, abs=1e-12)
        assert rep.entropy_bits == pytest.approx(8.0, abs=1e-12)
        assert kappa_estimate(third_spec(), 13).kappa == pytest.approx(1.0, abs=1e-12)

    def test_dim_from_kappa_third(self):
        rep = kappa_estimate(third_spec(), 10)
        dim = dim_from_kappa(rep.kappa, third_spec())
        assert dim == pytest.approx(1.0 / math.log2(3.0), abs=1e-9)

    @pytest.mark.filterwarnings("ignore::bconv.errors.BoundaryHazardWarning")
    def test_n1_warns(self):
        with pytest.warns(UserWarning, match="digit distribution"):
            kappa_estimate(third_spec(), 1)

    def test_budget_blocks_deep_levels(self):
        with pytest.raises(BudgetExceededError, match="budget"):
            kappa_estimate(third_spec(), 14, budget=600)
        assert kappa_estimate(third_spec(), 9, budget=600).kappa == pytest.approx(1.0, abs=1e-12)

    def test_n0_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            kappa_estimate(third_spec(), 0)

    def test_dim_from_kappa_clamps(self):
        s = third_spec()
        assert dim_from_kappa(100.0, s) == 1.0
        assert dim_from_kappa(-5.0, s) == 0.0


class TestRandomWalkEntropy:
    def test_golden_exact_values(self):
        s = golden_spec()
        got = {n: rw_entropy_upper(s, n) for n in (3, 4, 5, 6)}
        assert got[3].value == pytest.approx(2.75 / 3.0, abs=1e-12)
        assert got[3].distinct_maps == 7
        assert got[4].distinct_maps == 12
        assert got[5].distinct_maps == 20
        assert got[6].distinct_maps == 33
        assert got[4].value == pytest.approx(0.875, abs=1e-6)
        assert got[5].value == pytest.approx(0.840564, abs=1e-6)
        assert got[6].value == pytest.approx(0.817607, abs=1e-6)
        assert all(r.collisions_detected for r in got.values())

    def test_golden_nonincreasing_on_divisor_chain(self):
        # (1/n) H is subadditive along n | n', so the bound improves
        s = golden_spec()
        vals = [rw_entropy_upper(s, n).value for n in (3, 6, 12)]
        assert vals[0] >= vals[1] - 1e-12
        assert vals[1] >= vals[2] - 1e-12
        assert vals[2] < 0.97

    def test_exact_requires_minpolys(self):
        s = SystemSpec((0.5,), PM1, HALF)
        with pytest.raises(ValueError, match="minpolys.*approx --rw-n"):
            rw_entropy_upper(s, 3)

    def test_dyadic_golden_without_minpolys_is_refused(self):
        # the dyadic double nearest the golden ratio is no root of a
        # {-1, 0, 1} polynomial (rational-root theorem), so all 2^18 words are
        # distinct and the entropy is 1 bit; counting bit-equal float images
        # as collisions reported 35,696 maps and 0.815 bits
        s = SystemSpec((GOLDEN,), PM1, HALF)
        with pytest.raises(ValueError, match="minpolys"):
            rw_entropy_upper(s, 18)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match=">= 1"):
            rw_entropy_upper(golden_spec(), 0)

    def test_row_budget_refusal(self, monkeypatch):
        # golden depths 1..6 build 2, 4, 8, 14, 24, 40 child rows
        monkeypatch.setattr(selfaffine, "_DEFAULT_ATOM_BUDGET", 40)
        assert rw_entropy_upper(golden_spec(), 6).distinct_maps == 33
        monkeypatch.setattr(selfaffine, "_DEFAULT_ATOM_BUDGET", 39)
        with pytest.raises(BudgetExceededError, match="depth 6 builds 40 word-state rows"):
            rw_entropy_upper(golden_spec(), 6)

    def test_int64_bound_refusal_non_monic(self):
        # 1000x - 1 scales depth n by 1000^(n-1); digits {0, 1} bound the
        # entries by (1000^n - 1) / 999, under 2^62 at n = 7, past it at n = 8
        s = SystemSpec((0.001,), ((0,), (1,)), HALF, ((-1, 1000),))
        assert (1000**7 - 1) // 999 < 2**62 <= (1000**8 - 1) // 999
        rep = rw_entropy_upper(s, 7)
        assert rep.distinct_maps == 2**7 and rep.value == 1.0
        with pytest.raises(BudgetExceededError, match="2\\^62"):
            rw_entropy_upper(s, 8)

    def test_int64_bound_refusal_negative_leading(self):
        # 1 - 1000x has the root of 1000x - 1 and leading coefficient -1000:
        # the bound grows by |lead|, so the refusal depth is the same.  A
        # signed bound would pass n = 23, where 1000^22 is a multiple of 2^64
        # and words differing only in their first digit wrap to one row.
        s = SystemSpec((0.001,), ((0,), (1,)), HALF, ((1, -1000),))
        rep = rw_entropy_upper(s, 7)
        assert rep.distinct_maps == 2**7 and rep.value == 1.0
        for n in (8, 23):
            with pytest.raises(BudgetExceededError, match="2\\^62"):
                rw_entropy_upper(s, n)
        with pytest.raises(BudgetExceededError, match="2\\^62"):
            exact_overlap_depth(s, 23)

    def test_int64_bound_refuses_at_first_depth(self):
        # golden entries pass 2^62 at depth 90; the power table stops there
        # instead of growing to n rows of ever longer integers
        for call in (rw_entropy_upper, exact_overlap_depth):
            with pytest.raises(BudgetExceededError, match="at depth 90 .*2\\^62"):
                call(golden_spec(), 5000)

    def test_no_overlap_value_is_prob_entropy(self):
        s = SystemSpec((0.5,), ((1,), (0,)), (0.75, 0.25), ((-1, 2),))
        rep = rw_entropy_upper(s, 5)
        assert rep.value == pytest.approx(s.prob_entropy, abs=1e-12)
        assert rep.distinct_maps == 32
        assert not rep.collisions_detected


# dyadic fixtures sit on cell boundaries on purpose; the nudge warning is
# expected and is asserted directly in the entropy tests
@pytest.mark.filterwarnings("ignore::bconv.errors.BoundaryHazardWarning")
class TestNonSaturation:
    def test_point_mass_is_non_saturated(self):
        mu = from_atoms([((0.0,), 1.0)])
        prof = non_saturation_profile(mu, (0.5,), eps=0.1, m=3, n_range=range(1, 5))
        assert prof.non_saturated
        assert all(v == 0.0 for _, _, v in prof.rows)
        assert prof.chi == (1.0,)

    def test_dyadic_uniform_saturates(self):
        # 2^k evenly spaced atoms look uniform down to level k: entries sit
        # at chi = 1 and the non-saturation test must fail.
        k = 10
        pts = [((i + 0.5) / 2**k,) for i in range(2**k)]
        mu = from_atoms((p, 1.0 / 2**k) for p in pts)
        prof = non_saturation_profile(mu, (0.5,), eps=0.1, m=2, n_range=range(1, 5))
        assert not prof.non_saturated
        assert all(abs(v - 1.0) < 1e-9 for _, _, v in prof.rows)

    def test_axis_rows_filter(self):
        mu = from_atoms([((0.0, 0.0), 1.0)])
        prof = non_saturation_profile(mu, (0.8, 0.3), eps=0.01, m=2, n_range=[1, 2])
        assert len(prof.rows) == 4
        assert [n for n, _ in prof.axis_rows(1)] == [1, 2]
        assert [n for n, _ in prof.axis_rows(2)] == [1, 2]

    def test_validation(self):
        mu = from_atoms([((0.0,), 1.0)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            non_saturation_profile(mu, (0.5, 0.25), 0.1, 2, [1])
        with pytest.raises(ValueError, match="m must be >= 1"):
            non_saturation_profile(mu, (0.5,), 0.1, 0, [1])
        with pytest.raises(ValueError, match="eps must be positive"):
            non_saturation_profile(mu, (0.5,), 0.0, 2, [1])


class TestSeparation:
    def test_third_gaps_exact(self):
        # nearest distinct words at length n differ by 2 * 3^{-(n-1)}
        prof = separation_profile(third_spec(), 4)
        expect = [2.0 * 3.0 ** -(n - 1) for n in (1, 2, 3, 4)]
        got = [prof.per_axis[i][0] for i in range(4)]
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        assert prof.joint == (None, None, None, None)

    def test_gap_rate_converges_to_lambda_times_something(self):
        prof = separation_profile(third_spec(), 10)
        # (2 * 3^{-(n-1)})^{1/n} -> 1/3
        assert prof.gap_rate[-1][0] == pytest.approx((2.0 * 3.0**-9) ** 0.1, rel=1e-12)

    def test_golden_collision_shows_as_zero_scale_gap(self):
        prof = separation_profile(golden_spec(), 3)
        assert prof.per_axis[2][0] < 1e-15  # exact coincidence, float roundoff

    def test_d2_joint_gap(self):
        s = SystemSpec((0.8, 0.3), ((1, 0), (0, 1)), HALF)
        prof = separation_profile(s, 5)
        assert prof.joint[4] is not None and prof.joint[4] > 0.0
        # joint Euclidean gap is at least each per-axis gap... false in
        # general, but it does dominate the smaller of the two axis minima
        assert prof.joint[4] >= min(prof.per_axis[4]) - 1e-15

    def test_budget_and_validation(self):
        with pytest.raises(BudgetExceededError):
            separation_profile(third_spec(), 30, budget=10_000)
        with pytest.raises(ValueError, match="n_max"):
            separation_profile(third_spec(), 0)


class TestSystemWrappers:
    def test_overlap_depth_wrapper(self):
        from bconv.selfaffine import system_overlap_depth

        rep = system_overlap_depth(golden_spec(), 5)
        assert rep.per_axis == (3,)
        assert rep.joint == 3

    def test_approx_wrapper_recovers_golden(self):
        from bconv.selfaffine import approximate_system_parameters

        rep = approximate_system_parameters(golden_spec(), 6)
        assert rep.in_omega
        assert rep.axes[0].status == "ok"
        assert abs(rep.eta[0] - GOLDEN) < 1e-12
        assert rep.max_distance == 0.0
