"""Partition entropy, conditional entropy, and average entropy quadrature."""

import itertools
import math

import numpy as np
import pytest

from bconv.entropy import (
    QuadratureSpec,
    avg_cond_entropy,
    avg_entropy,
    conditional_entropy,
    en,
    en_join_projected,
    grid,
    partition_entropy,
    trivial,
)
from bconv.errors import BoundaryHazardWarning, BudgetExceededError
from bconv.measures import delta, from_atoms
from bconv.scales import ScaleVector


def _uniform(points):
    n = len(points)
    return from_atoms((p, 1.0 / n) for p in points)


class TestPartitionEntropy:
    def test_uniform_on_four_cells(self):
        mu = _uniform([(0.1,), (1.1,), (2.1,), (3.1,)])
        assert partition_entropy(mu, grid(1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_single_atom(self):
        assert partition_entropy(delta((0.3,)), grid(1.0)) == 0.0

    def test_half_quarter_quarter(self):
        mu = from_atoms([((0.1,), 0.5), ((1.1,), 0.25), ((2.1,), 0.25)])
        assert partition_entropy(mu, grid(1.0)) == pytest.approx(1.5, abs=1e-12)

    def test_normalizes_internally(self):
        mu = _uniform([(0.1,), (1.1,)]).scaled(7.0)
        assert partition_entropy(mu, grid(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="positive mass"):
            partition_entropy(from_atoms([]), grid(1.0))

    def test_trivial_keying_gives_zero(self):
        mu = _uniform([(0.0,), (5.0,)])
        assert partition_entropy(mu, trivial(1)) == 0.0


class TestKeyings:
    def test_keying_is_pure(self):
        k = en(3, (0.5,))
        assert k.key((0.3,)) == k.key((0.3,)) == (2,)

    def test_join_concatenates_columns(self):
        a = en(1, (0.5,))
        b = grid(1.0)
        j = a.join(b)
        assert j.key((0.7,)) == a.key((0.7,)) + b.key((0.7,))

    def test_join_dimension_mismatch(self):
        with pytest.raises(ValueError):
            en(1, (0.5,)).join(grid((1.0, 1.0)))

    def test_en_join_projected_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            en_join_projected(2, 1, (3,), (0.5, 0.25))
        with pytest.raises(ValueError, match="strictly increasing"):
            en_join_projected(2, 1, (2, 1), (0.5, 0.25))

    def test_en_join_projected_refines_base(self):
        lam = (0.5, 0.25)
        joined = en_join_projected(2, 3, (1,), lam)
        base = en(2, lam)
        x = (0.37, 0.91)
        assert joined.key(x)[: len(base.columns)] == base.key(x)

    def test_grid_offset_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            grid(1.0, (1.5,))
        with pytest.raises(ValueError, match="dimension"):
            grid((1.0, 1.0), (0.5,))

    def test_refuses_keys_past_2_pow_52(self):
        # 0.3 * 2^60 has no fractional bits left to decide its cell
        with pytest.raises(ValueError, match="2\\^52"):
            en(60, (0.5,)).key((0.3,))
        with pytest.raises(ValueError, match="2\\^52"):
            grid(1.0).key((2.0**52,))
        with pytest.raises(ValueError, match="2\\^52"):
            grid(1.0).key((math.nan,))
        assert grid(1.0).key((2.0**52 - 1,)) == (2**52 - 1,)
        with pytest.raises(ValueError, match="2\\^52"):
            partition_entropy(_uniform([(0.0,), (0.3,)]), en(60, (0.5,)))

    def test_boundary_hazard_warns_and_nudges(self):
        mu = _uniform([(0.5,), (0.123,)])
        with pytest.warns(BoundaryHazardWarning):
            h = partition_entropy(mu, en(1, (0.5,)))
        assert h == pytest.approx(1.0, abs=1e-12)  # 0.5 lands in cell 1 after nudge


class TestConditionalEntropy:
    def test_fine_equals_coarse(self):
        mu = _uniform([(0.1,), (1.4,), (2.9,)])
        assert conditional_entropy(mu, grid(1.0), grid(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_coarse_collapses(self):
        mu = _uniform([(0.1,), (1.4,), (2.9,)])
        lhs = conditional_entropy(mu, grid(1.0), trivial(1))
        assert lhs == pytest.approx(partition_entropy(mu, grid(1.0)), abs=1e-12)

    def test_four_points_two_classes(self):
        # fine separates {0,1,2,3}; coarse groups into {0,1} and {2,3}
        mu = _uniform([(0.5,), (1.5,), (2.5,), (3.5,)])
        assert conditional_entropy(mu, grid(1.0), grid(2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_on_random_fixtures(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            d = int(rng.integers(1, 3))
            mu = _uniform([tuple(p) for p in rng.uniform(0, 4, (6, d))])
            fine = grid(tuple(rng.uniform(0.1, 0.5, d)))
            coarse = grid(tuple(rng.uniform(0.5, 2.0, d)))
            assert conditional_entropy(mu, fine, coarse) >= -1e-12


class TestAvgEntropy:
    def test_delta_is_zero_at_any_scale(self):
        for r in (0.1, 1.0, (0.25,), ScaleVector((3.0,))):
            rep = avg_entropy(delta((0.7,)), r)
            assert rep.value == 0.0
            assert rep.method == "exact"

    def test_pair_closed_form(self):
        # 1/2(d_0 + d_c) at scale r >= c averages to exactly c/r bits
        for c, r in [(0.5, 1.0), (0.3, 1.0), (1.0, 2.0), (0.2, 0.8)]:
            mu = _uniform([(0.0,), (c,)])
            assert avg_entropy(mu, r).value == pytest.approx(c / r, abs=1e-12)

    def test_pair_closed_form_anisotropic(self):
        # spread along axis 1 only: value depends on r_1 alone
        mu = _uniform([(0.0, 0.0), (0.25, 0.0)])
        rep = avg_entropy(mu, ScaleVector((0.5, 7.0)))
        assert rep.value == pytest.approx(0.5, abs=1e-12)

    def test_mass_convention(self):
        mu = _uniform([(0.0,), (0.5,)])
        assert avg_entropy(mu.scaled(2.0), 1.0).value == pytest.approx(1.0, abs=1e-12)
        assert avg_entropy(mu.scaled(0.25), 1.0).value == pytest.approx(0.125, abs=1e-12)
        assert avg_entropy(from_atoms([]), 1.0).value == 0.0

    def test_exact_error_bound_is_tiny(self):
        mu = _uniform([(0.0,), (0.3,), (1.7,)])
        rep = avg_entropy(mu, 0.9)
        assert rep.method == "exact"
        assert rep.error_bound <= 1e-9

    def test_budget_refusal(self):
        rng = np.random.default_rng(2)
        mu = _uniform([tuple(p) for p in rng.uniform(0, 1, (40, 2))])
        with pytest.raises(BudgetExceededError):
            avg_entropy(mu, 0.3, QuadratureSpec(cell_budget=100))

    @pytest.mark.parametrize("mode", ["exact", "qmc"])
    def test_refuses_scales_past_2_pow_52(self, mode):
        mu = _uniform([(0.0,), (0.3,)])
        with pytest.raises(ValueError, match="2\\^52"):
            avg_entropy(mu, 2.0**-60, QuadratureSpec(mode=mode, offsets=16))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_equals_midpoint_sum_over_breakpoint_cells(self, d):
        # Oracle: on each product cell of per-axis breakpoints the offset
        # partition is constant, so the average is sum(vol * H(mu, grid(r, mid))).
        rng = np.random.default_rng(40 + d)
        n = {1: 40, 2: 12, 3: 6}[d]
        pts = rng.uniform(-1, 2, (n, d))
        w = rng.uniform(0.1, 1.0, n)
        mu = from_atoms((tuple(p), float(v)) for p, v in zip(pts, w / w.sum()))
        r = rng.uniform(0.2, 0.7, d)
        axes = []
        for j in range(d):
            y = mu.points[:, j] / r[j]
            thr = 1.0 - (y - np.floor(y))
            edges = np.unique(np.concatenate(([0.0, 1.0], thr[thr < 1.0])))
            axes.append(list(zip((edges[:-1] + edges[1:]) / 2, np.diff(edges))))
        expected = 0.0
        for cell in itertools.product(*axes):
            mid = tuple(m for m, _ in cell)
            vol = math.prod(v for _, v in cell)
            expected += vol * partition_entropy(mu, grid(tuple(r), mid))
        rep = avg_entropy(mu, tuple(r))
        assert rep.offsets_used == math.prod(len(a) for a in axes)
        assert rep.value == pytest.approx(expected, abs=1e-12)

    def test_qmc_matches_exact(self):
        rng = np.random.default_rng(4)
        for d in (1, 2):
            mu = _uniform([tuple(p) for p in rng.uniform(0, 2, (12, d))])
            r = tuple(rng.uniform(0.2, 0.9, d))
            ex = avg_entropy(mu, r).value
            qm = avg_entropy(mu, r, QuadratureSpec(mode="qmc", offsets=4096, seed=0))
            assert qm.method == "qmc"
            assert abs(qm.value - ex) < max(5e-3, 5 * qm.error_bound)

    def test_qmc_is_seed_deterministic(self):
        # The integrand is piecewise constant, so two different draws may
        # average to the same float; only same-seed equality is contractual.
        mu = _uniform([(0.0,), (0.37,), (1.2,)])
        q = QuadratureSpec(mode="qmc", offsets=512, seed=9)
        a = avg_entropy(mu, 0.7, q)
        b = avg_entropy(mu, 0.7, q)
        assert a.value == b.value
        assert a.error_bound == b.error_bound

    def test_quadrature_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(mode="midpoint")
        with pytest.raises(ValueError):
            QuadratureSpec(offsets=0)
        with pytest.raises(ValueError):
            QuadratureSpec(cell_budget=0)


class TestAvgCondEntropy:
    def test_equal_scales_vanish(self):
        mu = _uniform([(0.0,), (0.4,), (1.3,)])
        assert avg_cond_entropy(mu, 0.7, 0.7).value == pytest.approx(0.0, abs=1e-12)

    def test_unit_pair_between_scales(self):
        mu = _uniform([(0.0,), (1.0,)])
        rep = avg_cond_entropy(mu, 1.0, 2.0)
        assert rep.value == pytest.approx(0.5, abs=1e-12)  # 1 - 1/2

    def test_qmc_shares_offsets(self):
        # same fine and coarse scale must cancel exactly under shared draws
        rng = np.random.default_rng(6)
        mu = _uniform([tuple(p) for p in rng.uniform(0, 2, (9, 2))])
        rep = avg_cond_entropy(mu, (0.4, 0.3), (0.4, 0.3), QuadratureSpec(mode="qmc", offsets=256))
        assert rep.value == 0.0


class TestPartitionVsScaleConsistency:
    def test_dyadic_partition_tracks_scale_entropy(self):
        # H(mu, E_k) and H(mu; lambda^k) stay within a fixed gap as k grows.
        # The gap bound is empirical for this lambda; it is a consistency
        # check, not a theorem-level tolerance.
        rng = np.random.default_rng(21)
        mu = _uniform([tuple(p) for p in rng.uniform(0, 1, (30, 1))])
        lam = ScaleVector((0.7,))
        gaps = []
        for k in range(1, 11):
            hp = partition_entropy(mu, en(k, lam))
            ha = avg_entropy(mu, lam ** float(k)).value
            gaps.append(abs(hp - ha))
        assert max(gaps) < 1.5
