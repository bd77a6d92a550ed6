"""Property suite for the average-entropy calculus.

Every inequality the entropy layer is supposed to satisfy is checked on 200
seeded random fixtures in dimensions 1 through 3 with the exact breakpoint
quadrature, so a violation beyond 1e-9 bits is an implementation bug, not
sampling noise.
"""

import math

import numpy as np
import pytest

from bconv.entropy import avg_cond_entropy, avg_entropy
from bconv.measures import DiscreteMeasure, convolve, from_atoms

TOL = 1e-9
N_FIXTURES = 200


def _measure(rng, d, max_atoms=8, lo=-2.0, hi=2.0):
    n = int(rng.integers(2, max_atoms + 1))
    w = rng.uniform(0.1, 1.0, n)
    w /= w.sum()
    return from_atoms(zip(rng.uniform(lo, hi, (n, d)), w))


def _dim(i):
    return i % 3 + 1


def _sum(pieces):
    """The measure whose atoms are those of all the pieces."""
    return DiscreteMeasure(
        np.concatenate([p.points for p in pieces]), np.concatenate([p.weights for p in pieces])
    )


class TestConditionalBounds:
    """0 <= H(mu; r | r') <= sum_j log2 ceil(r'_j / r_j) whenever r <= r'."""

    def test_bounds(self):
        rng = np.random.default_rng(101)
        for i in range(N_FIXTURES):
            d = _dim(i)
            mu = _measure(rng, d)
            r_coarse = rng.uniform(0.3, 1.5, d)
            ratio = rng.uniform(1.0, 4.0, d)
            r_fine = r_coarse / ratio
            v = avg_cond_entropy(mu, tuple(r_fine), tuple(r_coarse)).value
            ub = sum(
                math.log2(math.ceil(b / a - 1e-12)) for a, b in zip(r_fine, r_coarse)
            )
            assert v >= -TOL
            assert v <= ub + TOL


class TestScalingRelation:
    """H(mu; r) equals H(S_c mu; c*r) for any positive scale vector c."""

    def test_scaling(self):
        rng = np.random.default_rng(102)
        for i in range(N_FIXTURES):
            d = _dim(i)
            mu = _measure(rng, d)
            r = rng.uniform(0.1, 1.5, d)
            c = rng.uniform(0.2, 5.0, d)
            lhs = avg_entropy(mu, tuple(r)).value
            rhs = avg_entropy(DiscreteMeasure(mu.points * c, mu.weights), tuple(c * r)).value
            assert abs(lhs - rhs) <= TOL


class TestTranslationInvariance:
    """H(T_x mu; r) equals H(mu; r): the offset average kills the shift."""

    def test_translation(self):
        rng = np.random.default_rng(103)
        for i in range(N_FIXTURES):
            d = _dim(i)
            mu = _measure(rng, d)
            r = tuple(rng.uniform(0.1, 1.5, d))
            t = rng.uniform(-10.0, 10.0, d)
            lhs = avg_entropy(mu, r).value
            rhs = avg_entropy(DiscreteMeasure(mu.points + t, mu.weights), r).value
            assert abs(lhs - rhs) <= TOL


class TestConvolutionMonotonicity:
    """H(mu * nu; r | r') >= H(mu; r | r') at integer scale ratios."""

    def test_monotone(self):
        rng = np.random.default_rng(104)
        for i in range(N_FIXTURES):
            d = _dim(i)
            mu = _measure(rng, d, max_atoms=6)
            nu = _measure(rng, d, max_atoms=4, lo=-1.0, hi=1.0)
            r_fine = rng.uniform(0.1, 0.8, d)
            ratio = rng.integers(1, 5, d)
            r_coarse = r_fine * ratio
            base = avg_cond_entropy(mu, tuple(r_fine), tuple(r_coarse)).value
            conv = avg_cond_entropy(convolve(mu, nu), tuple(r_fine), tuple(r_coarse)).value
            assert conv >= base - TOL


class TestSuperadditivity:
    """H(mu_1 + ... + mu_k; r | r') >= sum_i H(mu_i; r | r'), integer ratios.

    The summands carry their masses; the mass-scaling convention for average
    entropy is what makes the right-hand side well defined.
    """

    def test_superadditive(self):
        rng = np.random.default_rng(105)
        for i in range(N_FIXTURES):
            d = _dim(i)
            k = int(rng.integers(2, 4))
            masses = rng.uniform(0.2, 1.0, k)
            masses /= masses.sum()
            pieces = []
            for m in masses:
                p = _measure(rng, d, max_atoms=5)
                pieces.append(DiscreteMeasure(p.points, p.weights * m))
            total = _sum(pieces)
            r_fine = rng.uniform(0.1, 0.8, d)
            r_coarse = r_fine * rng.integers(1, 5, d)
            whole = avg_cond_entropy(total, tuple(r_fine), tuple(r_coarse)).value
            parts = sum(
                avg_cond_entropy(p, tuple(r_fine), tuple(r_coarse)).value for p in pieces
            )
            assert whole >= parts - TOL


class TestConvolutionPowerInequality:
    """H(mu * nu^{*k}; r) - H(mu; r) <= k * (H(mu * nu; r) - H(mu; r)).

    The submodularity consequence for repeated convolution; k up to 8.
    """

    def test_power_gain_is_subadditive(self):
        rng = np.random.default_rng(106)
        for i in range(N_FIXTURES):
            d = _dim(i)
            # mu small and nu two-atom: nu^{*k} then has only k+1 atoms, so
            # the exact quadrature grid stays tractable even at k = 8, d = 3.
            mu = _measure(rng, d, max_atoms=4)
            nu = _measure(rng, d, max_atoms=2, lo=-1.0, hi=1.0)
            k = int(rng.integers(2, 9))
            r = tuple(rng.uniform(0.05, 1.0, d))
            h_mu = avg_entropy(mu, r).value
            h_one = avg_entropy(convolve(mu, nu), r).value
            power = mu
            for _ in range(k):
                power = convolve(power, nu)
            h_k = avg_entropy(power, r).value
            assert h_k - h_mu <= k * (h_one - h_mu) + TOL


class TestSeparatedBallAdditivity:
    """Conditional entropy splits over well-separated supports exactly."""

    def test_additive(self):
        rng = np.random.default_rng(107)
        for i in range(N_FIXTURES):
            d = _dim(i)
            k = int(rng.integers(2, 4))
            masses = rng.uniform(0.2, 1.0, k)
            masses /= masses.sum()
            pieces = []
            for b in range(k):
                center = np.full(d, 5.0 * b)  # far beyond any scale below
                n = int(rng.integers(2, 5))
                w = rng.uniform(0.1, 1.0, n)
                w = w / w.sum() * masses[b]
                pieces.append(from_atoms(zip(center + rng.uniform(-0.3, 0.3, (n, d)), w)))
            total = _sum(pieces)
            r_fine = tuple(rng.uniform(0.05, 0.5, d))
            r_coarse = tuple(rng.uniform(0.5, 1.0, d))
            whole = avg_cond_entropy(total, r_fine, r_coarse).value
            parts = sum(avg_cond_entropy(p, r_fine, r_coarse).value for p in pieces)
            assert abs(whole - parts) <= TOL


class TestSmallLeakBound:
    """Removing a small piece zeta from nu moves H(.; r | Nr) by at most
    2 ||zeta|| log2(||zeta||^{-1} det N) and never increases it past nu."""

    def test_leak(self):
        rng = np.random.default_rng(108)
        checked = 0
        for i in range(4 * N_FIXTURES):
            if checked >= N_FIXTURES:
                break
            d = _dim(i)
            nu = _measure(rng, d, max_atoms=8)
            keep = rng.random(nu.n_atoms) > 0.3
            if keep.all() or not keep.any():
                continue
            theta = DiscreteMeasure(nu.points[keep], nu.weights[keep])
            zeta = DiscreteMeasure(nu.points[~keep], nu.weights[~keep])
            z = zeta.mass
            if not (0.0 < z < 0.5):
                continue
            ratio = rng.integers(2, 5, d)
            r_fine = rng.uniform(0.1, 0.8, d)
            r_coarse = r_fine * ratio
            h_nu = avg_cond_entropy(nu, tuple(r_fine), tuple(r_coarse)).value
            h_theta = avg_cond_entropy(theta, tuple(r_fine), tuple(r_coarse)).value
            bound = 2.0 * z * math.log2(float(np.prod(ratio)) / z)
            assert h_theta <= h_nu + TOL
            assert h_nu <= h_theta + bound + TOL
            checked += 1
        assert checked == N_FIXTURES
