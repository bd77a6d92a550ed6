"""Acceptance gate: eleven criteria covering separation sanity, exact
overlap, the entropy-inequality suite, scale sequences, Lyapunov dimension,
Mahler measure, search oracle equivalence, decomposition optimality, tube
entropy, non-saturation, and CLI determinism.

Each test prints one `[criterion NN] PASS/FAIL` line and enforces the
criterion's runtime ceiling on top of its numeric tolerances.
"""

import itertools
import json
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

_TESTS_DIR = str(Path(__file__).resolve().parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

import test_decompose as decompose_suite
import test_entropy_lemmas as lemma_suite

from bconv.algebraic import (
    approximate_parameters,
    exact_overlap_depth,
    IntPolynomial,
    mahler_measure,
    min_value_poly_search,
    reduce_mod_minpoly,
)
from bconv.cli import dispatch
from bconv.decompose import bernoulli_decompose, tube_entropy_selfconv
from bconv.measures import from_atoms
from bconv.scales import s_sequence
from bconv.selfaffine import (
    build_level_n,
    dim_from_kappa,
    kappa_estimate,
    lyapunov_dimension,
    non_saturation_profile,
    rw_entropy_upper,
    SystemSpec,
)

DATA = Path(__file__).parent / "data"

pytestmark = pytest.mark.filterwarnings("ignore::bconv.errors.BoundaryHazardWarning")


@contextmanager
def criterion(num: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {desc}")
        raise
    dt = time.perf_counter() - t0
    print(f"[criterion {num:02d}] PASS - {desc} ({dt:.2f}s)")


def third_spec():
    return SystemSpec((1.0 / 3.0,), ((1,), (-1,)), (0.5, 0.5), ((-1, 3),))


def golden_spec():
    return SystemSpec(
        (0.6180339887498949,), ((1,), (-1,)), (0.5, 0.5), ((-1, 1, 1),)
    )


def test_c01_strong_separation_sanity():
    with criterion(1, "lambda=1/3 entropy dimension estimate"):
        t0 = time.perf_counter()
        rep = kappa_estimate(third_spec(), 12)
        assert 0.98 <= rep.kappa <= 1.0
        dim = dim_from_kappa(rep.kappa, third_spec())
        assert 0.618 <= dim <= 0.634
        assert time.perf_counter() - t0 < 5.0


def test_c02_golden_overlap_and_walk_entropy():
    with criterion(2, "golden-ratio overlap depth and walk-entropy bounds"):
        t0 = time.perf_counter()
        spec = golden_spec()
        assert exact_overlap_depth(spec, 5).per_axis == (3,)

        # independent exact count of the depth-3 word measure: reduce each
        # +-1 word modulo x^2 + x - 1 and accumulate dyadic masses
        mp = IntPolynomial((-1, 1, 1))
        states = Counter()
        for word in itertools.product((1, -1), repeat=3):
            states[reduce_mod_minpoly(word, mp)] += Fraction(1, 8)
        assert len(states) == 7
        h3 = -math.fsum(float(w) * math.log2(float(w)) for w in states.values())
        assert h3 == 2.75  # all masses dyadic, so the float sum is exact

        rw = {n: rw_entropy_upper(spec, n) for n in (3, 6, 12)}
        assert rw[3].value * 3 == pytest.approx(h3, abs=1e-12)
        assert rw[3].distinct_maps == 7
        assert rw[12].value < 0.97
        assert rw[3].value >= rw[6].value - 1e-12
        assert rw[6].value >= rw[12].value - 1e-12
        assert time.perf_counter() - t0 < 10.0


def test_c03_entropy_inequality_suite():
    with criterion(3, "eight entropy inequalities on 200 fixtures each"):
        t0 = time.perf_counter()
        lemma_suite.TestConditionalBounds().test_bounds()
        lemma_suite.TestScalingRelation().test_scaling()
        lemma_suite.TestTranslationInvariance().test_translation()
        lemma_suite.TestConvolutionMonotonicity().test_monotone()
        lemma_suite.TestSuperadditivity().test_superadditive()
        lemma_suite.TestConvolutionPowerInequality().test_power_gain_is_subadditive()
        lemma_suite.TestSeparatedBallAdditivity().test_additive()
        lemma_suite.TestSmallLeakBound().test_leak()
        assert time.perf_counter() - t0 < 60.0


def test_c04_scale_sequence_exactness():
    with criterion(4, "integer-ratio scale sequences bracket lambda^n exactly"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(404)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            lam = tuple(sorted(rng.uniform(0.15, 0.95, d), reverse=True))
            if len(set(lam)) != d:
                lam = tuple(0.9 / 2.0**j for j in range(d))
            n = int(rng.integers(50, 201))
            seq = s_sequence(lam, n)
            lam_exact = [Fraction(v) for v in lam]
            for m in range(n + 1):
                s = seq.exact_term(m)
                for j in range(d):
                    p = lam_exact[j] ** m
                    assert p <= s[j] < 2 * p  # exact rational comparison
            for m in range(1, n + 1):
                prev, cur = seq.exact_term(m - 1), seq.exact_term(m)
                for j in range(d):
                    ratio = prev[j] / cur[j]
                    assert ratio.denominator == 1 and ratio >= 1
                    assert ratio == seq.divisors[m - 1][j]
        assert time.perf_counter() - t0 < 1.0


def test_c05_lyapunov_dimension_values():
    with criterion(5, "Lyapunov dimension closed-form values"):
        s1 = SystemSpec((0.8, 0.3), ((1, 0), (0, 1)), (0.5, 0.5))
        rep1 = lyapunov_dimension(s1)
        assert abs(rep1.dim_lyapunov - 1.3904) < 1e-4
        s2 = SystemSpec((0.9, 0.8), ((1, 0), (0, 1)), (0.5, 0.5))
        rep2 = lyapunov_dimension(s2)
        assert rep2.gamma == 2.0


def test_c06_mahler_measures():
    with criterion(6, "certified Mahler measures"):
        t0 = time.perf_counter()
        assert abs(mahler_measure((-1, -1, 1)) - 1.6180340) < 1e-7
        assert abs(mahler_measure((-1, 2)) - 2.0) < 1e-9
        lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
        assert abs(mahler_measure(lehmer) - 1.176281) < 1e-5
        assert time.perf_counter() - t0 < 1.0


def test_c07_search_oracle_equivalence_and_recovery():
    with criterion(7, "search strategies agree; golden parameter recovered"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(707)
        small_sets = [(-1, 0, 1), (-2, 0, 2)]
        for i in range(50):
            xi = float(rng.uniform(0.05, 0.95))
            if i % 3 == 2:
                cs, n = (-1, 0, 1, 2), int(rng.integers(2, 11))
            else:
                cs, n = small_sets[i % 2], int(rng.integers(2, 15))
            a = min_value_poly_search(xi, n, cs, strategy="exhaustive")
            b = min_value_poly_search(xi, n, cs, strategy="meet-in-middle")
            assert a.poly == b.poly, (xi, n, cs)
            assert a.value == b.value, (xi, n, cs)

        rep = approximate_parameters((0.6180339887,), 3, ((-2, 0, 2),))
        ax = rep.axes[0]
        assert ax.status == "ok"
        assert ax.minpoly.coeffs == (-1, 1, 1)
        assert abs(ax.eta_float - 0.6180339887) <= 1e-9
        assert time.perf_counter() - t0 < 30.0


def test_c08_decomposition_optimality_and_windows():
    with criterion(8, "pairing matches the LP optimum; windows respected"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(808)
        with_edges = 0
        for trial in range(25):
            d = trial % 2 + 1
            nu, lam = decompose_suite._random_fixture(rng, d, int(rng.integers(4, 13)))
            dec = bernoulli_decompose(nu, lam, n=1, big_n=1, eps=0.01)
            opt, edges = decompose_suite._lp_optimum(
                nu, lam, 1, 1, dec.window_low, dec.window_high
            )
            assert dec.paired_mass == pytest.approx(opt, abs=1e-9)
            for rd in dec.rescaled_distance.tolist():
                assert dec.window_low - 1e-9 <= rd
                assert rd <= dec.window_high + 1e-9
            if edges:
                with_edges += 1
        assert with_edges >= 15

        nu = from_atoms(
            [((0.0,), 0.25), ((0.25,), 0.25), ((10.0,), 0.25), ((10.25,), 0.25)]
        )
        dec = bernoulli_decompose(nu, (0.5,), n=0, big_n=1, eps=0.1)
        assert dec.paired_mass == pytest.approx(1.0, abs=1e-12)
        assert dec.theta.mass == pytest.approx(0.0, abs=1e-12)
        assert time.perf_counter() - t0 < 30.0


def test_c09_tube_entropy():
    with criterion(9, "binomial tube fills its axis; quiet axis reads zero"):
        t0 = time.perf_counter()
        rep = tube_entropy_selfconv((0.0,), (1.0,), 4096, (0.5,), m=6)
        assert rep.rows[0].a == 6
        assert rep.rows[0].value > 0.85

        rep2 = tube_entropy_selfconv((0.0, 0.0), (1.0, 0.0), 4096, (0.5, 0.25), m=6)
        quiet = [r for r in rep2.rows if r.axis == 2]
        assert quiet and all(r.value == 0.0 for r in quiet)
        assert time.perf_counter() - t0 < 5.0


def test_c10_non_saturation_flags():
    with criterion(10, "point mass non-saturated; dyadic uniform saturates"):
        t0 = time.perf_counter()
        delta = from_atoms([((0.0,), 1.0)])
        for eps in (0.1, 0.5, 0.9):
            prof = non_saturation_profile(delta, (0.5,), eps, m=3, n_range=(1, 2, 3))
            assert prof.non_saturated
            assert all(v == 0.0 for _, _, v in prof.rows)

        k = 20
        pts = ((np.arange(2**k) + 0.5) / 2**k)[:, None]
        uniform = from_atoms(zip(pts, np.full(2**k, 2.0**-k)))
        prof = non_saturation_profile(uniform, (0.5,), eps=0.1, m=3, n_range=(2, 5, 8))
        assert not prof.non_saturated
        assert all(abs(v - 1.0) <= 0.02 for _, _, v in prof.rows)
        assert time.perf_counter() - t0 < 20.0


def test_c11_cli_determinism(tmp_path):
    with criterion(11, "seeded commands rerun byte-identically"):
        runs = {
            "dim": ["dim", "--spec", str(DATA / "third-1d.json"), "--n", "6"],
            "qmc": [
                "avg-entropy",
                "--measure",
                str(DATA / "pair.csv"),
                "--r",
                "0.37",
                "--quad",
                "qmc",
                "--seed",
                "0",
                "--offsets",
                "256",
            ],
            "dec": [
                "decompose",
                "--measure",
                str(DATA / "pair.csv"),
                "--lam",
                "0.5",
                "--n",
                "0",
                "--N",
                "1",
                "--eps",
                "0.1",
            ],
        }
        for tag, argv in runs.items():
            a = tmp_path / f"{tag}-a.json"
            b = tmp_path / f"{tag}-b.json"
            assert dispatch([*argv, "--out", str(a)]) == 0
            assert dispatch([*argv, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), tag
            json.loads(a.read_bytes())  # reports stay valid JSON
