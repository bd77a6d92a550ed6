"""Partition entropy, conditional entropy, and average entropy quadrature."""

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bconv import entropy
from bconv.entropy import (
    Keying,
    QuadratureSpec,
    avg_cond_entropy,
    avg_entropy,
    conditional_entropy,
    en,
    en_join_projected,
    grid,
    partition_entropy,
    saturation_defect,
)
from bconv.errors import BoundaryHazardWarning, BudgetExceededError
from bconv.measures import DiscreteMeasure, delta, from_atoms
from bconv.scales import ScaleVector
from bconv.decompose import tube_entropy_selfconv
from bconv.selfaffine import SystemSpec, build_level_n, kappa_estimate, non_saturation_profile

SRC = Path(__file__).resolve().parent.parent / "src"
PAIR_CSV = Path(__file__).parent / "data" / "pair.csv"


def _uniform(points):
    n = len(points)
    return from_atoms((p, 1.0 / n) for p in points)


def _scaled(mu, c):
    """mu with every weight multiplied by c."""
    return DiscreteMeasure(mu.points, mu.weights * c)


def _lexsort_grouped_entropy(codes: np.ndarray, weights: np.ndarray, total: float) -> float:
    """Entropy in bits of weights grouped by identical code rows.

    Groups are visited in sorted code order, so the summation order is a
    function of the partition alone.
    """
    n, c = codes.shape
    if n == 0:
        raise ValueError("measure has no atoms")
    if c == 0 or n == 1:
        return 0.0
    order = np.lexsort(codes.T[::-1])
    sc = codes[order]
    sw = weights[order]
    boundary = np.any(sc[1:] != sc[:-1], axis=1)
    starts = np.concatenate(([0], np.nonzero(boundary)[0] + 1))
    g = np.add.reduceat(sw, starts)
    p = g / total
    return float(-np.dot(p, np.log2(p)))


def _key_cases():
    """Seeded (name, key matrix) cases for the packed-code grouping."""
    rng = np.random.default_rng(2024)
    big = 2**52 - 1
    near_limit = np.array([-big, -big + 1, -big + 3, big - 2, big])
    wide = np.array([-(2**21), 0, 2**21])
    a, b = rng.integers(-3, 3, 400), rng.integers(0, 5, 400)
    return [
        ("negative", rng.integers(-50, 50, (500, 3))),
        ("no-columns", np.empty((40, 0), dtype=np.int64)),
        ("one-column", rng.integers(-7, 7, (300, 1))),
        ("one-row", rng.integers(-9, 9, (1, 4))),
        ("one-row-no-columns", np.empty((1, 0), dtype=np.int64)),
        ("repeated-columns", np.column_stack([a, b, a, b, a])),
        ("near-2^52", rng.choice(near_limit, (600, 3))),
        # ranges of 2^22 + 1 per column: three columns pass 2^62
        ("ranks-the-code", rng.choice(wide, (700, 4))),
        # a range of 2^53 after a code of 2000 values: the column is ranked too
        ("ranks-the-column", np.column_stack([rng.permutation(4000) // 2, rng.choice(near_limit, 4000)])),
        ("constant", np.full((50, 2), -4)),
    ]


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
        mu = _scaled(_uniform([(0.1,), (1.1,)]), 7.0)
        assert partition_entropy(mu, grid(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="positive mass"):
            partition_entropy(from_atoms([]), grid(1.0))

    def test_trivial_keying_gives_zero(self):
        mu = _uniform([(0.0,), (5.0,)])
        assert partition_entropy(mu, Keying(1, ())) == 0.0


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


class TestPackedGrouping:
    """The packed-code grouping against the lexsort grouping it replaced."""

    @pytest.mark.parametrize("name, keys", _key_cases(), ids=[c[0] for c in _key_cases()])
    def test_equals_lexsort_oracle(self, name, keys):
        w = np.random.default_rng(len(keys)).uniform(0.1, 1.0, len(keys))
        total = float(w.sum())
        code = entropy._packed_code(list(keys.T))
        got = entropy._grouped_entropy(code, w, total)
        assert got == _lexsort_grouped_entropy(keys, w, total)
        if keys.shape[1]:
            # the stable sort of the code is lexsort's permutation
            order = np.argsort(code, kind="stable")
            assert np.array_equal(order, np.lexsort(keys.T[::-1]))

    def test_rank_cases_pass_the_code_limit(self):
        cases = dict(_key_cases())
        spans = [int(c.max()) - int(c.min()) + 1 for c in cases["ranks-the-code"].T]
        assert math.prod(spans[:3]) >= entropy._CODE_LIMIT
        first, second = cases["ranks-the-column"].T
        assert len(np.unique(first)) * (int(second.max()) - int(second.min()) + 1) >= entropy._CODE_LIMIT

    def test_partition_and_conditional_entropy_equal_oracle(self):
        rng = np.random.default_rng(31)
        lam = ScaleVector((0.7, 0.4))
        pts, wts = rng.uniform(-3, 3, (400, 2)), rng.uniform(0.1, 1, 400)
        mu = from_atoms((tuple(p), w) for p, w in zip(pts, wts))
        w, t = mu.weights, mu.mass
        for n in range(0, 9, 2):
            k = en(n, lam)
            # a repeated column is dropped from the code, not from the oracle
            doubled = k.join(k)
            assert partition_entropy(mu, doubled) == _lexsort_grouped_entropy(
                doubled.key_matrix(mu.points), w, t
            )
            fine, coarse = en(n + 3, lam), en_join_projected(n, 3, [2], lam)
            joined = fine.join(coarse).key_matrix(mu.points)
            oracle = _lexsort_grouped_entropy(joined, w, t) - _lexsort_grouped_entropy(
                joined[:, len(fine.columns) :], w, t
            )
            assert conditional_entropy(mu, fine, coarse) == oracle, n
            assert saturation_defect(mu, lam, 1, n, 3) == oracle / 3, n


class TestConditionalEntropy:
    def test_fine_equals_coarse(self):
        mu = _uniform([(0.1,), (1.4,), (2.9,)])
        assert conditional_entropy(mu, grid(1.0), grid(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_coarse_collapses(self):
        mu = _uniform([(0.1,), (1.4,), (2.9,)])
        lhs = conditional_entropy(mu, grid(1.0), Keying(1, ()))
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


class TestSaturationDefect:
    def test_matches_conditional_entropy_over_joined_keying(self):
        rng = np.random.default_rng(8)
        lam = ScaleVector((0.7, 0.4, 0.2))
        pts, wts = rng.uniform(-1, 1, (60, 3)), rng.uniform(0.1, 1, 60)
        mu = from_atoms((tuple(p), w) for p, w in zip(pts, wts))
        for j, n, m in itertools.product((1, 2, 3), (0, 2, 4), (1, 3)):
            other = [a for a in (1, 2, 3) if a != j]
            coarse = en_join_projected(n, m, other, lam)
            expected = conditional_entropy(mu, en(n + m, lam), coarse) / m
            assert saturation_defect(mu, lam, j, n, m) == expected, (j, n, m)

    def test_one_dimension_conditions_on_level_n(self):
        mu = _uniform([(0.1,), (0.3,), (0.6,), (0.9,)])
        assert saturation_defect(mu, (0.5,), 1, 0, 2) == 1.0  # 4 cells of E_2 over 1 / 2

    def test_axis_out_of_range(self):
        mu = _uniform([(0.1, 0.2)])
        for j in (0, 3):
            with pytest.raises(ValueError, match="axis"):
                saturation_defect(mu, (0.5, 0.25), j, 1, 1)

    def test_profile_and_tube_key_each_distinct_column_once(self, monkeypatch):
        keyed, batches = [], []
        column_keys, column_key = entropy._column_keys, entropy._Column.keys
        monkeypatch.setattr(
            entropy, "_column_keys", lambda pts, k: batches.append(k) or column_keys(pts, k)
        )
        monkeypatch.setattr(
            entropy._Column, "keys", lambda col, pts: keyed.append(col) or column_key(col, pts)
        )
        spec = SystemSpec(
            (0.6180339887498949, 0.3819660112501051), ((0, 0), (1, 0), (0, 1)), (1 / 3, 1 / 3, 1 / 3)
        )
        mu = build_level_n(spec, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryHazardWarning)
            prof = non_saturation_profile(mu, spec.lam, 0.1, 3, range(1, 6))
        assert len(prof.rows) == 10
        distinct = {
            c
            for j, n in itertools.product((1, 2), range(1, 6))
            for c in en(n + 3, spec.lam).columns
            + en_join_projected(n, 3, [3 - j], spec.lam).columns
        }
        # per-defect keying would key 10 defects x 5 columns
        assert len(batches) == 1 and sorted(keyed, key=repr) == sorted(distinct, key=repr)

        keyed.clear()
        batches.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryHazardWarning)
            rep = tube_entropy_selfconv((0, 0), (1, 0), 64, spec.lam, 4, level=3)
        assert len(rep.rows) == 2
        assert len(batches) == 1 and len(keyed) == len(set(keyed))

    def test_one_hazard_warning_per_profile(self):
        # dyadic atoms on cell edges; the profile keys axis 1 at levels 1..3
        # and axis 2 at levels 2, 4, 6
        pts = [(0.5, 0.25), (0.75, 0.125), (0.3, 0.7)]
        nudged = sum(
            float(p[axis] * 2**k).is_integer()
            for p in pts
            for axis, levels in ((0, (1, 2, 3)), (1, (2, 4, 6)))
            for k in levels
        )
        assert nudged == 10
        with pytest.warns(BoundaryHazardWarning) as rec:
            non_saturation_profile(_uniform(pts), (0.5, 0.25), 0.1, 1, [1, 2])
        assert len(rec) == 1
        assert str(rec[0].message).startswith(f"{nudged} atom coordinate(s)")

    def test_one_hazard_warning_per_tube(self):
        with pytest.warns(BoundaryHazardWarning) as rec:
            tube_entropy_selfconv((0, 0), (1, 0), 16, (0.5, 0.25), 2, level=2)
        assert len(rec) == 1


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
        assert avg_entropy(_scaled(mu, 2.0), 1.0).value == pytest.approx(1.0, abs=1e-12)
        assert avg_entropy(_scaled(mu, 0.25), 1.0).value == pytest.approx(0.125, abs=1e-12)
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
        with pytest.raises(ValueError, match="two offsets"):
            QuadratureSpec(mode="qmc", offsets=1)
        with pytest.raises(ValueError):
            QuadratureSpec(cell_budget=0)


def _corner_oracle(mu, r):
    """Sum over every breakpoint cell of its volume times the QMC kernel's
    entropy at the cell's left corner: the cell-by-cell quadrature."""
    base, thr = entropy._breakpoints(mu.points / np.asarray(r))
    edges = [np.concatenate(([0.0], np.unique(t[t < 1.0]))) for t in thr.T]
    lengths = [np.diff(np.append(e, 1.0)) for e in edges]
    corners = np.array(list(itertools.product(*edges)))
    vols = np.array([math.prod(v) for v in itertools.product(*lengths)])
    w = mu.weights / mu.mass
    h = entropy._offset_entropies(base, thr, w, float(w.sum()), corners)
    return mu.mass * float(np.dot(vols, h)), len(corners)


def _sweep_fixture(kind, d):
    rng = np.random.default_rng(70 + 10 * d + len(kind))
    n = {1: 40, 2: 14, 3: 10}[d]
    # dense enough that atoms often share a cell, so the integrand varies
    pts = rng.uniform(-1.0, 1.0, (n, d))
    r = rng.uniform(0.3, 0.9, d)
    if kind in ("ties", "grid-lines"):
        # r = 1/2 and grid coordinates on multiples of 1/8: y = x / r is exact
        r = np.full(d, 0.5)
        if kind == "ties":
            # half the atoms have frac(y) in {1/4, 1/2, 3/4} on every axis and
            # 3/4 on the last, so several share a threshold; none lies on a
            # grid line
            h = n // 2
            pts[:h] = (4 * rng.integers(-2, 4, (h, d)) + rng.integers(1, 4, (h, d))) / 8.0
            pts[:h, -1] = np.floor(pts[:h, -1]) + 0.375
        else:
            pts = rng.integers(-8, 16, (n, d)) / 8.0
            pts[::2] = np.round(pts[::2] * 2.0) / 2.0  # y integer: threshold 1
    elif kind == "negative":
        pts = rng.uniform(-2.0, -0.1, (n, d))
    w = rng.uniform(0.1, 1.0, n)
    mu = from_atoms((tuple(p), float(v)) for p, v in zip(pts, w / w.sum()))
    if kind == "mass":
        mu = _scaled(mu, 3.7)
    return mu, tuple(r)


class TestExactSweep:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["ties", "grid-lines", "negative", "mass", "chunks"])
    def test_sweep_equals_corner_oracle(self, kind, d, monkeypatch):
        mu, r = _sweep_fixture(kind, d)
        expected, cells = _corner_oracle(mu, r)
        if kind == "chunks":
            # one outer breakpoint row per chunk
            monkeypatch.setattr(entropy, "_rows_per_chunk", lambda n: 1)
        rep = avg_entropy(mu, r)
        assert (rep.method, rep.offsets_used, rep.error_bound) == ("exact", cells, 1e-10)
        assert abs(rep.value - expected) <= 1e-12

    def test_fixtures_hit_ties_and_grid_lines(self):
        for d in (1, 2, 3):
            mu, r = _sweep_fixture("ties", d)
            _, thr = entropy._breakpoints(mu.points / np.asarray(r))
            assert np.unique(thr[:, -1], return_counts=True)[1].max() >= 3
            assert np.all(thr < 1.0)
            mu, r = _sweep_fixture("grid-lines", d)
            _, thr = entropy._breakpoints(mu.points / np.asarray(r))
            assert np.any(thr == 1.0, axis=0).all()


class TestQmcKernel:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["ties", "grid-lines", "negative", "mass", "chunks"])
    def test_matches_sort_kernel(self, kind, d, monkeypatch):
        mu, r = _sweep_fixture(kind, d)
        base, thr = entropy._breakpoints(mu.points / np.asarray(r))
        # Sobol points, plus rows that sit exactly on atom thresholds so
        # that u_j >= thr is decided at equality
        offsets = np.vstack((entropy._sobol_offsets(d, 256, 3), np.where(thr < 1.0, thr, 0.0)))
        if kind == "chunks":
            monkeypatch.setattr(entropy, "_rows_per_chunk", lambda n, keys=None: 7)
        w, total = mu.weights, mu.mass
        got = entropy._offset_entropies(base, thr, w, total, offsets)
        want = entropy._sorted_offset_entropies(base, thr, w, total, offsets)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.fixture
    def sort_calls(self, monkeypatch):
        calls = []
        kernel = entropy._sorted_offset_entropies

        def spy(*args):
            calls.append(args[0].shape)
            return kernel(*args)

        monkeypatch.setattr(entropy, "_sorted_offset_entropies", spy)
        return calls

    def test_few_atoms_in_dimension_22_are_answered(self, sort_calls):
        # two atoms in dimension 22 have 2 * 2^22 candidate cells, past the
        # table limit; they share a cell unless some u_j >= 0.7
        mu = _uniform([(0.0,) * 22, (0.3,) * 22])
        rep = avg_entropy(mu, 1.0, QuadratureSpec(mode="qmc", offsets=16))
        offsets = entropy._sobol_offsets(22, 16, 0)
        assert rep.method == "qmc" and rep.offsets_used == 16
        assert rep.value == pytest.approx(np.mean(np.any(offsets >= 0.7, axis=1)), abs=1e-12)
        assert sort_calls == [(2, 22)]

    def test_more_than_2_pow_21_atoms_in_one_dimension_are_answered(self, sort_calls):
        n = (1 << 21) + 1
        x = np.random.default_rng(21).uniform(0.0, n / 4.0, n)  # about 4 atoms a cell
        mu = DiscreteMeasure(x[:, None], np.full(n, 1.0 / n))
        rep = avg_entropy(mu, 1.0, QuadratureSpec(mode="qmc", offsets=2))
        assert rep.method == "qmc" and rep.offsets_used == 2
        assert sort_calls == [(n, 1)]
        # each offset's partition entropy straight from the cell rule
        y = mu.points[:, 0]
        h = []
        for u in entropy._sobol_offsets(1, 2, 0)[:, 0]:
            cell = np.floor(y) + (u >= 1.0 - (y - np.floor(y)))
            p = np.bincount(np.unique(cell, return_inverse=True)[1], weights=mu.weights) / mu.mass
            h.append(-np.sum(p * np.log2(p)))
        assert rep.value == pytest.approx(np.mean(h), abs=1e-9)


class TestSobolOffsets:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 16, 32])
    def test_bit_identical_to_scipy(self, d):
        from scipy.stats import qmc  # the oracle only; bconv does not import it

        for seed in (0, 1, 42, 300, 301):
            for count in (1, 2, 3, 5, 16, 100, 1024, 2048, 4096):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    want = qmc.Sobol(d, scramble=True, seed=seed).random(count)
                    got = entropy._sobol_offsets(d, count, seed)
                assert got.dtype == want.dtype and np.array_equal(got, want), (seed, count)

    def test_refuses_dimension_33(self):
        with pytest.raises(ValueError, match="dimension <= 32"):
            entropy._sobol_offsets(33, 16, 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda q: entropy._sobol_offsets(2, q.offsets, q.seed),
            lambda q: avg_entropy(_uniform([(0.0, 0.0), (0.3, 0.6)]), 0.5, q),
            lambda q: avg_cond_entropy(_uniform([(0.0, 0.0), (0.3, 0.6)]), 0.25, 0.5, q),
        ],
        ids=["sobol", "avg_entropy", "avg_cond_entropy"],
    )
    def test_non_power_of_two_warns_at_caller(self, call):
        with pytest.warns(UserWarning, match="power of 2") as rec:
            call(QuadratureSpec(mode="qmc", offsets=100))
        assert rec[0].filename == __file__

    @pytest.mark.parametrize("count", [16, 2048])
    def test_power_of_two_is_silent(self, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entropy._sobol_offsets(2, count, 0)

    def test_qmc_cli_never_imports_scipy_stats(self):
        code = (
            "import sys\n"
            "from bconv.cli import dispatch\n"
            f"argv = ['avg-entropy', '--measure', {str(PAIR_CSV)!r}, '--r', '0.37',\n"
            "        '--quad', 'qmc', '--offsets', '64', '--seed', '3']\n"
            "assert dispatch(argv) == 0\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert res.stdout.strip().splitlines()[-1] == "False"

    def test_separation_and_decompose_never_import_scipy_spatial(self, tmp_path):
        # one grid neighbour search serves the joint gap and the pair window
        spec = tmp_path / "three-maps-2d.json"
        maps = [{"a": [0, 0], "p": 0.2}, {"a": [1, 0], "p": 0.3}, {"a": [0, 1], "p": 0.5}]
        spec.write_text(json.dumps({"lambda": [0.61, 0.37], "maps": maps}))
        code = (
            "import sys\n"
            "from bconv.cli import dispatch\n"
            f"assert dispatch(['separation', '--spec', {str(spec)!r}, '--n', '2']) == 0\n"
            f"assert dispatch(['decompose', '--measure', {str(PAIR_CSV)!r}, '--lam', '0.5',\n"
            "                 '--n', '1', '--N', '1', '--eps', '0.1']) == 0\n"
            "print('scipy.spatial' in sys.modules)\n"
        )
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert res.stdout.strip().splitlines()[-1] == "False"


class TestWarningLocation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: partition_entropy(_uniform([(0.0,), (0.3,)]), grid(0.5)),
            lambda: non_saturation_profile(
                _uniform([(0.0, 0.0), (0.5, 0.3)]), (0.5, 0.25), 0.1, 1, [1]
            ),
            lambda: kappa_estimate(SystemSpec((0.5,), ((1,), (-1,)), (0.5, 0.5)), 1),
        ],
        ids=["partition_entropy", "non_saturation_profile", "kappa_estimate"],
    )
    def test_warnings_point_at_caller(self, call):
        # the same rule as the non-power-of-two Sobol warning: a keying
        # nudge or the n = 1 kappa warning names the caller's line
        with pytest.warns(UserWarning) as rec:
            call()
        assert [w.filename for w in rec] == [__file__] * len(rec)


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


    def test_qmc_is_difference_of_two_plain_calls(self):
        # both scales see one seeded draw: the conditional value is exactly
        # the difference of two independent avg_entropy calls
        rng = np.random.default_rng(12)
        mu = _uniform([tuple(p) for p in rng.uniform(0, 3, (40, 2))])
        quad = QuadratureSpec(mode="qmc", offsets=128, seed=5)
        fine = avg_entropy(mu, (0.3, 0.2), quad)
        coarse = avg_entropy(mu, (0.9, 0.7), quad)
        rep = avg_cond_entropy(mu, (0.3, 0.2), (0.9, 0.7), quad)
        assert rep.value == fine.value - coarse.value
        assert rep.error_bound == fine.error_bound + coarse.error_bound
        assert (rep.method, rep.offsets_used) == ("qmc", 128)


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
