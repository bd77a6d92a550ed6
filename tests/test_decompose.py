"""Tests for Bernoulli-pair decomposition, entropy-increase reports, and
tube entropy of pair self-convolutions.

The max-flow pairing is cross-checked against an LP solved by HiGHS on the
same edge set: maximize total pair mass subject to per-atom capacity w_v on
the incident half-masses.  Agreement to 1e-9 on random fixtures is the
correctness certificate for the flow reduction.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, csr_matrix
from scipy.spatial import cKDTree

from bconv import decompose
from bconv.decompose import (
    _admissible_pairs,
    _maxflow_pairing,
    _row_norms,
    bernoulli_decompose,
    entropy_increase_gap,
    tube_entropy_selfconv,
)
from bconv.measures import from_atoms
from bconv.scales import s_sequence

SRC = Path(__file__).resolve().parent.parent / "src"


def _random_fixture(rng, d, n_atoms, n=1, big_n=1):
    """Atoms placed in rescaled coordinates so the window has edges."""
    lam_raw = np.sort(rng.uniform(0.2, 0.9, d))[::-1]
    lam = tuple(float(v) for v in np.unique(lam_raw)[::-1])
    if len(lam) != d:
        lam = tuple(0.8 / (2.0**j) for j in range(d))
    r_high = 2.0 * float(np.linalg.norm(np.array(lam) ** (-3.0 * big_n)))
    s_pair = s_sequence(lam, n + 2 * big_n).term(n + 2 * big_n).as_array()
    z = rng.uniform(0.0, 0.6 * r_high, (n_atoms, d))
    w = rng.uniform(0.05, 1.0, n_atoms)
    w /= w.sum()
    nu = from_atoms(zip(z * s_pair, w))
    return nu, lam


def _lp_optimum(nu, lam, n, big_n, window_low, window_high):
    """Maximal total pair mass by linear programming on the same edges."""
    s_pair = s_sequence(lam, n + 2 * big_n).term(n + 2 * big_n).as_array()
    z = nu.points / s_pair
    edges = []
    for i in range(nu.n_atoms):
        for j in range(i + 1, nu.n_atoms):
            dist = float(np.linalg.norm(z[i] - z[j]))
            if window_low <= dist <= window_high:
                edges.append((i, j))
    if not edges:
        return 0.0, edges
    a_ub = np.zeros((nu.n_atoms, len(edges)))
    for e, (i, j) in enumerate(edges):
        a_ub[i, e] = 0.5
        a_ub[j, e] = 0.5
    res = linprog(
        c=-np.ones(len(edges)),
        A_ub=a_ub,
        b_ub=nu.weights,
        bounds=[(0, None)] * len(edges),
        method="highs",
    )
    assert res.status == 0
    return -res.fun, edges


def _sparse_lp_optimum(nu, lam, n, big_n, window_low, window_high):
    """The LP of _lp_optimum with a sparse constraint matrix, for many atoms."""
    s_pair = s_sequence(lam, n + 2 * big_n).term(n + 2 * big_n).as_array()
    z = nu.points / s_pair
    pairs = cKDTree(z).query_pairs(window_high * (1 + 1e-9), output_type="ndarray")
    dist = np.linalg.norm(z[pairs[:, 0]] - z[pairs[:, 1]], axis=1)
    pairs = pairs[(dist >= window_low) & (dist <= window_high)]
    e = len(pairs)
    a_ub = coo_matrix(
        (np.full(2 * e, 0.5), (pairs.ravel(), np.repeat(np.arange(e), 2))),
        shape=(nu.n_atoms, e),
    ).tocsr()
    res = linprog(-np.ones(e), A_ub=a_ub, b_ub=nu.weights, bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


def _loop_edges(z, window_low, window_high):
    """Admissible edges as the per-pair loop computed them before vectorising."""
    edges = []
    for i, j in sorted(cKDTree(z).query_pairs(window_high * (1 + 1e-12))):
        dist = float(np.linalg.norm(z[i] - z[j]))
        if window_low <= dist <= window_high:
            edges.append((i, j, dist))
    return edges


class TestMaxFlowAgainstLP:
    def test_random_fixtures_match_lp(self):
        rng = np.random.default_rng(2024)
        solved_with_edges = 0
        for trial in range(25):
            d = trial % 2 + 1
            nu, lam = _random_fixture(rng, d, int(rng.integers(4, 13)))
            dec = bernoulli_decompose(nu, lam, n=1, big_n=1, eps=0.01)
            opt, edges = _lp_optimum(nu, lam, 1, 1, dec.window_low, dec.window_high)
            assert dec.paired_mass == pytest.approx(opt, abs=1e-9), trial
            assert dec.method == "max-flow"
            assert dec.optimality_gap == 0.0
            if edges:
                solved_with_edges += 1
        assert solved_with_edges >= 15  # the fixture generator must not degenerate

    def test_per_atom_feasibility_and_mass_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            nu, lam = _random_fixture(rng, 2, 10)
            dec = bernoulli_decompose(nu, lam, n=0, big_n=1, eps=0.05)
            used = {}
            for p in dec.pairs:
                assert p.mass > 0.0
                used[p.x] = used.get(p.x, 0.0) + p.mass / 2.0
                used[p.y] = used.get(p.y, 0.0) + p.mass / 2.0
            by_point = {tuple(float(c) for c in pt): w for pt, w in zip(nu.points, nu.weights)}
            for pt, u in used.items():
                assert u <= by_point[pt] + 1e-12
            assert dec.mass_identity_defect() < 1e-12
            assert dec.original_mass == nu.mass


class TestEdgeConstruction:
    def test_edges_and_distances_match_the_loop(self):
        rng = np.random.default_rng(31)
        for d in (1, 2, 3):
            for _ in range(4):
                nu, lam = _random_fixture(rng, d, int(rng.integers(30, 80)))
                dec = bernoulli_decompose(nu, lam, n=1, big_n=1, eps=0.05)
                seq = s_sequence(lam, 3)
                s_pair, s_stmt = seq.term(3).as_array(), seq.term(1).as_array()
                z = nu.points / s_pair
                want = _loop_edges(z, dec.window_low, dec.window_high)
                assert want, d
                ei, ej, dist = _admissible_pairs(z, dec.window_low, dec.window_high)
                assert list(zip(ei.tolist(), ej.tolist(), dist.tolist())) == want
                assert dec.pairs
                for p in dec.pairs:
                    x, y = np.array(p.x), np.array(p.y)
                    assert p.rescaled_distance == float(np.linalg.norm(x / s_pair - y / s_pair))
                    assert p.statement_distance == float(np.linalg.norm((x - y) / s_stmt))

    def test_row_norms_bit_identical_to_per_row_norm(self):
        # norm(rows, axis=1) differs from the per-row norm in the last bit on
        # about one row in ten at d = 2; the edge distances must not.
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            rows = rng.standard_normal((5000, d)) * rng.uniform(0.1, 100.0, (5000, 1))
            want = [float(np.linalg.norm(r)) for r in rows]
            assert _row_norms(rows).tolist() == want


class TestExactSolver:
    def test_odd_cycle_takes_the_fractional_optimum(self):
        # rescaled gaps 1, 1 and 2: all three pairs admissible.  A single
        # integral pair carries 2/3; splitting every atom over both of its
        # pairs carries everything.
        third = 1.0 / 3.0
        nu = from_atoms([((0.0,), third), ((0.25,), third), ((0.5,), third)])
        dec = bernoulli_decompose(nu, (0.5,), n=0, big_n=1, eps=0.1)
        assert dec.method == "max-flow"
        assert dec.optimality_gap == 0.0
        assert dec.paired_mass == 1.0
        assert [p.mass for p in dec.pairs] == [third, third, third]

    def test_capacities_beyond_int32(self):
        tiny = 2.0**-45
        nu = from_atoms([((0.0,), 0.5 - tiny), ((0.25,), 0.5 + tiny)])
        dec = bernoulli_decompose(nu, (0.5,), n=0, big_n=1, eps=0.1)
        assert dec.method == "max-flow"
        assert dec.optimality_gap == 0.0
        (pair,) = dec.pairs
        assert Fraction(pair.mass) == 1 - Fraction(1, 2**44)
        assert Fraction(dec.paired_mass) == 1 - Fraction(1, 2**44)
        assert Fraction(dec.theta.mass) == Fraction(1, 2**44)

    def test_capacities_beyond_int64(self):
        # Two clusters: gaps inside a cluster fall below the 1/6 floor and
        # every cross gap is admissible, so the optimum is 2 min(W_A, W_B).
        rng = np.random.default_rng(64)
        w = rng.uniform(0.0, 1.0, 12) ** 6
        w[[2, 9]] = (3e-9, 7e-11)
        w /= w.sum()
        x = np.concatenate((np.arange(7) * 0.001, 1.0 + np.arange(5) * 0.001))
        nu = from_atoms(zip(x[:, None], w))
        fracs = [Fraction(v) for v in nu.weights.tolist()]
        assert math.lcm(*(f.denominator for f in fracs)) >= 2**64
        side_a = nu.points[:, 0] < 0.5
        w_a = sum(f for f, a in zip(fracs, side_a) if a)
        w_b = sum(f for f, a in zip(fracs, side_a) if not a)
        optimum = 2 * min(w_a, w_b)

        z = nu.points / s_sequence((0.5,), 2).term(2).as_array()
        ei, ej, _ = _admissible_pairs(z, 1.0 / 6.0, 16.0)
        assert len(ei) == 35
        num, scale = _maxflow_pairing(nu.n_atoms, nu.weights, ei, ej)
        assert Fraction(sum(num.tolist()), scale) == optimum
        used = [0] * nu.n_atoms
        for i, j, m in zip(ei.tolist(), ej.tolist(), num.tolist()):
            assert m >= 0
            used[i] += m
            used[j] += m
        assert all(Fraction(u, 2 * scale) <= f for u, f in zip(used, fracs))

        dec = bernoulli_decompose(nu, (0.5,), n=0, big_n=1, eps=0.1)
        assert dec.method == "max-flow"
        assert dec.optimality_gap == 0.0
        assert dec.paired_mass == pytest.approx(float(optimum), rel=1e-15)
        assert dec.mass_identity_defect() < 1e-12

    def test_certificate_rejects_a_flow_that_breaks_conservation(self, monkeypatch):
        # A solver that fills the source edges and nothing else reaches the
        # flow value of a cut, but not as a flow: the certificate refuses it.
        def fake(graph, source, sink, method):
            graph = csr_matrix(graph)
            flow = np.zeros(graph.shape, dtype=np.int32)
            flow[source] = graph[source].toarray().ravel()
            return SimpleNamespace(flow=csr_matrix(flow - flow.T))

        monkeypatch.setattr("scipy.sparse.csgraph.maximum_flow", fake)
        nu = from_atoms([((0.0,), 0.25), ((0.25,), 0.25), ((10.0,), 0.25), ((10.25,), 0.25)])
        with pytest.raises(RuntimeError, match="certificate"):
            bernoulli_decompose(nu, (0.5,), n=0, big_n=1, eps=0.1)

    def test_two_thousand_atoms_match_sparse_lp(self):
        rng = np.random.default_rng(2000)
        x = np.arange(2000) * 0.5 + rng.uniform(-0.1, 0.1, 2000)
        w = rng.uniform(0.1, 1.0, 2000)
        nu = from_atoms(zip(x[:, None], w / w.sum()))
        t0 = time.perf_counter()
        dec = bernoulli_decompose(nu, (0.5,), n=1, big_n=1, eps=0.05)
        elapsed = time.perf_counter() - t0
        opt = _sparse_lp_optimum(nu, (0.5,), 1, 1, dec.window_low, dec.window_high)
        assert dec.method == "max-flow"
        assert dec.optimality_gap == 0.0
        assert abs(dec.paired_mass - opt) <= 1e-9
        assert dec.mass_identity_defect() < 1e-12
        assert elapsed < 5.0


def test_decompose_never_imports_networkx():
    code = (
        "import sys\n"
        "from bconv.decompose import bernoulli_decompose\n"
        "from bconv.measures import from_atoms\n"
        "nu = from_atoms([((0.0,), 0.25), ((0.25,), 0.25), ((10.0,), 0.25), ((10.25,), 0.25)])\n"
        "assert bernoulli_decompose(nu, (0.5,), n=0, big_n=1, eps=0.1).method == 'max-flow'\n"
        "print('networkx' in sys.modules)\n"
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
    assert res.stdout.strip() == "False"


class TestTwoPairFixture:
    def test_fully_paired(self):
        # two isolated pairs at admissible separation: everything pairs off
        nu = from_atoms(
            [((0.0,), 0.25), ((0.25,), 0.25), ((10.0,), 0.25), ((10.25,), 0.25)]
        )
        dec = bernoulli_decompose(nu, (0.5,), n=0, big_n=1, eps=0.1)
        assert dec.paired_mass == pytest.approx(1.0, abs=1e-12)
        assert dec.theta.mass == pytest.approx(0.0, abs=1e-12)
        assert len(dec.pairs) == 2
        for p in dec.pairs:
            assert p.mass == pytest.approx(0.5, abs=1e-12)
            # s_2 = 1/4 for lambda = 1/2, so the rescaled gap is exactly 1
            assert p.rescaled_distance == pytest.approx(1.0, abs=1e-12)
            assert p.statement_distance == pytest.approx(0.25, abs=1e-12)
            assert p.in_statement_window
        assert dec.window_low == pytest.approx(1.0 / 6.0)
        assert dec.window_high == pytest.approx(16.0)

    def test_statement_window_flag_tightens_with_eps(self):
        nu = from_atoms(
            [((0.0,), 0.25), ((0.25,), 0.25), ((10.0,), 0.25), ((10.25,), 0.25)]
        )
        dec = bernoulli_decompose(nu, (0.5,), n=0, big_n=1, eps=0.5)
        # statement distance 0.25 < eps = 0.5 now falls outside the loose window
        assert all(not p.in_statement_window for p in dec.pairs)
        assert dec.paired_mass == pytest.approx(1.0, abs=1e-12)


class TestWindowDiscipline:
    def test_all_reported_pairs_respect_window(self):
        rng = np.random.default_rng(55)
        for trial in range(50):
            d = trial % 2 + 1
            nu, lam = _random_fixture(rng, d, int(rng.integers(3, 10)))
            dec = bernoulli_decompose(nu, lam, n=1, big_n=1, eps=0.02)
            for p in dec.pairs:
                assert dec.window_low - 1e-9 <= p.rescaled_distance <= dec.window_high + 1e-9
                inside = 0.02 <= p.statement_distance <= 50.0
                assert p.in_statement_window == inside

    def test_no_admissible_pairs_leaves_theta_whole(self):
        # both atoms closer than the 1/6 floor after rescaling
        nu = from_atoms([((0.0,), 0.5), ((1e-6,), 0.5)])
        dec = bernoulli_decompose(nu, (0.5,), n=0, big_n=1, eps=0.1)
        assert dec.pairs == ()
        assert dec.paired_mass == 0.0
        assert dec.theta.mass == pytest.approx(1.0)


class TestGreedyFallback:
    def test_greedy_reports_gap_and_stays_below_optimum(self, monkeypatch):
        rng = np.random.default_rng(99)
        for _ in range(10):
            nu, lam = _random_fixture(rng, 1, 10)
            exact = bernoulli_decompose(nu, lam, n=1, big_n=1, eps=0.05)
            with monkeypatch.context() as m:
                m.setattr(decompose, "_GREEDY_THRESHOLD", 1)
                greedy = bernoulli_decompose(nu, lam, n=1, big_n=1, eps=0.05)
            if exact.pairs == () and greedy.pairs == ():
                continue
            assert greedy.method == "greedy"
            assert greedy.optimality_gap >= 0.0
            assert greedy.paired_mass <= exact.paired_mass + 1e-9
            # the gap bound must cover whatever greedy missed
            assert exact.paired_mass <= greedy.paired_mass + greedy.optimality_gap + 1e-9
            assert greedy.mass_identity_defect() < 1e-12


class TestDecomposeValidation:
    def test_bad_arguments(self):
        nu = from_atoms([((0.0,), 1.0)])
        with pytest.raises(ValueError, match="nonnegative"):
            bernoulli_decompose(nu, (0.5,), n=-1, big_n=1, eps=0.1)
        with pytest.raises(ValueError, match="N must be >= 1"):
            bernoulli_decompose(nu, (0.5,), n=0, big_n=0, eps=0.1)
        with pytest.raises(ValueError, match="eps"):
            bernoulli_decompose(nu, (0.5,), n=0, big_n=1, eps=1.5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bernoulli_decompose(nu, (0.5, 0.25), n=0, big_n=1, eps=0.1)

    def test_zero_mass_rejected(self):
        empty = from_atoms([])
        with pytest.raises(ValueError, match="positive mass"):
            bernoulli_decompose(empty, (0.5,), n=0, big_n=1, eps=0.1)


class TestEntropyIncrease:
    def test_double_delta_is_all_zero(self):
        delta = from_atoms([((0.0,), 1.0)])
        rep = entropy_increase_gap(delta, delta, (0.5,), t1=1.0, t2=3.0)
        assert rep.beta == 0.0
        assert rep.gain == 0.0
        assert rep.method == "exact"

    def test_delta_base_gain_equals_beta_window(self):
        # convolving a point mass with nu just reproduces nu, so the gain is
        # exactly nu's own conditional entropy, i.e. beta * (t2 - t1)
        delta = from_atoms([((0.0,), 1.0)])
        nu = from_atoms([((0.0,), 0.5), ((0.37,), 0.5)])
        rep = entropy_increase_gap(nu, delta, (0.5,), t1=0.0, t2=4.0)
        assert rep.gain == pytest.approx(rep.beta * 4.0, abs=1e-12)
        assert rep.gain >= 0.0
        assert rep.t1 == 0.0 and rep.t2 == 4.0

    def test_gain_nonnegative_on_random_measures(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            pts = rng.uniform(-1, 1, (5, 1))
            w = rng.uniform(0.1, 1, 5)
            mu = from_atoms(zip(pts, w / w.sum()))
            nu = from_atoms([((0.0,), 0.5), ((float(rng.uniform(0.1, 1)),), 0.5)])
            rep = entropy_increase_gap(mu, nu, (0.6,), t1=1.0, t2=5.0)
            assert rep.gain >= -1e-12
            assert rep.beta >= -1e-12

    def test_window_order_enforced(self):
        delta = from_atoms([((0.0,), 1.0)])
        with pytest.raises(ValueError, match="t2 > t1"):
            entropy_increase_gap(delta, delta, (0.5,), t1=2.0, t2=2.0)


# the dyadic pair endpoints sit exactly on cell boundaries; the hazard nudge
# fires by design and is asserted separately in the entropy tests
@pytest.mark.filterwarnings("ignore::bconv.errors.BoundaryHazardWarning")
class TestTubeEntropy:
    def test_level_shift_follows_spread(self):
        # binomial spread sqrt(k) = 2^{a} on a chi = 1 axis
        rep = tube_entropy_selfconv((0.0,), (1.0,), 16, (0.5,), m=4)
        assert rep.rows[0].a == 2
        rep = tube_entropy_selfconv((0.0,), (1.0,), 4096, (0.5,), m=6)
        assert rep.rows[0].a == 6

    def test_large_selfconv_fills_axis(self):
        rep = tube_entropy_selfconv((0.0,), (1.0,), 4096, (0.5,), m=6)
        assert rep.rows[0].value > 0.85
        assert rep.rows[0].value <= rep.rows[0].chi + 1e-9
        assert rep.top_axis == 1

    def test_spread_confined_to_one_axis(self):
        # the pair differs only along axis 1, so axis 2 sees a single cell
        rep = tube_entropy_selfconv((0.0, 0.0), (1.0, 0.0), 256, (0.5, 0.25), m=3)
        ax2 = [r for r in rep.rows if r.axis == 2]
        assert len(ax2) == 1
        assert ax2[0].value == 0.0
        assert rep.top_axis == 1

    def test_k1_uses_no_shift(self):
        rep = tube_entropy_selfconv((0.0,), (1.0,), 1, (0.5,), m=2)
        assert rep.rows[0].a == 0

    def test_level_recorded_and_shifts_base(self):
        base = tube_entropy_selfconv((0.0,), (1.0,), 16, (0.5,), m=3, level=0)
        moved = tube_entropy_selfconv((0.0,), (1.0,), 16, (0.5,), m=3, level=4)
        assert base.level == 0 and moved.level == 4
        assert base.rows[0].a == moved.rows[0].a
        # finer window sees the binomial's discreteness: values differ
        assert moved.rows[0].value != base.rows[0].value

    def test_validation(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            tube_entropy_selfconv((0.0,), (1.0,), 4, (0.5,), m=0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            tube_entropy_selfconv((0.0, 0.0), (1.0, 1.0), 4, (0.5,), m=2)
