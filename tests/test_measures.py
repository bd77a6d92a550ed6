"""Discrete measures: canonical form, convolution, CSV round trip."""

import math

import numpy as np
import pytest

from bconv.measures import (
    DiscreteMeasure,
    bernoulli_power,
    convolve,
    delta,
    from_atoms,
    read_atoms_csv,
    write_atoms_csv,
)


class TestCanonicalForm:
    def test_construction_order_is_irrelevant(self):
        a = from_atoms([((0.0,), 0.25), ((1.0,), 0.5), ((2.0,), 0.25)])
        b = from_atoms([((2.0,), 0.25), ((0.0,), 0.25), ((1.0,), 0.5)])
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_duplicates_merge_and_zeros_drop(self):
        mu = from_atoms([((1.0,), 0.25), ((1.0,), 0.25), ((2.0,), 0.0), ((0.0,), 0.5)])
        np.testing.assert_array_equal(mu.points, [[0.0], [1.0]])
        np.testing.assert_array_equal(mu.weights, [0.5, 0.5])

    def test_negative_zero_is_positive_zero(self):
        mu = from_atoms([((-0.0,), 0.5), ((0.0,), 0.5)])
        assert mu.n_atoms == 1
        assert math.copysign(1.0, mu.points[0, 0]) == 1.0

    def test_lexicographic_sort(self):
        mu = from_atoms([((1.0, 0.0), 0.25), ((0.0, 1.0), 0.25), ((0.0, 0.0), 0.5)])
        np.testing.assert_array_equal(mu.points, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])

    def test_mass_is_stable_sum(self):
        rng = np.random.default_rng(0)
        w = rng.random(1000)
        mu = from_atoms(zip(rng.random((1000, 1)), w))
        assert mu.mass == pytest.approx(math.fsum(w.tolist()), abs=1e-15)

    def test_roundoff_twins_stay_apart(self):
        x = 0.1 + 0.2  # 0.30000000000000004
        exact = from_atoms([((x,), 0.5), ((0.3,), 0.5)])
        assert exact.n_atoms == 2

    def test_zero_dimensional_collapse(self):
        mu = DiscreteMeasure(np.zeros((3, 0)), np.array([0.2, 0.3, 0.5]))
        assert mu.dim == 0
        assert mu.n_atoms == 1
        assert mu.mass == pytest.approx(1.0)

    def test_immutable(self):
        mu = delta((0.0,))
        with pytest.raises(AttributeError):
            mu.mass = 2.0
        with pytest.raises(ValueError):
            mu.points[0, 0] = 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="negative weight"):
            from_atoms([((0.0,), -0.1)])
        with pytest.raises(ValueError, match="finite"):
            from_atoms([((float("nan"),), 0.5)])
        with pytest.raises(ValueError):
            DiscreteMeasure(np.zeros((2, 1)), np.zeros(3))


class TestConvolution:
    def test_delta_acts_as_translation(self):
        mu = from_atoms([((0.0,), 0.5), ((1.0,), 0.5)])
        out = convolve(mu, delta((2.5,)))
        np.testing.assert_array_equal(out.points, mu.points + 2.5)
        np.testing.assert_array_equal(out.weights, mu.weights)

    def test_commutative_in_canonical_form(self):
        rng = np.random.default_rng(3)
        mu = from_atoms(zip(rng.random((4, 2)), rng.random(4)))
        nu = from_atoms(zip(rng.random((3, 2)), rng.random(3)))
        ab = convolve(mu, nu)
        ba = convolve(nu, mu)
        np.testing.assert_array_equal(ab.points, ba.points)
        np.testing.assert_allclose(ab.weights, ba.weights, rtol=1e-15)

    def test_mass_multiplicative(self):
        mu = from_atoms([((0.0,), 0.5), ((1.0,), 0.25)])
        nu = from_atoms([((0.0,), 2.0)])
        assert convolve(mu, nu).mass == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            convolve(delta((0.0,)), delta((0.0, 0.0)))


class TestBernoulliPower:
    def test_k1_is_the_pair(self):
        mu = bernoulli_power((0.0,), (1.0,), 1)
        np.testing.assert_array_equal(mu.points, [[0.0], [1.0]])
        np.testing.assert_array_equal(mu.weights, [0.5, 0.5])

    def test_binomial_weights(self):
        mu = bernoulli_power((0.0,), (1.0,), 4)
        assert mu.n_atoms == 5
        np.testing.assert_allclose(
            mu.weights, np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-15
        )
        np.testing.assert_array_equal(mu.points.ravel(), [0, 1, 2, 3, 4])

    def test_matches_repeated_convolution(self):
        pair = bernoulli_power((0.0, 0.0), (0.5, 1.0), 1)
        conv = convolve(convolve(pair, pair), pair)
        direct = bernoulli_power((0.0, 0.0), (0.5, 1.0), 3)
        np.testing.assert_allclose(conv.points, direct.points, atol=1e-12)
        np.testing.assert_allclose(conv.weights, direct.weights, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            bernoulli_power((0.0,), (1.0,), 0)
        with pytest.raises(ValueError, match="differ"):
            bernoulli_power((1.0,), (1.0,), 2)
        with pytest.raises(ValueError):
            bernoulli_power((0.0,), (1.0, 2.0), 2)


class TestAtomCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        mu = from_atoms(zip(rng.uniform(-5, 5, (17, 3)), rng.random(17)))
        path = tmp_path / "atoms.csv"
        write_atoms_csv(mu, path)
        back = read_atoms_csv(path)
        np.testing.assert_array_equal(mu.points, back.points)
        np.testing.assert_array_equal(mu.weights, back.weights)

    def test_write_is_deterministic(self, tmp_path):
        mu = from_atoms([((0.5, 1.0), 0.5), ((0.0, 2.0), 0.5)])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_atoms_csv(mu, p1)
        write_atoms_csv(mu, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "x1,x2,w"

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_atoms_csv(bad)
        bad.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_atoms_csv(bad)
        bad.write_text("x1,w\n1.0\n")
        with pytest.raises(ValueError, match="fields"):
            read_atoms_csv(bad)

    @pytest.mark.filterwarnings("error")
    def test_header_only_reads_without_warning(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("x1,x2,w\n\n")
        back = read_atoms_csv(path)
        assert back.n_atoms == 0 and back.dim == 2

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        for body in ("1.0,0.5\n2.0\n", "1.0,0.5\n2.0,0.25,3\n"):
            path.write_text("x1,w\n" + body)
            with pytest.raises(ValueError, match="fields"):
                read_atoms_csv(path)

    def test_empty_measure_round_trip(self, tmp_path):
        path = tmp_path / "none.csv"
        write_atoms_csv(from_atoms([]), path)
        back = read_atoms_csv(path)
        assert back.n_atoms == 0
