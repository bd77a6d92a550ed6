"""Homogeneous diagonal self-affine systems and their level-n measures.

A system is a common contraction vector lambda in (0,1)^d with strictly
decreasing entries, a finite family of integer translation vectors, and a
probability vector.  The level-n measure places, on each length-n word, the
word's probability at the image of the origin; the image is the per-axis
polynomial sum_{k<n} a_{u_k, j} * lambda_j^k, the outermost symbol carrying
power zero.

Everything here reduces to the measure and entropy layers except the exact
word arithmetic: words are identified by their coefficient vectors reduced
modulo the per-axis minimal polynomials, so coincidences are decided
algebraically, never by float comparison; a system without minimal
polynomials is refused there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import entropy as ent
from .algebraic import IntPolynomial, _as_float, _as_int, _is_irreducible, _word_states
from .errors import _DEFAULT_BUDGET, BudgetExceededError, _warn_at_caller
from .measures import DiscreteMeasure, convolve
from .scales import ScaleVector, _as_scale, validate_contraction_vector

__all__ = [
    "SystemSpec",
    "build_level_n",
    "LyapunovReport",
    "lyapunov_dimension",
    "KappaReport",
    "kappa_estimate",
    "dim_from_kappa",
    "RandomWalkReport",
    "rw_entropy_upper",
    "NonSaturationProfile",
    "non_saturation_profile",
    "SeparationProfile",
    "separation_profile",
]


@dataclass(frozen=True)
class SystemSpec:
    """A homogeneous diagonal self-affine system with integer translations."""

    lam: ScaleVector
    translations: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]
    minpolys: tuple[IntPolynomial, ...] | None = None

    def __post_init__(self):
        lam = validate_contraction_vector(self.lam)
        object.__setattr__(self, "lam", lam)
        d = len(lam)
        trans = tuple(tuple(_as_int(a, "translation entries") for a in row) for row in self.translations)
        if len(trans) < 2:
            raise ValueError("a system needs at least two maps")
        if any(len(row) != d for row in trans):
            raise ValueError("translation rows must match the dimension of lambda")
        if len(set(trans)) != len(trans):
            raise ValueError("translation rows must be distinct")
        _as_float(max(abs(a) for row in trans for a in row), "translation entries")
        object.__setattr__(self, "translations", trans)
        probs = tuple(float(p) for p in self.probs)
        if len(probs) != len(trans):
            raise ValueError("p must have one entry per map")
        if not all(p > 0.0 for p in probs):  # NaN too
            raise ValueError("p entries must be positive")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ValueError("p must sum to 1")
        object.__setattr__(self, "probs", probs)
        if self.minpolys is not None:
            mps = []
            for j, p in enumerate(self.minpolys):
                if not isinstance(p, IntPolynomial):
                    p = IntPolynomial(tuple(p))
                if p.degree < 1:
                    raise ValueError("minimal polynomials must have degree >= 1")
                # Sanity: the polynomial must actually vanish near lambda_j.
                scale = _as_float(sum(abs(c) for c in p.coeffs), f"minpoly coefficients for axis {j + 1}")
                if abs(p(lam[j])) > 1e-6 * scale:
                    raise ValueError(f"minpoly for axis {j + 1} does not vanish at lambda")
                if not _is_irreducible(p):
                    raise ValueError(f"minpoly for axis {j + 1} is reducible over Q")
                mps.append(p)
            if len(mps) != d:
                raise ValueError("one minimal polynomial per axis is required")
            object.__setattr__(self, "minpolys", tuple(mps))

    @property
    def dim(self) -> int:
        return len(self.lam)

    @property
    def n_maps(self) -> int:
        return len(self.translations)

    @property
    def chi(self) -> tuple[float, ...]:
        """Per-axis Lyapunov exponents in bits: chi_j = -log2(lambda_j)."""
        return tuple(-math.log2(e) for e in self.lam)

    @property
    def prob_entropy(self) -> float:
        """H(p) in bits."""
        return float(-math.fsum(p * math.log2(p) for p in self.probs))

    def axis_difference_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per-axis sets {a_i1,j - a_i2,j}; they always contain 0."""
        out = []
        for j in range(self.dim):
            col = [row[j] for row in self.translations]
            out.append(tuple(sorted({a - b for a in col for b in col})))
        return tuple(out)


# ---------------------------------------------------------------------------
# Level-n measures
# ---------------------------------------------------------------------------


def _level_measures(spec: SystemSpec, n: int, budget: int, probs: Sequence[float]):
    """Yield the merged level-k measures for k = 0..n (see build_level_n),
    with digit weights probs."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    if spec.n_maps**n > budget:
        raise BudgetExceededError(
            f"level {n} enumerates {spec.n_maps**n} words, budget is {budget}"
        )
    lam = spec.lam.as_array()
    a = np.asarray(spec.translations, dtype=np.float64)  # (k, d)
    mu = DiscreteMeasure(np.zeros((1, spec.dim)), np.ones(1))
    yield mu
    lam_pow = np.ones(spec.dim)
    for _k in range(n):
        mu = convolve(DiscreteMeasure(a * lam_pow, probs), mu)
        lam_pow = lam_pow * lam
        yield mu


def build_level_n(
    spec: SystemSpec,
    n: int,
    budget: int = _DEFAULT_BUDGET,
) -> DiscreteMeasure:
    """The level-n word measure: weight p_u at the image of 0 under word u.

    A fold of convolve over the digit measures sum_i p_i delta_{a_i
    lambda^k}, k = 0..n-1, with lambda^k kept as a running product.  The
    canonical merge runs per level and collapses only bit-equal float64
    points, so exact coincidences whose float images differ by roundoff
    stay apart: golden at n = 18 gives 35,696 atoms against 10,945 exact
    word states (see rw_entropy_upper).  Refuses, before building anything,
    when the pre-merge atom count would exceed the budget.
    """
    for mu in _level_measures(spec, n, budget, spec.probs):
        pass
    return mu


# ---------------------------------------------------------------------------
# Lyapunov dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovReport:
    dim_lyapunov: float
    m: int
    gamma: float
    prob_entropy: float


def lyapunov_dimension(spec: SystemSpec) -> LyapunovReport:
    """Lyapunov dimension of the system, with its saturation index m.

    m counts how many exponents fit under H(p); the dimension interpolates
    into axis m+1, or rescales d * H(p) / sum(chi) when all axes fit.
    gamma caps the dimension at the ambient d.
    """
    chi = spec.chi
    h = spec.prob_entropy
    d = spec.dim
    acc = 0.0
    m = 0
    for j in range(d):
        if acc + chi[j] <= h:
            acc += chi[j]
            m += 1
        else:
            break
    if m < d:
        dim = m + (h - acc) / chi[m]
    else:
        dim = d * h / acc
    return LyapunovReport(dim, m, min(float(d), dim), h)


# ---------------------------------------------------------------------------
# Entropy-dimension estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaReport:
    n: int
    entropy_bits: float
    kappa: float


def kappa_estimate(
    spec: SystemSpec,
    n: int,
    budget: int = _DEFAULT_BUDGET,
) -> KappaReport:
    """Normalized level-n partition entropy (1/n) H(mu^(n), E_n).

    At n = 1 the estimate degenerates to about H(p) and a warning is issued.
    """
    if n < 1:
        raise ValueError("kappa estimate needs n >= 1")
    if n == 1:
        _warn_at_caller("kappa at n = 1 reflects the digit distribution, not the measure")
    mu = build_level_n(spec, n, budget)
    h = ent.partition_entropy(mu, ent.en(n, spec.lam))
    return KappaReport(n, h, h / n)


def dim_from_kappa(kappa: float, spec: SystemSpec) -> float:
    """Dimension estimate (kappa + sum_{j<d}(chi_d - chi_j)) / chi_d.

    Valid under the assumption that every proper-axis projection of the
    measure saturates; without that the value is only an estimate.  Clamped
    to [0, d].
    """
    chi = spec.chi
    d = spec.dim
    adj = sum(chi[-1] - chi[j] for j in range(d - 1))
    return min(float(d), max(0.0, (kappa + adj) / chi[-1]))


# ---------------------------------------------------------------------------
# Random-walk entropy upper bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomWalkReport:
    n: int
    value: float  # (1/n) H(word measure), an upper bound for the limit
    distinct_maps: int
    collisions_detected: bool


def rw_entropy_upper(spec: SystemSpec, n: int) -> RandomWalkReport:
    """Upper bound (1/n) H(sum_u p_u delta_{phi_u}) on random-walk entropy.

    Words are identified by their translation vectors reduced modulo the
    axis minimal polynomials, so every coincidence is decided exactly.  A
    spec without minpolys raises ValueError: bit-equal float images are
    neither necessary nor sufficient for two words to share a map.  Raises
    BudgetExceededError at the first depth whose word-state entries could
    reach 2^62, or when a depth would build more than the default atom
    budget of child rows.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if spec.minpolys is None:
        raise ValueError(
            "random-walk entropy needs minpolys, the minimal polynomials of lambda; "
            "'bconv approx --rw-n' finds nearby algebraic parameters and bounds their walk entropy"
        )
    for _, weights in _word_states(spec, n, _DEFAULT_BUDGET):
        pass  # only the depth-n states are needed
    weights = np.sort(weights)
    h = float(-np.dot(weights, np.log2(weights)))
    distinct = len(weights)
    return RandomWalkReport(n, h / n, distinct, distinct < spec.n_maps**n)


# ---------------------------------------------------------------------------
# Non-saturation profiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonSaturationProfile:
    """Conditional-entropy table behind the non-saturation test.

    rows[(j, n)] = (1/m) H(mu, E_{n+m} | E_n join projected E_{n+m}), where
    the projection drops axis j.  The measure is non-saturated at (eps, m)
    when every entry stays below chi_j - eps.
    """

    eps: float
    m: int
    chi: tuple[float, ...]
    rows: tuple[tuple[int, int, float], ...]  # (axis j 1-based, n, value)
    non_saturated: bool


def non_saturation_profile(
    mu: DiscreteMeasure,
    lam: "ScaleVector | Sequence[float]",
    eps: float,
    m: int,
    n_range: Sequence[int],
) -> NonSaturationProfile:
    """Profile the defect of saturation of mu along every axis.

    For each axis j and level n the entry measures how much fresh entropy the
    level-(n+m) cells add beyond what level n plus full knowledge of the
    other axes already gives, normalized by m.
    """
    lam = _as_scale(lam)
    if mu.dim != len(lam):
        raise ValueError("dimension mismatch")
    if m < 1:
        raise ValueError("window m must be >= 1")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    chi = tuple(-math.log2(e) for e in lam)
    cells = [(j, int(n)) for j in range(1, len(lam) + 1) for n in n_range]
    values = ent._saturation_defects(mu, lam, [(j, n, m) for j, n in cells])
    rows = tuple((j, n, v) for (j, n), v in zip(cells, values))
    ok = all(v < chi[j - 1] - eps for j, _, v in rows)
    return NonSaturationProfile(eps, m, chi, rows, ok)


# ---------------------------------------------------------------------------
# Separation profiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationProfile:
    """Minimal gaps between level-n word values.

    per_axis[n-1][j] is the smallest |difference| of axis-j values over the
    atoms of the merged level-n measure, and gap_rate is its n-th root.
    0.0 flags a bit-equal float collision, not an exact coincidence.
    """

    n_max: int
    per_axis: tuple[tuple[float, ...], ...]
    gap_rate: tuple[tuple[float, ...], ...]


def separation_profile(spec: SystemSpec, n_max: int, budget: int = _DEFAULT_BUDGET) -> SeparationProfile:
    """Scan minimal word-value gaps for n = 1..n_max.

    The levels are those of build_level_n folded with uniform digit weights
    1/k: gaps read only the points, and a word weight k^-n >= 1/budget
    cannot underflow to 0.0 and drop its atom, as p_min^n can.  A level
    with fewer atoms than its k^n words therefore had a bit-equal float
    collision and reports 0.0 everywhere; otherwise its atoms are the word
    values, sorted per axis.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    d = spec.dim
    per_axis = []
    rates = []
    levels = _level_measures(spec, n_max, budget, [1.0 / spec.n_maps] * spec.n_maps)
    next(levels)  # level 0
    for n, mu in enumerate(levels, start=1):
        collided = mu.n_atoms < spec.n_maps**n
        gaps = tuple(
            0.0 if collided else float(np.diff(np.sort(mu.points[:, j])).min()) for j in range(d)
        )
        per_axis.append(gaps)
        rates.append(tuple(g ** (1.0 / n) if g > 0 else 0.0 for g in gaps))
    return SeparationProfile(n_max, tuple(per_axis), tuple(rates))
