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
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import entropy as ent
from .algebraic import (
    AlgebraicNumber,
    ApproxReport,
    IntPolynomial,
    OverlapReport,
    approximate_parameters,
    exact_overlap_depth,
    _word_states,
)
from .errors import BudgetExceededError
from .measures import DiscreteMeasure, ScaleBy, pushforward
from .scales import ScaleVector, _as_scale, validate_contraction_vector

__all__ = [
    "SystemSpec",
    "build_level_n",
    "build_factor",
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
    "approximate_system_parameters",
    "system_overlap_depth",
]

_DEFAULT_ATOM_BUDGET = 1 << 24
_DEFAULT_SEPARATION_BUDGET = 1 << 22


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
        trans = tuple(tuple(int(a) for a in row) for row in self.translations)
        if len(trans) < 2:
            raise ValueError("a system needs at least two maps")
        if any(len(row) != d for row in trans):
            raise ValueError("translation rows must match the dimension of lambda")
        if len(set(trans)) != len(trans):
            raise ValueError("translation rows must be distinct")
        object.__setattr__(self, "translations", trans)
        probs = tuple(float(p) for p in self.probs)
        if len(probs) != len(trans):
            raise ValueError("p must have one entry per map")
        if any(p <= 0.0 for p in probs):
            raise ValueError("p entries must be positive")
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ValueError("p must sum to 1")
        object.__setattr__(self, "probs", probs)
        if self.minpolys is not None:
            mps = []
            for j, p in enumerate(self.minpolys):
                if isinstance(p, AlgebraicNumber):
                    p = p.minpoly
                if not isinstance(p, IntPolynomial):
                    p = IntPolynomial(tuple(p))
                if p.degree < 1:
                    raise ValueError("minimal polynomials must have degree >= 1")
                # Sanity: the polynomial must actually vanish near lambda_j.
                scale = sum(abs(c) for c in p.coeffs)
                if abs(p(lam[j])) > 1e-6 * scale:
                    raise ValueError(f"minpoly for axis {j + 1} does not vanish at lambda")
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

    @property
    def translation_diameter(self) -> int:
        """Largest per-axis difference between translation entries."""
        cols = list(zip(*self.translations))
        return max(max(col) - min(col) for col in cols)

    def axis_difference_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per-axis sets {a_i1,j - a_i2,j}; they always contain 0."""
        out = []
        for j in range(self.dim):
            col = [row[j] for row in self.translations]
            out.append(tuple(sorted({a - b for a in col for b in col})))
        return tuple(out)


# ---------------------------------------------------------------------------
# Level-n measures and convolution factors
# ---------------------------------------------------------------------------


def build_level_n(
    spec: SystemSpec,
    n: int,
    budget: int = _DEFAULT_ATOM_BUDGET,
) -> DiscreteMeasure:
    """The level-n word measure: weight p_u at the image of 0 under word u.

    Enumeration is breadth-first over digits in increasing power with the
    canonical merge applied per level.  That merge collapses only images
    that are bit-equal float64 points, so exact coincidences whose float
    images differ by roundoff stay apart: golden at n = 18 gives 35,696
    atoms against 10,945 exact word states (see rw_entropy_upper).  Refuses
    when the pre-merge atom count would exceed the budget.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if spec.n_maps**n > budget:
        raise BudgetExceededError(
            f"level {n} enumerates {spec.n_maps**n} words, budget is {budget}"
        )
    d = spec.dim
    lam = spec.lam.as_array()
    a = np.asarray(spec.translations, dtype=np.float64)  # (k, d)
    p = np.asarray(spec.probs)

    mu = DiscreteMeasure(np.zeros((1, d)), np.ones(1))
    lam_pow = np.ones(d)
    for _k in range(n):
        term = a * lam_pow  # digit contribution at this power
        pts = (term[:, None, :] + mu.points[None, :, :]).reshape(-1, d)
        wts = (p[:, None] * mu.weights[None, :]).ravel()
        mu = DiscreteMeasure(pts, wts)
        lam_pow = lam_pow * lam
    return mu


def build_factor(
    spec: SystemSpec,
    a: int,
    b: int,
    budget: int = _DEFAULT_ATOM_BUDGET,
) -> DiscreteMeasure:
    """Convolution factor over digit positions [a, b): S_{lambda^a} of level b-a.

    Level-n measures factor as convolutions of these digit-range pieces.
    """
    if not (0 <= a < b):
        raise ValueError("digit range must satisfy 0 <= a < b")
    base = build_level_n(spec, b - a, budget)
    return pushforward(base, ScaleBy(spec.lam ** float(a)))


# ---------------------------------------------------------------------------
# Lyapunov dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovReport:
    dim_lyapunov: float
    m: int
    gamma: float
    chi: tuple[float, ...]
    prob_entropy: float
    # Upper bounds j + (H(p) - chi_1 - ... - chi_j) / chi_{j+1} for j < d.
    axis_bounds: tuple[float, ...]


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
    bounds = []
    run = 0.0
    for j in range(d - 1):
        run += chi[j]
        bounds.append(j + 1 + (h - run) / chi[j + 1])
    return LyapunovReport(dim, m, min(float(d), dim), chi, h, tuple(bounds))


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
    budget: int = _DEFAULT_ATOM_BUDGET,
) -> KappaReport:
    """Normalized level-n partition entropy (1/n) H(mu^(n), E_n).

    At n = 1 the estimate degenerates to about H(p) and a warning is issued.
    """
    if n < 1:
        raise ValueError("kappa estimate needs n >= 1")
    if n == 1:
        warnings.warn(
            "kappa at n = 1 reflects the digit distribution, not the measure",
            UserWarning,
            stacklevel=2,
        )
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
    for _, weights in _word_states(spec, n, _DEFAULT_ATOM_BUDGET):
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

    def axis_rows(self, j: int) -> list[tuple[int, float]]:
        return [(n, v) for jj, n, v in self.rows if jj == j]


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
    if eps <= 0:
        raise ValueError("eps must be positive")
    chi = tuple(-math.log2(e) for e in lam)
    d = len(lam)
    rows = []
    ok = True
    for j in range(1, d + 1):
        other = [a for a in range(1, d + 1) if a != j]
        for n in n_range:
            fine = ent.en(n + m, lam)
            coarse = ent.en_join_projected(n, m, other, lam)
            val = ent.conditional_entropy(mu, fine, coarse) / m
            rows.append((j, int(n), val))
            if not (val < chi[j - 1] - eps):
                ok = False
    return NonSaturationProfile(eps, m, chi, tuple(rows), ok)


# ---------------------------------------------------------------------------
# Separation profiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationProfile:
    """Minimal gaps between level-n word values.

    per_axis[n-1][j] is the smallest |difference| of axis-j values over
    distinct words of length n (0.0 flags an exact float collision), and
    gap_rate is its n-th root.  joint[n-1] is the Euclidean analogue for
    d >= 2, None in dimension one.
    """

    n_max: int
    per_axis: tuple[tuple[float, ...], ...]
    gap_rate: tuple[tuple[float, ...], ...]
    joint: tuple[float | None, ...]


def separation_profile(
    spec: SystemSpec, n_max: int, budget: int = _DEFAULT_SEPARATION_BUDGET
) -> SeparationProfile:
    """Scan minimal word-value gaps for n = 1..n_max.

    Word values are enumerated without merging, sorted per axis, and scanned
    for nearest neighbors; in d >= 2 a KD-tree reports the joint Euclidean
    gap.  Exact coincidences appear as gaps at or below float rounding.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if spec.n_maps**n_max > budget:
        raise BudgetExceededError(
            f"separation scan enumerates {spec.n_maps**n_max} words, budget is {budget}"
        )
    d = spec.dim
    lam = spec.lam.as_array()
    a = np.asarray(spec.translations, dtype=np.float64)

    per_axis = []
    rates = []
    joint = []
    pts = np.zeros((1, d))
    lam_pow = np.ones(d)
    for n in range(1, n_max + 1):
        term = a * lam_pow
        pts = (term[:, None, :] + pts[None, :, :]).reshape(-1, d)
        lam_pow = lam_pow * lam
        gaps = []
        for j in range(d):
            vals = np.sort(pts[:, j])
            gaps.append(float(np.diff(vals).min()))
        per_axis.append(tuple(gaps))
        rates.append(tuple(g ** (1.0 / n) if g > 0 else 0.0 for g in gaps))
        if d >= 2:
            from scipy.spatial import cKDTree

            dist, _ = cKDTree(pts).query(pts, k=2)
            joint.append(float(dist[:, 1].min()))
        else:
            joint.append(None)
    return SeparationProfile(n_max, tuple(per_axis), tuple(rates), tuple(joint))


# ---------------------------------------------------------------------------
# Conveniences tying the system to the algebraic layer
# ---------------------------------------------------------------------------


def approximate_system_parameters(spec: SystemSpec, n: int, top_k: int = 32) -> ApproxReport:
    """Run the parameter-approximation pipeline with the system's own
    per-axis translation difference sets as coefficient sets."""
    return approximate_parameters(spec.lam.entries, n, spec.axis_difference_sets(), top_k)


def system_overlap_depth(spec: SystemSpec, n_max: int, budget: int = 1 << 24) -> OverlapReport:
    return exact_overlap_depth(spec, n_max, budget)
