"""Scale vectors, integer-ratio scale sequences, and dyadic partition depths.

A scale vector is an element of the multiplicative group (0, inf)^d acting on
R^d coordinatewise.  Anisotropic entropy computations happen at vector scales
throughout the package, so the group structure (product, inverse, real powers)
is exposed directly.

The integer-ratio sequence s_0 = 1, s_{n+1} = s_n / b_{n+1} tracks a target
geometric sequence lambda^n from above while keeping every consecutive ratio a
positive integer.  Integer ratios are what make dyadic-style conditional
entropy identities exact, which is why the sequence is computed in exact
rational arithmetic rather than floating point: the defining inequality

    s_n / b >= lambda^{n+1} > s_n / (b + 1)

is decided without rounding, so the divisor b is never a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ScaleVector",
    "SSequence",
    "s_sequence",
    "validate_contraction_vector",
    "dyadic_levels",
    "MAX_DYADIC_LEVEL",
]

# Dyadic levels beyond the float64 exponent range cannot be keyed in doubles.
MAX_DYADIC_LEVEL = 1023


@dataclass(frozen=True)
class ScaleVector:
    """A strictly positive vector of per-axis scales."""

    entries: tuple[float, ...]

    def __post_init__(self) -> None:
        ent = tuple(float(e) for e in self.entries)
        if len(ent) == 0:
            raise ValueError("scale vector needs at least one entry")
        for e in ent:
            if not (e > 0.0) or not math.isfinite(e):
                raise ValueError(f"scale entries must be positive and finite, got {e}")
        object.__setattr__(self, "entries", ent)

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "ScaleVector") -> "ScaleVector":
        self._check_dim(other)
        return ScaleVector(tuple(a * b for a, b in zip(self.entries, other.entries)))

    def __truediv__(self, other: "ScaleVector") -> "ScaleVector":
        self._check_dim(other)
        return ScaleVector(tuple(a / b for a, b in zip(self.entries, other.entries)))

    def inverse(self) -> "ScaleVector":
        return ScaleVector(tuple(1.0 / a for a in self.entries))

    def __pow__(self, t: float) -> "ScaleVector":
        """Real power, entrywise.  Used for lambda^t at non-integer t."""
        return ScaleVector(tuple(a**t for a in self.entries))

    # -- order and geometry -------------------------------------------------

    def le(self, other: "ScaleVector") -> bool:
        """Componentwise partial order: self finer than or equal to other."""
        self._check_dim(other)
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def det(self) -> float:
        """Product of entries: volume scaling of the induced box."""
        return float(np.prod(self.entries))

    def norm(self) -> float:
        """Euclidean norm of the entry vector."""
        return float(math.hypot(*self.entries))

    # -- conveniences --------------------------------------------------------

    @staticmethod
    def ones(d: int) -> "ScaleVector":
        return ScaleVector((1.0,) * d)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, j: int) -> float:
        return self.entries[j]

    def __iter__(self) -> Iterator[float]:
        return iter(self.entries)

    def _check_dim(self, other: "ScaleVector") -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError("scale vectors have mismatched dimensions")


def _as_scale(r: "ScaleVector | Sequence[float] | float", d: int | None = None) -> ScaleVector:
    """Coerce a scalar or sequence into a ScaleVector (scalar broadcasts to d)."""
    if isinstance(r, ScaleVector):
        return r
    if np.isscalar(r):
        if d is None:
            d = 1
        return ScaleVector((float(r),) * d)
    return ScaleVector(tuple(float(v) for v in r))  # type: ignore[arg-type]


def validate_contraction_vector(lam: "ScaleVector | Sequence[float]") -> ScaleVector:
    """Check that lam is strictly decreasing with entries in (0, 1)."""
    lam = _as_scale(lam)
    for e in lam:
        if not (0.0 < e < 1.0):
            raise ValueError("lambda entries must lie in (0, 1)")
    for a, b in zip(lam.entries, lam.entries[1:]):
        if not (a > b):
            raise ValueError("lambda must be strictly decreasing")
    return lam


# ---------------------------------------------------------------------------
# Integer-ratio scale sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SSequence:
    """The integer-ratio sequence s_0, ..., s_n for one contraction vector.

    terms[m] is s_m as a float scale vector; divisors[m-1] is the integer
    vector b_m with s_m = s_{m-1} / b_m.  Exact rational values are kept so
    callers can verify lambda^m <= s_m < 2 lambda^m without rounding.
    """

    lam: ScaleVector
    terms: tuple[ScaleVector, ...]
    divisors: tuple[tuple[int, ...], ...]
    exact_terms: tuple[tuple[Fraction, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.terms) - 1

    def term(self, m: int) -> ScaleVector:
        return self.terms[m]

    def exact_term(self, m: int) -> tuple[Fraction, ...]:
        return self.exact_terms[m]


def s_sequence(lam: "ScaleVector | Sequence[float]", n: int) -> SSequence:
    """Compute s_0..s_n and the divisor vectors b_1..b_n exactly.

    Arithmetic is exact: each float lambda_j is a dyadic rational, so
    lambda_j^m and every s_m are rationals and the divisor branch is decided
    by exact comparison.  Floats are produced only for the reported terms.
    """
    lam = validate_contraction_vector(lam)
    if n < 0:
        raise ValueError("sequence depth must be nonnegative")
    d = len(lam)
    lam_exact = [Fraction(e) for e in lam]

    s_exact = [Fraction(1)] * d
    pw = [Fraction(1)] * d
    exact_terms = [tuple(s_exact)]
    terms = [ScaleVector.ones(d)]
    divisors: list[tuple[int, ...]] = []

    for m in range(1, n + 1):
        bs = []
        for j in range(d):
            pw_j = pw[j] * lam_exact[j]
            pw[j] = pw_j
            ratio = s_exact[j] / pw_j
            b = math.floor(ratio)
            # Defining branch, verified exactly: s/b >= lambda^m > s/(b+1).
            if not (b >= 1 and s_exact[j] / b >= pw_j > s_exact[j] / (b + 1)):
                raise AssertionError(f"divisor branch failed at axis {j}, depth {m}")
            s_exact[j] = s_exact[j] / b
            bs.append(b)
        divisors.append(tuple(bs))
        exact_terms.append(tuple(s_exact))
        terms.append(ScaleVector(tuple(float(v) for v in s_exact)))

    return SSequence(lam, tuple(terms), tuple(divisors), tuple(exact_terms))


# ---------------------------------------------------------------------------
# Dyadic partition depths (the cells themselves are keyed in bconv.entropy)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def dyadic_levels(lam_entries: tuple[float, ...], n: int) -> tuple[int, ...]:
    """Per-axis dyadic depths floor(chi_j * n), chi_j = -log2(lambda_j).

    Fractional depths floor to integers: the level-n partition on axis j is
    the dyadic partition at depth floor(chi_j * n).  Cached per (lambda, n).
    """
    levels = []
    for e in lam_entries:
        if not (0.0 < e < 1.0):
            raise ValueError("lambda entries must lie in (0, 1)")
        lvl = math.floor(-math.log2(e) * n)
        if abs(lvl) > MAX_DYADIC_LEVEL:
            raise ValueError(f"dyadic level {lvl} out of the float64 exponent range")
        levels.append(lvl)
    return tuple(levels)
