"""Integer polynomials, algebraic contraction ratios, and small-value search.

Exact arithmetic enters the package through this module.  Polynomials over Z
are kept with constant term first.  An algebraic number is a primitive
irreducible integer polynomial together with an exactly isolating rational
interval; refinement is plain bisection with exact sign evaluation, so no
floating-point step can silently cross a root.  Mahler measures and disk
root counts likewise rest on proofs: Weierstrass inclusion disks around float
root estimates, computed in exact integer arithmetic.

The small-value search looks for a nonzero polynomial of degree < n with
coefficients in a given finite set minimizing |P(xi)|.  All strategies share
one canonical float evaluation (split into ascending partial sums at
position floor(n/2)), which is what makes their results comparable down to
the last bit and their tie-breaking deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .entropy import _packed_code
from .errors import BudgetExceededError, UncertifiedError

if TYPE_CHECKING:  # pragma: no cover
    from .selfaffine import SystemSpec

__all__ = [
    "IntPolynomial",
    "AlgebraicNumber",
    "reduce_mod_minpoly",
    "MahlerMeasure",
    "mahler_measure",
    "count_roots_in_disk",
    "SearchResult",
    "min_value_poly_search",
    "AxisApproximation",
    "ApproxReport",
    "approximate_parameters",
    "OverlapReport",
    "exact_overlap_depth",
]

_ROOT_AMBIGUITY_TOL = 1e-9
_WEIERSTRASS_STEPS = 200
_GRID_BITS_MAX = 1088  # about 320 decimal digits
_BB_BLOCK = 1 << 12  # frontier nodes per block of the branch-and-bound walk
_DEFAULT_BUDGET = 1 << 24  # rows, atoms or evaluations a call builds unless given a budget


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------


def _as_int(c, what: str) -> int:
    """c as an int; ValueError unless c is an integer-valued number."""
    try:
        if int(c) == c:
            return int(c)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be integers")


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, constant term first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = [_as_int(c, "coefficients") for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        """Horner evaluation; works for float, Fraction, and mpmath inputs."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        """Content removed, leading coefficient made positive."""
        if self.is_zero():
            return self
        g = self.content()
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPolynomial(tuple(c * sign // g for c in self.coeffs))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def bounded_by(self, n: int, height: int) -> bool:
        """Membership in the family deg < n, max |coefficient| <= height."""
        return (
            not self.is_zero()
            and self.degree < n
            and max(abs(c) for c in self.coeffs) <= height
        )

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        return " + ".join(parts)


def _sympy_poly(poly: IntPolynomial):
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(poly.coeffs)), x)


def _is_irreducible(poly: IntPolynomial) -> bool:
    """Irreducibility over Q; degrees 1 and 2 are decided without sympy."""
    if poly.degree < 1:
        return False
    if poly.degree == 1:
        return True
    if poly.degree == 2:  # a rational root exists iff the discriminant is a square
        c, b, a = poly.coeffs
        disc = b * b - 4 * a * c
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    factors = _sympy_poly(poly.primitive()).factor_list()[1]
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# Algebraic numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real algebraic number: primitive irreducible minpoly plus an
    exactly isolating open rational interval with a strict sign change."""

    minpoly: IntPolynomial
    low: Fraction
    high: Fraction

    def __post_init__(self):
        object.__setattr__(self, "low", Fraction(self.low))
        object.__setattr__(self, "high", Fraction(self.high))
        p = self.minpoly
        if p.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if p.content() != 1 or p.leading < 0:
            raise ValueError("minimal polynomial must be primitive with positive leading coefficient")
        if not _is_irreducible(p):
            raise ValueError("minimal polynomial must be irreducible")
        if not (self.low < self.high):
            raise ValueError("isolating interval is empty")
        if p(self.low) * p(self.high) >= 0:
            raise ValueError("isolating interval must have a strict sign change")
        if _sympy_poly(p).count_roots(self.low, self.high) != 1:
            raise ValueError("interval does not isolate a single real root")

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    def refined(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Bisect the isolating interval down to the requested width."""
        lo, hi = self.low, self.high
        s_lo = self.minpoly(lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            s_mid = self.minpoly(mid)
            if s_mid == 0:
                # Rational root: shrink symmetric interval around it.
                half = min(width / 2, (hi - lo) / 4)
                return mid - half, mid + half
            if (s_lo < 0) == (s_mid < 0):
                lo, s_lo = mid, s_mid
            else:
                hi = mid
        return lo, hi

    def to_float(self) -> float:
        lo, hi = self.refined(Fraction(1, 2**60))
        return float((lo + hi) / 2)

    @staticmethod
    def from_root_near(poly: IntPolynomial, x0: float) -> "AlgebraicNumber":
        """The real root of poly nearest x0, with its minimal polynomial.

        poly need not be irreducible; it is factored over Z and the factor
        owning the nearest real root becomes the minimal polynomial.
        """
        if poly.is_zero() or poly.degree < 1:
            raise ValueError("polynomial must have degree >= 1")
        import sympy

        best = None
        for factor, _mult in _sympy_poly(poly).factor_list()[1]:
            if factor.degree() < 1:
                continue
            for (lo, hi), _m in factor.intervals():
                lo_f, hi_f = Fraction(lo.p, lo.q), Fraction(hi.p, hi.q)
                mid = float((lo_f + hi_f) / 2)
                dist = abs(mid - x0)
                if best is None or dist < best[0]:
                    best = (dist, factor, lo_f, hi_f)
        if best is None:
            raise ValueError("polynomial has no real roots")
        _, factor, lo_f, hi_f = best
        coeffs = tuple(int(c) for c in reversed(factor.all_coeffs()))
        minpoly = IntPolynomial(coeffs).primitive()
        lo_f, hi_f = _widen_to_sign_change(minpoly, lo_f, hi_f)
        return AlgebraicNumber(minpoly, lo_f, hi_f)


def _widen_to_sign_change(p: IntPolynomial, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Grow a (possibly degenerate) isolating interval until signs differ."""
    if lo == hi:
        step = Fraction(1, 4)
        lo, hi = lo - step, hi + step
    while p(lo) * p(hi) >= 0 or _sympy_poly(p).count_roots(lo, hi) != 1:
        width = hi - lo
        lo -= width / 4
        hi += width / 4
        if width > 4 * (abs(hi) + abs(lo) + 1):  # pragma: no cover
            raise AssertionError("failed to build an isolating interval")
    return lo, hi


# ---------------------------------------------------------------------------
# Reduction modulo a minimal polynomial
# ---------------------------------------------------------------------------


def reduce_mod_minpoly(
    expr: "IntPolynomial | Sequence[int]",
    minpoly: "IntPolynomial | AlgebraicNumber",
) -> tuple[Fraction, ...]:
    """Canonical coefficient vector of expr modulo the minimal polynomial.

    The result has length deg(minpoly); two integer polynomials agree at the
    algebraic number iff their reduced vectors are equal, so this vector is a
    collision-free key for exact evaluation.
    """
    if isinstance(minpoly, AlgebraicNumber):
        minpoly = minpoly.minpoly
    if not isinstance(expr, IntPolynomial):
        expr = IntPolynomial(tuple(expr))
    m = minpoly.degree
    if m < 1:
        raise ValueError("minimal polynomial must have degree >= 1")
    rem = [Fraction(c) for c in expr.coeffs]
    lead = Fraction(minpoly.leading)
    while len(rem) > m:
        top = rem.pop()
        if top == 0:
            continue
        f = top / lead
        k = len(rem) - m  # the reduced monomial sits at offset k
        for i in range(m):
            rem[k + i] -= f * minpoly.coeffs[i]
    rem.extend([Fraction(0)] * (m - len(rem)))
    return tuple(rem)


_STATE_LIMIT = 1 << 62  # int64 word-state entries must stay below this


def _scaled_powers(minpoly: IntPolynomial) -> Iterator[list[int]]:
    """T[k] = lead^k * (reduced vector of x^k mod minpoly) for k = 0, 1, ...

    T[k+1] = lead * shift(T[k]) - top * coeffs[:m], with top the last entry
    of T[k]; every entry is an integer even when the minpoly is not monic.
    """
    m, lead, cs = minpoly.degree, minpoly.leading, minpoly.coeffs
    row = [1] + [0] * (m - 1)
    while True:
        yield row
        top = row[-1]
        row = [lead * s - top * c for s, c in zip([0] + row[:-1], cs)]


def _state_limit(spec: "SystemSpec", n: int) -> tuple[int, str] | None:
    """The first depth <= n whose word-state entries could reach 2^62.

    int64 arithmetic wraps silently, so a bound on every entry of the
    scaled power table and of the states is kept in Python integers, one
    depth at a time; it grows by |lead| per depth, since a minpoly may have
    a negative leading coefficient.  Returns (depth, refusal message), or
    None when every depth up to n is safe.
    """
    digit = [max(abs(row[j]) for row in spec.translations) for j in range(spec.dim)]
    bound = [0] * spec.dim
    for depth, ts in zip(range(1, n + 1), zip(*map(_scaled_powers, spec.minpolys))):
        for j, (p, t) in enumerate(zip(spec.minpolys, ts)):
            top = max(map(abs, t))
            bound[j] = max(abs(p.leading) * bound[j] + digit[j] * top, top)
            if bound[j] >= _STATE_LIMIT:
                return depth, (
                    f"axis {j + 1} word states at depth {depth} may reach {bound[j]}, "
                    "past the int64 limit 2^62"
                )
    return None


def _word_states(spec: "SystemSpec", n: int, budget: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact word states at depths 1..n as (rows, weights) pairs.

    A state is one int64 row: the axis-j reduced vector of a word's
    translation polynomial, times lead_j^(depth-1), for each axis side by
    side.  Two words share a map iff their rows are equal, so depth k has
    one row per distinct length-k map, weighted by its summed word
    probability.  Each depth extends the previous states, then the maps in
    spec order (child = lead * S + a * T[depth]).  Equal child rows share a
    packed code (entropy._packed_code); their groups are numbered by first
    occurrence in that child order, and np.bincount adds each group's terms
    in input order, the order a dict accumulating w * p per child would
    use; so the rows come out in that dict's insertion order and every
    weight is the same float sum.

    The call is refused before any state is enumerated when some depth up
    to n could carry entries past 2^62 (_state_limit), and later when a
    depth would build more than `budget` child rows.
    """
    limit = _state_limit(spec, n)
    if limit is not None:
        raise BudgetExceededError(limit[1])
    degrees = [p.degree for p in spec.minpolys]
    lead = np.repeat([p.leading for p in spec.minpolys], degrees).astype(np.int64)
    digits = np.repeat(np.asarray(spec.translations, dtype=np.int64), degrees, axis=1)
    probs = np.asarray(spec.probs)
    rows = np.zeros((1, sum(degrees)), dtype=np.int64)
    weights = np.ones(1)
    for depth, ts in zip(range(1, n + 1), zip(*map(_scaled_powers, spec.minpolys))):
        count = spec.n_maps * len(rows)
        if count > budget:
            raise BudgetExceededError(
                f"depth {depth} builds {count} word-state rows, budget is {budget}"
            )
        power = np.array(sum(ts, []), dtype=np.int64)
        child = ((lead * rows)[:, None, :] + (digits * power)[None, :, :]).reshape(count, -1)
        _, first, ids = np.unique(_packed_code(list(child.T)), return_index=True, return_inverse=True)
        order = np.argsort(first)  # the groups by first occurrence; argsort(order) inverts it
        rows = child[first[order]]
        terms = (weights[:, None] * probs[None, :]).ravel()
        weights = np.bincount(np.argsort(order)[ids], weights=terms, minlength=len(first))
        yield rows, weights


# ---------------------------------------------------------------------------
# Mahler measure and root counting
# ---------------------------------------------------------------------------


def _ceil_sqrt(q: int) -> int:
    return math.isqrt(q - 1) + 1 if q > 0 else 0


def _distinct(centers: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Grid centers with each repeat moved diagonally, a unit at a time, until
    all differ: the disk theorem needs distinct centers, and any distinct ones
    are valid."""
    seen: set[tuple[int, int]] = set()
    out = []
    for x, y in centers:
        while (x, y) in seen:
            x, y = x + 1, y + 1
        seen.add((x, y))
        out.append((x, y))
    return out


def _float_estimates(coeffs: list[int]) -> np.ndarray:
    """np.roots estimates, or the Durand-Kerner start points (0.4 + 0.9i)^k
    when the coefficients or the estimates leave float64."""
    n = len(coeffs) - 1
    try:
        est = np.roots(np.array(coeffs[::-1], dtype=float))
    except OverflowError:
        est = None
    if est is None or not np.all(np.isfinite(est)):
        est = (0.4 + 0.9j) ** np.arange(n)
    return est


def _root_enclosures(poly: IntPolynomial) -> Iterator[tuple[int, list[tuple[int, int, int]]]]:
    """Proven enclosures of the nonzero roots of poly, tighter at each step.

    Yields (bits, clusters).  A cluster (m, low, high) holds exactly m roots,
    counted with multiplicity, each of modulus in [low, high] * 2^-bits; the
    m sum to the number of nonzero roots.  Zero roots are stripped first.

    Each step takes centers z_i = Z_i / s, s = 2^bits, with Gaussian
    integers Z_i, the first ones np.roots estimates rounded down onto the
    grid.  With
    exact integers it forms s^n P(z_i) and prod_{j != i} (Z_i - Z_j), so the
    Weierstrass correction W_i = P(z_i) / (lead * prod_{j != i} (z_i - z_j))
    is an exact rational.  Every root lies in the union of the disks
    |z - z_i| <= n |W_i|, and each connected component of m disks holds
    exactly m roots (the Gerschgorin disks of the matrix diag(z) - W 1^T,
    whose eigenvalues are the roots, lie inside them; Carstensen, Numer.
    Math. 58, 1991; Neumaier, J. Comput. Appl. Math. 156, 2003).  Radii
    are rounded up and disks are merged unless provably disjoint, so a
    cluster may join several components, which keeps both statements true.
    The next centers are z_i - W_i (a Durand-Kerner step with exact
    arithmetic) rounded onto a grid about twice as fine as the widest disk,
    which follows the quadratic convergence on simple roots and the linear
    one on repeated roots.  The caller stops when an enclosure suffices.
    """
    coeffs = list(poly.coeffs)
    while coeffs[0] == 0:
        coeffs.pop(0)
    n, lead = len(coeffs) - 1, coeffs[-1]
    if n == 0:
        yield 0, []
        return
    est = _float_estimates(coeffs).tolist()
    # two bits past float64 precision at the smallest estimate's binade
    bits = 55 - min(0, math.frexp(min((abs(z) for z in est if z), default=1.0))[1])
    centers = []
    for z in est:
        (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        centers.append(((xn << bits) // xd, (yn << bits) // yd))
    centers = _distinct(centers)
    last = None  # (widest radius, bits) of the previous step
    for _ in range(_WEIERSTRASS_STEPS):
        # s^n P(Z/s) = sum_k c_k Z^k s^(n-k), by Horner with s = 2^bits.
        scaled = [c << (bits * (n - k)) for k, c in enumerate(coeffs)]
        vals, prods = [], []
        for x, y in centers:
            vr, vi = lead, 0
            for c in reversed(scaled[:n]):
                vr, vi = vr * x - vi * y + c, vr * y + vi * x
            pr, pi = 1, 0
            for u, v in centers:
                if u != x or v != y:
                    du, dv = x - u, y - v
                    pr, pi = pr * du - pi * dv, pr * dv + pi * du
            vals.append((vr, vi))
            prods.append((pr, pi))
        # (n |W_i| 2^bits)^2 = n^2 |s^n P(z_i)|^2 / (lead^2 |prod_i|^2)
        dens = [lead * (pr * pr + pi * pi) for pr, pi in prods]
        radii = [
            _ceil_sqrt(-(-n * n * (vr * vr + vi * vi) // (lead * d)))
            for (vr, vi), d in zip(vals, dens)
        ]
        yield bits, _disk_clusters(centers, radii)
        widest = max(radii)
        if bits == _GRID_BITS_MAX and last is not None and widest << last[1] >= last[0] << bits:
            return  # the finest grid no longer narrows the disks
        last = widest, bits
        new_bits = min(_GRID_BITS_MAX, max(bits, 2 * (bits - widest.bit_length()) + 32))
        shift = new_bits - bits
        # W_i in units of 2^-new_bits: s^n P(z_i) * conj(prod_i) * 2^shift / (lead |prod_i|^2)
        centers = _distinct([
            ((x << shift) - ((vr * pr + vi * pi) << shift) // d,
             (y << shift) - ((vi * pr - vr * pi) << shift) // d)
            for (x, y), (vr, vi), (pr, pi), d in zip(centers, vals, prods, dens)
        ])
        bits = new_bits


def _disk_clusters(centers: list[tuple[int, int]], radii: list[int]) -> list[tuple[int, int, int]]:
    """(m, low, high) per group of disks |z - Z_i| <= R_i joined by overlaps.

    Two disks are joined unless |Z_i - Z_j| > R_i + R_j is proven, exactly,
    from the squares.  low and high bound the moduli of all points of the
    group's disks, rounded outward to integers.
    """
    n = len(centers)
    group = list(range(n))

    def root(i):
        while group[i] != i:
            group[i] = i = group[group[i]]
        return i

    for i, ((x, y), r) in enumerate(zip(centers, radii)):
        for j in range(i + 1, n):
            u, v = centers[j]
            if (x - u) ** 2 + (y - v) ** 2 <= (r + radii[j]) ** 2:
                group[root(i)] = root(j)
    out: dict[int, list[int]] = {}
    for i, ((x, y), r) in enumerate(zip(centers, radii)):
        mod2 = x * x + y * y
        low, high = math.isqrt(mod2) - r, _ceil_sqrt(mod2) + r
        g = out.setdefault(root(i), [0, low, high])
        g[0] += 1
        g[1], g[2] = min(g[1], low), max(g[2], high)
    return [(m, max(0, low), high) for m, low, high in out.values()]


def _float_up(q: Fraction) -> float:
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


class MahlerMeasure(float):
    """A Mahler measure with its certificate: the true value lies within
    error_bound * value of this float."""

    method = "inclusion-disks"

    def __new__(cls, value: float, error_bound: float):
        self = super().__new__(cls, value)
        self.error_bound = error_bound
        return self


def mahler_measure(poly: "IntPolynomial | Sequence[int]", rel_tol: float = 1e-9) -> MahlerMeasure:
    """Mahler measure |lead| * prod(max(1, |root|)), with a proven relative error.

    Each cluster of _root_enclosures contributes max(1, low)^m and
    max(1, high)^m to an exact rational interval [L, U] holding the measure;
    the first enclosure whose interval fits rel_tol is used.  The result is
    the float nearest (L + U) / 2, and its error_bound is the largest
    relative distance from it to L or U, rounded up.  Raises UncertifiedError
    when no enclosure fits.
    """
    if not isinstance(poly, IntPolynomial):
        poly = IntPolynomial(tuple(poly))
    if poly.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    if not rel_tol >= 2**-52:
        raise ValueError("rel_tol must be at least 2^-52, the resolution of a float result")
    for bits, clusters in _root_enclosures(poly):
        one = 1 << bits
        low = high = abs(poly.leading)
        scale = 1
        for m, lo, hi in clusters:
            low *= max(one, lo) ** m
            high *= max(one, hi) ** m
            scale *= one**m
        try:
            value = (low + high) / (2 * scale)
        except OverflowError:
            raise ValueError("the Mahler measure exceeds the float64 range") from None
        v = Fraction(value)
        err = _float_up(max(v - Fraction(low, scale), Fraction(high, scale) - v) / v)
        if err <= rel_tol:
            return MahlerMeasure(value, err)
    raise UncertifiedError(f"no root enclosure reached relative width {rel_tol}")


def count_roots_in_disk(
    poly: "IntPolynomial | Sequence[int]", rho: float, tol: float = _ROOT_AMBIGUITY_TOL
) -> int:
    """Number of nonzero roots with |z| < rho, counted with multiplicity.

    Read from the first enclosure of _root_enclosures that decides it: every
    cluster's modulus range lies more than tol from rho.  Raises when a
    cluster narrower than tol lies within tol of rho: a root modulus is then
    that close to rho, the count would hinge on it, and the caller must
    perturb rho instead.  Raises UncertifiedError when no enclosure decides.
    """
    if not isinstance(poly, IntPolynomial):
        poly = IntPolynomial(tuple(poly))
    if poly.is_zero():
        raise ValueError("the zero polynomial has no well-defined root count")
    if rho <= 0:
        raise ValueError("disk radius must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    for bits, clusters in _root_enclosures(poly):
        one = 1 << bits
        r, t = Fraction(rho) * one, Fraction(tol) * one
        near = [(lo, hi) for _, lo, hi in clusters if lo - t < r < hi + t]
        if not near:
            return sum(m for m, _, hi in clusters if hi < r)
        if all(hi - lo <= t for lo, hi in near):
            lo, hi = near[0]
            raise ValueError(
                f"a root modulus in [{lo / one!r}, {hi / one!r}] "
                f"lies within {tol} of the disk radius; perturb rho"
            )
    raise UncertifiedError(f"no root enclosure decided the count at radius {rho}")


# ---------------------------------------------------------------------------
# Small-value polynomial search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Minimizer of |P(xi)| over the searched family."""

    poly: IntPolynomial
    value: float
    strategy: str

    @property
    def abs_value(self) -> float:
        return abs(self.value)


def _validate_search(xi: float, n: int, coeff_set: Sequence[int]) -> tuple[float, int, tuple[int, ...]]:
    xi = float(xi)
    if not math.isfinite(xi):
        raise ValueError("xi must be finite")
    if n < 1:
        raise ValueError("degree bound n must be >= 1")
    coeffs = tuple(sorted({int(c) for c in coeff_set}))
    if 0 not in coeffs:
        raise ValueError("coefficient set must contain 0")
    if len(coeffs) < 2:
        raise ValueError("coefficient set must contain a nonzero value")
    # Every |P(xi)| and partial sum is at most max|c| * sum |xi|^k; while that
    # bound is finite, no strategy's float arithmetic can overflow.
    if not math.isfinite(max(map(abs, coeffs)) * sum(map(abs, _powers(xi, n)))):
        raise ValueError(f"|P(xi)| overflows float64 for xi={xi!r} at degree bound {n}")
    return xi, n, coeffs


def _powers(xi: float, n: int) -> list[float]:
    out = [1.0]
    for _ in range(1, n):
        out.append(out[-1] * xi)
    return out


def _build_half(ks: range, coeffs: tuple[int, ...], powers: list[float]) -> np.ndarray:
    """Values of all coefficient choices on the positions ks, ascending fold.

    Index decodes with digit for position ks[t] at stride |coeffs|^t.
    """
    vals = np.zeros(1)
    for k in ks:
        term = np.array([c * powers[k] for c in coeffs])
        vals = (term[:, None] + vals[None, :]).ravel()
    return vals


def _halves(xi: float, n: int, coeffs: tuple[int, ...]):
    """Powers, split h = n // 2, the low and high half tables, and their all-zero indices.

    A family member's value is high[j] + low[i], bit-identical to _canonical_value.
    """
    powers = _powers(xi, n)
    h = n // 2
    low = _build_half(range(0, h), coeffs, powers)
    high = _build_half(range(h, n), coeffs, powers)
    z, base = coeffs.index(0), len(coeffs)  # the all-zero index has digit z everywhere
    zl, zh = (z * (base**m - 1) // (base - 1) for m in (h, n - h))
    return powers, h, low, high, zl, zh


def _digits(index: np.ndarray, n_digits: int, coeffs: tuple[int, ...]) -> np.ndarray:
    """Digit rows of half-table indices; position t sits at stride |coeffs|^t."""
    base = len(coeffs)
    strides = base ** np.arange(n_digits, dtype=np.int64)
    return np.array(coeffs)[(index[:, None] // strides) % base]


def _canonical_value(digits: Sequence[int], powers: list[float], h: int) -> float:
    lo = 0.0
    for k in range(h):
        lo = digits[k] * powers[k] + lo
    hi = 0.0
    for k in range(h, len(digits)):
        hi = digits[k] * powers[k] + hi
    return lo + hi


def _rev_key(digits: Sequence[int]) -> tuple[int, ...]:
    # Ties break on the descending-degree coefficient tuple.
    return tuple(reversed(digits))


def _search_exhaustive(
    xi: float, n: int, coeffs: tuple[int, ...], budget: int
) -> tuple[tuple[int, ...], float]:
    base = len(coeffs)
    if base**n > budget:
        raise BudgetExceededError(
            f"exhaustive search needs {base**n} evaluations, budget is {budget}"
        )
    powers, h, low, high, zl, zh = _halves(xi, n, coeffs)

    block = max(1, (1 << 22) // max(1, len(low)))
    best = math.inf
    ties: list[tuple[int, ...]] = []
    for start in range(0, len(high), block):
        sums = np.abs(high[start : start + block, None] + low[None, :])
        j0 = zh - start
        if 0 <= j0 < sums.shape[0]:
            sums[j0, zl] = math.inf
        m = float(sums.min())
        if m > best:
            continue
        if m < best:
            best, ties = m, []
        jj, ii = np.nonzero(sums == best)
        rows = np.hstack([_digits(ii, h, coeffs), _digits(jj + start, n - h, coeffs)])
        ties.extend(map(tuple, rows.tolist()))
    digits = min(ties, key=_rev_key)
    return digits, _canonical_value(digits, powers, h)


def _window_bound(hs: np.ndarray, low: np.ndarray, zl: int, zs: int, take: int) -> float:
    """The take-th smallest |hs[j] + low[i]| over each row's nearest sorted neighbours.

    Row i's window is the w entries of hs on each side of -low[i], padded with
    inf past the ends, so it holds at least min(w, len(hs)) real pairs.  With
    w * len(low) > take the windows hold `take` distinct pairs besides the
    all-zero one (row zl, sorted position zs), which makes the result an upper
    bound on the family's take-th smallest |value|.
    """
    w = -(-(take + 1) // len(low))
    pos = np.searchsorted(hs, -low)
    near = sliding_window_view(np.pad(hs, w, constant_values=math.inf), 2 * w)[pos]
    near += low[:, None]
    np.abs(near, out=near)
    if 0 <= zs + w - pos[zl] < 2 * w:
        near[zl, zs + w - pos[zl]] = math.inf
    return float(np.partition(near, take - 1, axis=None)[take - 1])


def _smallest(
    xi: float, n: int, coeffs: tuple[int, ...], k: int, budget: int
) -> list[tuple[float, tuple[int, ...], float]]:
    """The first k (|value|, digits, value) of the family in (|value|, _rev_key) order.

    Sorted-halves search: the high half is stably sorted, every low entry
    finds its nearest high neighbours, and the k-th smallest of those sums
    bounds the answer by tau.  All pairs within tau are then collected by
    searchsorted ranges, so ties at the k-th value are kept whole and cut by
    the tie rule, not by selection order.
    """
    base = len(coeffs)
    h = n // 2
    if base ** max(h, n - h) > budget:
        raise BudgetExceededError(
            f"meet-in-the-middle table of {base ** max(h, n - h)} entries exceeds budget {budget}"
        )
    _, h, low, high, zl, zh = _halves(xi, n, coeffs)
    order = np.argsort(high, kind="stable")
    hs = high[order]
    zs = int(np.flatnonzero(order == zh)[0])  # sorted position of the all-zero high half
    take = min(k, base**n - 1)

    tau = _window_bound(hs, low, zl, zs, take)

    # fl(hs[j] + low[i]) is monotone in j, so each row's pairs within tau are
    # one run of hs; widen its ends by a few ulps and filter exactly.
    slack = 4 * np.spacing(np.abs(low) + tau)
    first = np.searchsorted(hs, -low - tau - slack, side="left")
    counts = np.searchsorted(hs, -low + tau + slack, side="right") - first
    ii = np.repeat(np.arange(len(low)), counts)
    jj = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    values = hs[jj] + low[ii]
    keep = (np.abs(values) <= tau) & ((ii != zl) | (jj != zs))
    values = values[keep]
    digits = np.hstack([_digits(ii[keep], h, coeffs), _digits(order[jj[keep]], n - h, coeffs)])
    pick = np.lexsort(tuple(digits.T) + (np.abs(values),))[:take]
    return [(abs(v), tuple(d), v) for v, d in zip(values[pick].tolist(), digits[pick].tolist())]


def _search_branch_and_bound(
    xi: float, n: int, coeffs: tuple[int, ...]
) -> tuple[tuple[int, ...], float]:
    """Depth-first branch-and-bound over numpy blocks of frontier nodes.

    Digits are chosen from position n-1 down.  A node at position k holds its
    partial sum (the positions above k, added top down) and the base-|C|
    index of its digits, position t at stride |C|^t, kept in int64 limbs of
    `width` digits so no n overflows.  A popped block drops the nodes with
    |partial| - rem[k] > best + slack, the recursive walk's test, is
    expanded with one broadcast add (smallest |c| first, so low-degree
    leaves come early), cut into blocks of at most _BB_BLOCK nodes and
    pushed.  Leaves pass the same test with rem = 0, are decoded with
    _digits and valued by the split rule of _canonical_value, column by
    column; ties merge under _rev_key.  The incumbent is always the |value|
    of a real nonzero leaf, so no threshold falls below the optimum and the
    answer does not depend on the visiting order.

    Cost: the stack holds at most about n * |C| * _BB_BLOCK nodes whatever n
    is, so no budget applies; time grows with the nodes that survive
    pruning, up to |C|^n leaves.
    """
    powers = _powers(xi, n)
    h = n // 2
    base = len(coeffs)
    cmax = max(abs(c) for c in coeffs)
    # rem[k]: loosest possible |contribution| of positions 0..k.
    rem = [0.0] * n
    acc = 0.0
    for k in range(n):
        acc += cmax * abs(powers[k])
        rem[k] = acc
    slack = 1e-12 * (1.0 + acc)

    width = 1
    while base ** (width + 1) <= 1 << 62:
        width += 1
    limbs = -(-n // width)
    order = np.argsort(np.abs(coeffs), kind="stable")
    terms = np.array(coeffs, dtype=float)[order]

    best_abs = math.inf
    best_digits: tuple[int, ...] | None = None
    stack = [(n - 1, np.zeros(1), np.zeros((1, limbs), dtype=np.int64))]
    while stack:
        k, partial, index = stack.pop()
        if k >= 0:
            keep = np.abs(partial) - rem[k] <= best_abs + slack
            partial = (partial[keep, None] + terms * powers[k]).ravel()
            step = np.zeros((base, limbs), dtype=np.int64)
            step[:, k // width] = order * base ** (k % width)
            index = (index[keep, None, :] + step).reshape(-1, limbs)
            for start in reversed(range(0, len(partial), _BB_BLOCK)):
                stop = start + _BB_BLOCK
                stack.append((k - 1, partial[start:stop], index[start:stop]))
            continue
        index = index[np.abs(partial) <= best_abs + slack]
        digits = np.hstack(
            [_digits(index[:, j], min(width, n - j * width), coeffs) for j in range(limbs)]
        )
        digits = digits[digits.any(axis=1)]
        if not len(digits):
            continue
        lo = np.zeros(len(digits))
        for t in range(h):
            lo = digits[:, t] * powers[t] + lo
        hi = np.zeros(len(digits))
        for t in range(h, n):
            hi = digits[:, t] * powers[t] + hi
        values = np.abs(lo + hi)
        m = float(values.min())
        if m > best_abs:
            continue
        ties = digits[values == m]
        cand = tuple(ties[np.lexsort(ties.T)[0]].tolist())
        if m < best_abs or _rev_key(cand) < _rev_key(best_digits):
            best_abs, best_digits = m, cand
    assert best_digits is not None
    return best_digits, _canonical_value(best_digits, powers, h)


def min_value_poly_search(
    xi: float,
    n: int,
    coeff_set: Sequence[int],
    strategy: str = "meet-in-middle",
    budget: int = _DEFAULT_BUDGET,
) -> SearchResult:
    """Nonzero P with deg < n and coefficients in coeff_set minimizing |P(xi)|.

    All strategies agree bit-for-bit: values come from one canonical split
    evaluation and ties break on the lexicographically smallest coefficient
    vector read from the leading coefficient down.  Their costs, for the
    coefficient set C:

    - "exhaustive" makes |C|^n evaluations and refuses when that exceeds
      `budget`;
    - "meet-in-middle" builds half tables of |C|^ceil(n/2) entries and
      refuses when one exceeds `budget`;
    - "branch-and-bound" holds at most about n * |C| * _BB_BLOCK frontier
      nodes and ignores `budget`; its time depends on how much it prunes.
    """
    xi, n, coeffs = _validate_search(xi, n, coeff_set)
    if strategy == "exhaustive":
        digits, value = _search_exhaustive(xi, n, coeffs, budget)
    elif strategy == "meet-in-middle":
        _, digits, value = _smallest(xi, n, coeffs, 1, budget)[0]
    elif strategy == "branch-and-bound":
        digits, value = _search_branch_and_bound(xi, n, coeffs)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return SearchResult(IntPolynomial(digits), value, strategy)


# ---------------------------------------------------------------------------
# Parameter approximation pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisApproximation:
    """Outcome of the search-then-root step on one axis."""

    axis: int  # 1-based
    status: str  # "ok" or "no-root"
    poly: IntPolynomial
    search_value: float
    eta: AlgebraicNumber | None
    eta_float: float | None
    distance: float | None


@dataclass(frozen=True)
class ApproxReport:
    axes: tuple[AxisApproximation, ...]
    eta: tuple[float, ...] | None
    in_omega: bool
    max_distance: float | None


def approximate_parameters(
    lam: Sequence[float],
    n: int,
    diff_sets: Sequence[Sequence[int]],
    top_k: int = 32,
) -> ApproxReport:
    """Replace each lambda_j by a nearby algebraic number.

    Per axis: search degree-< n polynomials with coefficients in the axis
    difference set for a small value at lambda_j, walk the candidates in
    value order, and take the real root in (0, 1) nearest lambda_j from the
    first candidate that has one.  If no candidate does, the axis is reported
    failed together with the globally nearest real root seen.
    """
    lam = [float(v) for v in lam]
    if len(diff_sets) != len(lam):
        raise ValueError("one coefficient set per axis is required")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    axes: list[AxisApproximation] = []
    for j, (lj, dset) in enumerate(zip(lam, diff_sets), start=1):
        _, _, coeffs = _validate_search(lj, n, dset)
        cands = _smallest(lj, n, coeffs, top_k, _DEFAULT_BUDGET)
        chosen = None
        fallback = None  # nearest real root anywhere, for the failure report
        for absval, digits, _ in cands:
            poly = IntPolynomial(digits)
            roots = _real_roots_float(poly)
            for r in roots:
                if fallback is None or abs(r - lj) < abs(fallback[2] - lj):
                    fallback = (absval, poly, r)
            inside = [r for r in roots if 0.0 < r < 1.0]
            if inside:
                r = min(inside, key=lambda v: abs(v - lj))
                chosen = (absval, poly, r)
                break
        if chosen is not None:
            absval, poly, r = chosen
            eta = AlgebraicNumber.from_root_near(poly, r)
            ef = eta.to_float()
            axes.append(AxisApproximation(j, "ok", poly, absval, eta, ef, abs(ef - lj)))
        elif fallback is not None:
            absval, poly, r = fallback
            axes.append(AxisApproximation(j, "no-root", poly, absval, None, r, abs(r - lj)))
        else:
            poly = IntPolynomial(cands[0][1])
            axes.append(AxisApproximation(j, "no-root", poly, cands[0][0], None, None, None))

    ok = all(a.status == "ok" for a in axes)
    eta = tuple(a.eta_float for a in axes) if ok else None  # type: ignore[misc]
    in_omega = False
    if eta is not None:
        in_omega = all(0.0 < e < 1.0 for e in eta) and all(
            a > b for a, b in zip(eta, eta[1:])
        )
    dists = [a.distance for a in axes if a.distance is not None]
    return ApproxReport(tuple(axes), eta, in_omega, max(dists) if dists else None)


def _real_roots_float(poly: IntPolynomial) -> list[float]:
    if poly.degree < 1:
        return []
    import sympy

    return [float(r.evalf(25)) for r in _sympy_poly(poly).real_roots()]


# ---------------------------------------------------------------------------
# Exact overlap detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapReport:
    """First depths at which two distinct words share a map."""

    per_axis: tuple[int | None, ...]
    joint: int | None
    n_max: int


def exact_overlap_depth(spec: "SystemSpec", n_max: int, budget: int = _DEFAULT_BUDGET) -> OverlapReport:
    """Smallest word length with an exact coincidence, per axis and jointly.

    All length-n maps share the diagonal part, so two words collide exactly
    when their translation polynomials agree, i.e. reduce to the same vector
    modulo the axis minimal polynomial.  Axis j reports the first depth where
    the axis-j values collide; the joint depth requires simultaneous
    collision on every axis.  None means no collision up to n_max.  The scan
    stops short of the first depth whose word-state entries could reach
    2^62 and is refused only if it gets there with a depth still undecided.
    """
    if spec.minpolys is None:
        raise ValueError("exact overlap detection needs minimal polynomials")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    k = spec.n_maps
    per_axis: list[int | None] = [None] * spec.dim
    joint: int | None = None
    edges = np.cumsum([0] + [p.degree for p in spec.minpolys])
    limit = _state_limit(spec, n_max)
    scan = n_max if limit is None else limit[0] - 1
    # scan = 0 (a digit past 2^62) must not build even the int64 digit table
    for depth, (rows, _) in enumerate(_word_states(spec, scan, budget) if scan else (), start=1):
        # The axis-j values of all words are the projection of the joint states.
        expected = k**depth
        for j in range(spec.dim):
            axis = rows[:, edges[j] : edges[j + 1]]
            if per_axis[j] is None and len(np.unique(_packed_code(list(axis.T)))) < expected:
                per_axis[j] = depth
        if joint is None and len(rows) < expected:
            joint = depth
        if joint is not None and all(v is not None for v in per_axis):
            break
    if limit is not None and (joint is None or None in per_axis):
        raise BudgetExceededError(limit[1])
    return OverlapReport(tuple(per_axis), joint, n_max)
