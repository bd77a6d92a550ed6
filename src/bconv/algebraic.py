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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .entropy import _packed_code
from .errors import _DEFAULT_BUDGET, BudgetExceededError, UncertifiedError

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


def _as_float(v: int, what: str) -> float:
    """float(v); ValueError naming what when float64 cannot hold the int v."""
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{what} must lie within the float64 range") from None


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
        """Horner evaluation; works for float and Fraction inputs."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        """Content removed, leading coefficient made positive."""
        return IntPolynomial(tuple(_primitive(list(self.coeffs))))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(tuple(_mul(self.coeffs, other.coeffs)))

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


# ---------------------------------------------------------------------------
# Factorization over Z and real roots
# ---------------------------------------------------------------------------
#
# The helpers below take coefficient lists, constant term first, with no
# trailing zeros ([] is zero).  Factoring follows Zassenhaus (von zur
# Gathen and Gerhard, Modern Computer Algebra, ch. 14-15): a square-free
# split over Z (Yun), Berlekamp factoring modulo a small prime, Hensel
# lifting, and recombination of the lifted factors by trial division.  Real
# roots are isolated by Descartes' rule of signs with bisection
# (Collins and Akritas, SYMSAC 1976).

_PRIMES_TRIED = 5  # Berlekamp runs modulo this many good primes before lifting


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _primitive(cs: list[int]) -> list[int]:
    """Content removed, leading coefficient made positive."""
    if not cs:
        return cs
    g = math.gcd(*cs) if cs[-1] > 0 else -math.gcd(*cs)
    return [c // g for c in cs]


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prem(a: list[int], b: list[int]) -> list[int]:
    """lead(b)^k * a modulo b over Z, for some k >= 0."""
    r, n, lead = list(a), len(b) - 1, b[-1]
    while len(r) > n:
        top, k = r[-1], len(r) - 1 - n
        r = [lead * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= top * c
        _trim(r)
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient, by primitive remainder sequences."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _divide(a: list[int], b: list[int]) -> list[int] | None:
    """a / b when b divides a in Z[x], else None."""
    r, n = list(a), len(b) - 1
    q = [0] * max(0, len(r) - n)
    for k in reversed(range(len(q))):
        q[k], rest = divmod(r[k + n], b[-1])
        if rest:
            return None
        for i, c in enumerate(b):
            r[k + i] -= q[k] * c
    return None if any(r) else q


def _derivative(cs: list[int]) -> list[int]:
    return list(IntPolynomial(cs).derivative().coeffs)


def _square_free(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's split of a primitive f of degree >= 1 with positive leading
    coefficient: f = prod part^multiplicity, the parts primitive, square-free
    and pairwise coprime.  gcds of primitive polynomials divide exactly over Z
    (Gauss), so every quotient stays integral.  A repeated factor of f
    would stay repeated modulo any prime p not dividing the leading
    coefficient, so f square-free mod such a p is square-free: that cheap
    proof is tried first, for a few small p."""
    df = _derivative(f)
    for p in (3, 5, 7, 11):
        if f[-1] % p and len(_gcd_p([c % p for c in f], _trim([c % p for c in df]), p)) == 1:
            return [(f, 1)]
    a = _gcd(f, df)
    b, c = _divide(f, a), _divide(df, a)
    out, mult = [], 1
    while len(b) > 1:
        d = _trim([x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)])
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, mult))
        b, c, mult = _divide(b, a), _divide(d, a), mult + 1
    return out


def _divmod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p."""
    r, n = [c % p for c in a], len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(r) - n)
    for k in reversed(range(len(q))):
        q[k] = t = r[k + n] * inv % p
        if t:
            for i, c in enumerate(b):
                r[k + i] = (r[k + i] - t * c) % p
    return _trim(q), _trim(r[:n])


def _mulmod(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([c % m for c in _mul(a, b)])


def _sub_p(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p."""
    while b:
        a, b = b, _divmod_p(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _inverse_p(a: list[int], g: list[int], p: int) -> list[int]:
    """a^-1 modulo g over F_p, for a coprime to g (extended Euclid)."""
    r0, r1, s0, s1 = g, _divmod_p(a, g, p)[1], [], [1]
    while len(r1) > 1:
        q, r = _divmod_p(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub_p(s0, _mulmod(q, s1, p), p)
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _primes() -> Iterator[int]:
    p = 2
    while True:
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _berlekamp_basis(f: list[int], p: int) -> list[list[int]]:
    """A basis of {v : v^p = v mod f} over F_p for a monic square-free f;
    its size is the number of irreducible factors of f mod p.

    Row i of Q is x^(ip) mod f, a power of the companion matrix; v^p = v Q,
    so the basis spans the null space of (Q - I)^T, read from its reduced
    row echelon form.  Entries stay below p, so int64 arithmetic is exact
    while n p^2 < 2^63, far past any prime the search for good primes reaches.
    """
    n = len(f) - 1
    step = np.eye(n, k=1, dtype=np.int64)  # row k: x * x^k mod f
    step[-1] = [-c % p for c in f[:-1]]
    frob, e = np.eye(n, dtype=np.int64), p
    while e:
        if e & 1:
            frob = frob @ step % p
        step, e = step @ step % p, e >> 1
    q = np.empty((n, n), dtype=np.int64)
    q[0] = np.eye(1, n, dtype=np.int64)
    for i in range(1, n):
        q[i] = q[i - 1] @ frob % p
    m = (q - np.eye(n, dtype=np.int64)).T % p
    pivots: list[int] = []
    for col in range(n):
        k = len(pivots)
        nonzero = np.flatnonzero(m[k:, col])
        if not len(nonzero):
            continue
        m[[k, k + nonzero[0]]] = m[[k + nonzero[0], k]]
        m[k] = m[k] * pow(int(m[k, col]), -1, p) % p
        others = m[:, col].copy()
        others[k] = 0
        m = (m - np.outer(others, m[k])) % p
        pivots.append(col)
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for i, col in enumerate(pivots):
            v[col] = -int(m[i, free]) % p
        basis.append(_trim(v))
    return basis


def _berlekamp(f: list[int], p: int, basis: list[list[int]]) -> list[list[int]]:
    """The monic irreducible factors of the monic square-free f over F_p:
    each basis vector v splits a factor h into the gcd(h, v - s), s in F_p."""
    factors = [f]
    for v in basis:
        if len(factors) == len(basis):
            break
        if len(v) < 2:
            continue
        split = []
        for h in factors:
            pieces = [_gcd_p(h, _sub_p(v, [s], p), p) for s in range(p)] if len(h) > 2 else [h]
            split += [d for d in pieces if len(d) > 1]
        factors = split
    return factors


def _hensel(f: list[int], gs: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Lift f = lead * prod gs (mod p), the gs monic and pairwise coprime
    mod p, to the same identity mod p^k, one p-adic digit per step.

    With t_i the inverse of prod_{l != i} g_l modulo g_i, the error
    e = (f - lead * prod gs) / q (mod p) is lead * sum a_i prod_{l != i} g_l
    for a_i = e t_i / lead mod g_i, and g_i + q a_i holds modulo pq.
    """
    lead_inv = pow(f[-1], -1, p)
    ts = []
    for i, g in enumerate(gs):
        rest = [1]
        for h in gs[:i] + gs[i + 1 :]:
            rest = _divmod_p(_mul(rest, h), g, p)[1]
        ts.append([c * lead_inv for c in _inverse_p(rest, g, p)])
    q = p
    for _ in range(k - 1):
        prod = [f[-1]]
        for g in gs:
            prod = _mul(prod, g)
        e = _trim([(a - b) // q % p for a, b in itertools.zip_longest(f, prod, fillvalue=0)])
        gs = [
            [x + q * y for x, y in itertools.zip_longest(g, _divmod_p(_mul(e, t), g, p)[1], fillvalue=0)]
            for g, t in zip(gs, ts)
        ]
        q *= p
    return gs


def _recombine(f: list[int], gs: list[list[int]], q: int) -> list[list[int]]:
    """The irreducible factors of f over Z from its lifted factors mod q.

    Subsets of gs are tried by size: lead * prod(subset), in symmetric
    residues mod q, is a factor's lead-multiple whenever q exceeds twice the
    Mignotte bound, and trial division decides.  Every subset counts against
    _DEFAULT_BUDGET; past it the call is refused.
    """
    factors, size, tried = [], 1, 0
    while 2 * size <= len(gs):
        for subset in itertools.combinations(range(len(gs)), size):
            tried += 1
            if tried > _DEFAULT_BUDGET:
                raise BudgetExceededError(
                    f"recombining {len(gs)} modular factors tries more than "
                    f"{_DEFAULT_BUDGET} subsets"
                )
            h = [f[-1]]
            for i in subset:
                h = _mulmod(h, gs[i], q)
            h = _primitive([c - q if 2 * c > q else c for c in h])
            quotient = _divide(f, h) if h[0] and f[0] % h[0] == 0 else None
            if quotient is not None:
                factors.append(h)
                f, gs = quotient, [g for i, g in enumerate(gs) if i not in subset]
                break
        else:
            size += 1
    return factors + [f]


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """The irreducible factors over Z of a primitive square-free f with
    positive leading coefficient, f(0) != 0 and degree >= 2.

    Berlekamp runs modulo the first _PRIMES_TRIED primes that leave the
    leading coefficient and square-freeness intact; one factor proves f
    irreducible, and otherwise the prime with fewest factors (the largest
    on ties, which needs fewer lifting steps) is lifted past
    2 * lead * 2^n * ||f||_2.
    """
    n, lead = len(f) - 1, f[-1]
    best, tried = None, 0
    for p in _primes():
        if lead % p == 0:
            continue
        inv = pow(lead, -1, p)
        g = [c * inv % p for c in f]
        if len(_gcd_p(g, _trim([c % p for c in _derivative(g)]), p)) > 1:
            continue
        basis = _berlekamp_basis(g, p)
        if len(basis) == 1:
            return [f]
        if best is None or len(basis) <= len(best[2]):
            best = p, g, basis
        tried += 1
        if tried == _PRIMES_TRIED:
            break
    p, g, basis = best
    bound, k = 2 * lead * 2**n * (math.isqrt(sum(c * c for c in f)) + 1), 1
    while p**k <= bound:
        k += 1
    return _recombine(f, _hensel(f, _berlekamp(g, p, basis), p, k), p**k)


def _factor(poly: IntPolynomial) -> tuple[int, list[tuple[IntPolynomial, int]]]:
    """(content, [(factor, multiplicity), ...]) with poly = content *
    prod factor^multiplicity, each factor irreducible over Z, primitive and
    with positive leading coefficient; the content carries the sign.  This
    is the shape of sympy's factor_list."""
    if poly.degree < 1:
        return (poly.coeffs[0] if poly.coeffs else 0), []
    content = poly.content() if poly.leading > 0 else -poly.content()
    f = [c // content for c in poly.coeffs]
    zeros = next(i for i, c in enumerate(f) if c)
    out = [(IntPolynomial((0, 1)), zeros)] if zeros else []
    if len(f) - zeros > 1:
        for part, mult in _square_free(f[zeros:]):
            out += [(IntPolynomial(g), mult) for g in ([part] if len(part) == 2 else _zassenhaus(part))]
    return content, out


def _is_irreducible(poly: IntPolynomial) -> bool:
    """Irreducibility over Q; degrees 1 and 2 are decided without factoring."""
    if poly.degree < 1:
        return False
    if poly.degree == 1:
        return True
    if poly.degree == 2:  # a rational root exists iff the discriminant is a square
        c, b, a = poly.coeffs
        disc = b * b - 4 * a * c
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    factors = _factor(poly)[1]
    return len(factors) == 1 and factors[0][1] == 1


def _shifted(cs: Sequence[int], a: int, b: int, d: int) -> list[int]:
    """d^n f((a + b x) / d) for f = cs of degree n, by Horner's rule."""
    out, dk = [cs[-1]], 1
    for c in reversed(cs[:-1]):
        dk *= d
        out = [a * u + b * v for u, v in zip(out + [0], [0] + out)]
        out[0] += c * dk
    return out


def _unit_roots(q: list[int]) -> list[tuple[int, int]]:
    """(c, k) per interval (c / 2^k, (c + 1) / 2^k) holding exactly one root
    of q, one interval for each root of q in (0, 1).

    q must be square-free with no root at a dyadic point.  The sign
    variations of (x + 1)^n q(1 / (x + 1)) bound the roots in (0, 1) and
    count them when at most one; larger counts bisect.
    """
    out, todo = [], [(q, 0, 0)]
    while todo:
        q, c, k = todo.pop()
        signs = [x > 0 for x in _shifted(q[::-1], 1, 1, 1) if x]
        changes = sum(s != t for s, t in zip(signs, signs[1:]))
        if changes == 1:
            out.append((c, k))
        elif changes > 1:
            half = _shifted(q, 0, 1, 2)  # 2^n q(x / 2)
            todo += [(half, 2 * c, k + 1), (_shifted(half, 1, 1, 1), 2 * c + 1, k + 1)]
    return out


def _count_roots(poly: IntPolynomial, low: Fraction, high: Fraction) -> int:
    """Number of roots of an irreducible poly in the open interval (low, high)."""
    d = math.lcm(low.denominator, high.denominator)
    a, b = int(low * d), int(high * d)
    return len(_unit_roots(_shifted(poly.coeffs, a, b - a, d)))


def _isolate(f: list[int]) -> list[tuple[Fraction, Fraction]]:
    """An isolating interval for each real root of an irreducible f.

    A linear factor's rational root r gets (r - 2^-60, r + 2^-60).  Other
    roots lie in (-2^K, 2^K) by Cauchy's bound; _unit_roots isolates them
    on each side of 0, and bisection with exact dyadic signs narrows each
    interval to width w <= 2^-60 with w <= 2^-54 |lower end|.  The ends stay
    multiples of w, so every rounding boundary of the float near the root is
    an end, and the midpoint's float is the root correctly rounded.
    """
    if len(f) == 2:
        r, eps = Fraction(-f[0], f[1]), Fraction(1, 2**60)
        return [(r - eps, r + eps)]
    K = (1 - (-max(map(abs, f[:-1])) // f[-1])).bit_length()
    out = []
    for sign in (1, -1):
        g = _shifted(f, 0, sign, 1)  # f(x) or f(-x)
        for c, k in _unit_roots(_shifted(g, 0, 1 << K, 1)):
            j = k - K  # the interval is (c / 2^j, (c + 1) / 2^j)
            lo, hi, j = (c, c + 1, j) if j >= 0 else (c << -j, (c + 1) << -j, 0)
            positive = _horner_at(g, lo, j) > 0
            while (hi - lo) << 60 > 1 << j or (hi - lo) << 54 > lo:
                lo, hi, j = 2 * lo, 2 * hi, j + 1
                mid = (lo + hi) // 2
                if (_horner_at(g, mid, j) > 0) == positive:
                    lo = mid
                else:
                    hi = mid
            lo, hi = Fraction(lo, 1 << j), Fraction(hi, 1 << j)
            out.append((lo, hi) if sign > 0 else (-hi, -lo))
    return out


def _horner_at(cs: list[int], a: int, j: int) -> int:
    """2^(jn) f(a / 2^j), whose sign is that of f(a / 2^j)."""
    v = cs[-1]
    for k, c in enumerate(reversed(cs[:-1]), 1):
        v = v * a + (c << (j * k))
    return v


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
        if _count_roots(p, self.low, self.high) != 1:
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
        """The root correctly rounded: refine until both ends of the
        interval round to one float.  An irreducible minpoly of degree >= 2
        has no rational root, so the root is never an end of the interval."""
        c = self.minpoly.coeffs
        if len(c) == 2:
            return float(Fraction(-c[0], c[1]))
        width = Fraction(1, 2**60)
        lo, hi = self.refined(width)
        while float(lo) != float(hi):
            width /= 2**20
            lo, hi = self.refined(width)
        return float(lo)

    @staticmethod
    def from_root_near(poly: IntPolynomial, x0: float) -> "AlgebraicNumber":
        """The real root of poly nearest x0, with its minimal polynomial.

        poly need not be irreducible: the root is the `_real_roots` entry
        whose isolating interval lies nearest x0.
        """
        if poly.is_zero() or poly.degree < 1:
            raise ValueError("polynomial must have degree >= 1")
        if not math.isfinite(x0):
            raise ValueError("x0 must be finite")
        roots = _real_roots(poly)
        if not roots:
            raise ValueError("polynomial has no real roots")
        x = Fraction(float(x0))
        _, minpoly, lo, hi = min(roots, key=lambda r: max(r[2] - x, x - r[3], 0))
        return AlgebraicNumber(minpoly, lo, hi)


def _real_roots(poly: IntPolynomial) -> list[tuple[float, IntPolynomial, Fraction, Fraction]]:
    """Each distinct real root of poly once, in increasing order, as
    (float, primitive minpoly, low, high).

    poly is factored once over Z (_factor) and each irreducible factor's
    roots are isolated by _isolate; the float is the interval midpoint.
    """
    roots = []
    for minpoly, _mult in _factor(poly)[1]:
        for lo, hi in _isolate(list(minpoly.coeffs)):
            roots.append((float((lo + hi) / 2), minpoly, lo, hi))
    return sorted(roots, key=lambda r: r[0])


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


def _measure_brackets(poly: IntPolynomial) -> Iterator[tuple[int, int, int]]:
    """(low, high, scale) per enclosure of _root_enclosures: each cluster
    contributes max(1, low)^m and max(1, high)^m, so the Mahler measure lies
    in [low, high] / scale."""
    for bits, clusters in _root_enclosures(poly):
        one = 1 << bits
        low = high = abs(poly.leading)
        scale = 1
        for m, lo, hi in clusters:
            low *= max(one, lo) ** m
            high *= max(one, hi) ** m
            scale *= one**m
        yield low, high, scale


def _certified(low: int, high: int, scale: int, rel_tol: float) -> MahlerMeasure | None:
    """The float nearest (low + high) / (2 scale), if [low, high] / scale lies
    within rel_tol of it, with the largest relative distance rounded up."""
    try:
        value = (low + high) / (2 * scale)
    except OverflowError:
        raise ValueError("the Mahler measure exceeds the float64 range") from None
    v = Fraction(value)
    err = _float_up(max(v - Fraction(low, scale), Fraction(high, scale) - v) / v)
    return MahlerMeasure(value, err) if err <= rel_tol else None


def mahler_measure(poly: "IntPolynomial | Sequence[int]", rel_tol: float = 1e-9) -> MahlerMeasure:
    """Mahler measure |lead| * prod(max(1, |root|)), with a proven relative error.

    A square-free poly (zero roots aside) is read from the first bracket of
    _measure_brackets that _certified accepts.  Otherwise the disks would
    converge only linearly on the repeated roots, so the measure is taken
    as |content| * prod M(part)^e over Yun's square-free parts, each
    bracketed to a relative width of min(rel_tol, 1) / (4 sum e); the
    product then fits rel_tol.  Raises UncertifiedError when no enclosure
    fits.
    """
    if not isinstance(poly, IntPolynomial):
        poly = IntPolynomial(tuple(poly))
    if poly.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    if not rel_tol >= 2**-52:
        raise ValueError("rel_tol must be at least 2^-52, the resolution of a float result")
    f = _primitive(list(poly.coeffs[next(i for i, c in enumerate(poly.coeffs) if c) :]))
    parts = _square_free(f) if len(f) > 1 else [(f, 1)]
    if parts == [(f, 1)]:
        for bracket in _measure_brackets(poly):
            m = _certified(*bracket, rel_tol)
            if m is not None:
                return m
    else:
        width = Fraction(min(rel_tol, 1.0)) / (4 * sum(e for _, e in parts))
        brackets = [
            next((b for b in _measure_brackets(IntPolynomial(g)) if b[1] - b[0] <= width * b[0]), None)
            for g, _ in parts
        ]
        if None not in brackets:
            low = high = poly.content()
            scale = 1
            for (lo, hi, sc), (_, e) in zip(brackets, parts):
                low, high, scale = low * lo**e, high * hi**e, scale * sc**e
            m = _certified(low, high, scale, rel_tol)
            if m is not None:
                return m
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
    c_max = _as_float(max(map(abs, coeffs)), "coefficient set entries")
    if not math.isfinite(c_max * sum(map(abs, _powers(xi, n)))):
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
    minpoly: IntPolynomial | None  # the root's minimal polynomial when status is "ok"
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
            roots = _real_roots(poly)
            for root in roots:
                if fallback is None or abs(root[0] - lj) < abs(fallback[2] - lj):
                    fallback = (absval, poly, root[0])
            inside = [root for root in roots if 0.0 < root[0] < 1.0]
            if inside:
                chosen = (absval, poly, min(inside, key=lambda root: abs(root[0] - lj)))
                break
        if chosen is not None:
            absval, poly, (ef, minpoly, _, _) = chosen
            axes.append(AxisApproximation(j, "ok", poly, absval, minpoly, ef, abs(ef - lj)))
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
