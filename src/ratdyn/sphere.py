"""Rational maps and Möbius transformations on the Riemann sphere.

Points live on the sphere as an explicit Finite/Infinity tag pair; all
numeric kernels work on normalized homogeneous pairs (X, Y) so Infinity is
an ordinary point.  Maps carry exact Gaussian-rational coefficients when
possible and always keep complex-float shadows for the numeric paths.

Every evaluation of a map, float or exact, in homogeneous form or in a
chart, is a call of ``polys.hom_eval`` on one of the map's homogeneous
pairs (exact ``num``/``den`` or the float ``_nf``/``_df``); the charts keep
no coefficients of their own.

:func:`chart_orbit` and :func:`chart_steps` are the one walk of a cycle's
chart steps (z chart for |z| <= 1, else w = 1/z): cycle multipliers and the
homoclinic Newton both take them, exact or float for the whole cycle.
:func:`chart_step` reads a step's value and derivative from ``hom_eval``'s
X-partial at (u, 1), on the pair as it is in the z chart and reversed in
the w chart.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import config
from .errors import DegenerateMap, DegreeTooLow, RootFindingFailed
from .polys import (
    Poly,
    fractions_to_int_primitive,
    hom_eval,
    pdeg,
    pderiv,
    pexactdiv,
    pgcd,
    pmul,
    ppad,
    pstrip,
    psub,
    qi_poly_to_fractions,
)
from .scalars import Qi

# ----------------------------------------------------------------------
# points
# ----------------------------------------------------------------------


class ProjPoint:
    """A point of the sphere: Finite(z) with z exact (Qi) or complex, or
    the explicit Infinity tag (never an overflow artifact)."""

    __slots__ = ("z", "is_infinity")

    def __init__(self, z=None, is_infinity: bool = False):
        self.is_infinity = bool(is_infinity)
        if is_infinity:
            self.z = None
        else:
            # ints and Fractions are exact; keep them that way
            if isinstance(z, (int, Fraction)):
                z = Qi(z)
            self.z = z

    @staticmethod
    def finite(z) -> "ProjPoint":
        return ProjPoint(z=z, is_infinity=False)

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(is_infinity=True)

    @property
    def is_exact(self) -> bool:
        return self.is_infinity or isinstance(self.z, Qi)

    def to_complex(self) -> complex:
        if self.is_infinity:
            return complex("inf")
        return complex(self.z)

    def xy(self) -> tuple[complex, complex]:
        """Normalized homogeneous representative (|X|, |Y| <= 1, max = 1)."""
        if self.is_infinity:
            return (1.0 + 0.0j, 0.0 + 0.0j)
        z = complex(self.z)
        if abs(z) <= 1.0:
            return (z, 1.0 + 0.0j)
        return (1.0 + 0.0j, 1.0 / z)

    def __repr__(self):
        if self.is_infinity:
            return "ProjPoint(inf)"
        return f"ProjPoint({self.z!r})"

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.z == other.z

    def __hash__(self):
        return hash("inf") if self.is_infinity else hash(complex(self.z))


INF = ProjPoint.infinity()


def chordal(p: ProjPoint | complex, q: ProjPoint | complex) -> float:
    """Chordal distance |X_p Y_q - X_q Y_p| on normalized representatives,
    in [0, 1]; Infinity is an ordinary point."""
    xp, yp = p.xy() if isinstance(p, ProjPoint) else ProjPoint.finite(p).xy()
    xq, yq = q.xy() if isinstance(q, ProjPoint) else ProjPoint.finite(q).xy()
    num = abs(xp * yq - xq * yp)
    den = math.sqrt((abs(xp) ** 2 + abs(yp) ** 2) * (abs(xq) ** 2 + abs(yq) ** 2))
    return num / den


def chordal_xy(X1, Y1, X2, Y2):
    """Vectorized chordal distance for normalized homogeneous arrays."""
    num = np.abs(X1 * Y2 - X2 * Y1)
    den = np.sqrt(
        (np.abs(X1) ** 2 + np.abs(Y1) ** 2) * (np.abs(X2) ** 2 + np.abs(Y2) ** 2)
    )
    return num / den


def sphere_points(X, Y):
    """Unit vectors in R^3 of normalized homogeneous points (stereographic
    lift); the Euclidean distance of two is twice their chordal distance."""
    n2 = np.abs(X) ** 2 + np.abs(Y) ** 2
    w = X * np.conj(Y)
    P = np.stack([2 * w.real, 2 * w.imag, np.abs(X) ** 2 - np.abs(Y) ** 2], axis=1)
    return P / n2[:, None]


def near_pairs(Q, P, t: float):
    """Candidate index pairs (i, j), rows of two sphere_points arrays, that
    include every pair within chordal distance t.  Cell search (Bentley &
    Friedman 1979): such a pair differs by under 2t (plus rounding) in each
    coordinate, so with cells of side h >= 4t it lies in adjacent cells;
    h >= 1e-5 keeps the int64 keys of the 27 neighbours of each cell of
    [-1, 1]^3 distinct.  Non-finite rows are binned at the origin."""
    h = max(4.0 * t, 1e-5)
    B = 2 * int(1.0 / h) + 7

    def keys(A):
        c = np.floor(np.nan_to_num(A) / h).astype(np.int64) + B // 2
        return (c[:, 0] * B + c[:, 1]) * B + c[:, 2]

    kp = keys(P)
    order = np.argsort(kp)
    kp = kp[order]
    e = np.arange(27)
    k = (keys(Q)[:, None] + ((e // 9 - 1) * B + e // 3 % 3 - 1) * B + e % 3 - 1).ravel()
    lo = np.searchsorted(kp, k, "left")
    cnt = np.searchsorted(kp, k, "right") - lo
    first = np.cumsum(cnt) - cnt
    i = np.repeat(np.arange(k.size) // 27, cnt)
    return i, order[np.repeat(lo - first, cnt) + np.arange(cnt.sum())]


def points_to_xy(points: Sequence[ProjPoint]):
    X = np.empty(len(points), dtype=complex)
    Y = np.empty(len(points), dtype=complex)
    for i, p in enumerate(points):
        X[i], Y[i] = p.xy()
    return X, Y


def xy_to_points(X, Y) -> list[ProjPoint]:
    out = []
    for x, y in zip(np.asarray(X).ravel(), np.asarray(Y).ravel()):
        if abs(y) * 1e300 <= abs(x) or y == 0:
            out.append(INF)
        else:
            out.append(ProjPoint.finite(complex(x / y)))
    return out


def normalize_xy(X, Y):
    s = np.maximum(np.abs(X), np.abs(Y))
    s = np.where(s == 0, 1.0, s)
    return X / s, Y / s


# ----------------------------------------------------------------------
# Möbius transformations
# ----------------------------------------------------------------------


class MoebiusMap:
    """z -> (a z + b)/(c z + d) with nonzero determinant."""

    __slots__ = ("a", "b", "c", "d", "exact")

    def __init__(self, a, b, c, d):
        vals = [a, b, c, d]
        exact = True
        try:
            vals = [Qi.coerce(v) for v in vals]
        except TypeError:
            vals = [complex(v) for v in vals]
            exact = False
        self.a, self.b, self.c, self.d = vals
        self.exact = exact
        det = self.a * self.d - self.b * self.c
        if (exact and det.is_zero()) or (not exact and abs(det) < 1e-14):
            raise DegenerateMap("Moebius determinant is zero")

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def __call__(self, p: ProjPoint | complex) -> ProjPoint:
        if not isinstance(p, ProjPoint):
            p = ProjPoint.finite(p)
        a, b, c, d = self.a, self.b, self.c, self.d
        if not self.exact:
            X, Y = p.xy()
        elif p.is_infinity:
            X, Y = Qi(1), Qi(0)
        else:
            X, Y = Qi.coerce(p.z), Qi(1)
        nx = a * X + b * Y
        ny = c * X + d * Y
        if (isinstance(ny, Qi) and ny.is_zero()) or (
            not isinstance(ny, Qi) and ny == 0
        ):
            return INF
        return ProjPoint.finite(nx / ny)

    def __repr__(self):
        return f"MoebiusMap({self.a}, {self.b}, {self.c}, {self.d})"


# ----------------------------------------------------------------------
# rational maps
# ----------------------------------------------------------------------


def _coerce_coeffs(coeffs):
    """Try exact (Qi) coercion of a coefficient list, else complex floats."""
    try:
        return [Qi.coerce(c) for c in coeffs], True
    except TypeError:
        return [complex(c) for c in coeffs], False


class RationalMap:
    """A degree-d rational map as a coprime numerator/denominator pair.

    ``num``/``den`` are ascending coefficient tuples, exact (Qi) or complex.
    Numeric shadows (numpy arrays padded to homogeneous length d+1) are
    always available for the float kernels.  A map with rational
    coefficients also carries ``int_pair``: the primitive integer pair
    (A, B), padded to length d+1, with A = int_scale * num and
    B = int_scale * den for a rational ``int_scale``; both are None for
    Q(i) and float maps.
    """

    def __init__(self, num, den, exact: bool):
        self.num = tuple(num)
        self.den = tuple(den)
        self.exact = exact
        self.degree = max(pdeg(list(num)), pdeg(list(den)))
        d = self.degree
        self.int_pair = self.int_scale = None
        if exact and all(Qi.coerce(c).is_real() for c in self.num + self.den):
            flat, scale = fractions_to_int_primitive(
                ppad(qi_poly_to_fractions(self.num), d + 1)
                + qi_poly_to_fractions(self.den)
            )
            self.int_pair = (flat[: d + 1], ppad(flat[d + 1 :], d + 1))
            self.int_scale = 1 / scale
        nf = np.zeros(d + 1, dtype=complex)
        df = np.zeros(d + 1, dtype=complex)
        for i, c in enumerate(num):
            nf[i] = complex(c)
        for i, c in enumerate(den):
            df[i] = complex(c)
        self._coeffs_c = (nf, df)  # complex num, den padded to d + 1
        scale = max(np.abs(nf).max(), np.abs(df).max())
        # lists: chart_step reads them one coefficient at a time
        self._nf = list(nf / scale)
        self._df = list(df / scale)
        self._wronskian_f = np.polynomial.polynomial.polysub(
            np.polynomial.polynomial.polymul(
                np.polynomial.polynomial.polyder(self._nf), self._df
            ),
            np.polynomial.polynomial.polymul(
                self._nf, np.polynomial.polynomial.polyder(self._df)
            ),
        )

    # -- exact views ----------------------------------------------------
    def wronskian_exact(self):
        """num' den - num den' with Qi coefficients (exact maps only)."""
        n, d = list(self.num), list(self.den)
        return psub(pmul(pderiv(n), d), pmul(n, pderiv(d)))

    # -- evaluation -------------------------------------------------------
    def evaluate(self, p: ProjPoint | complex) -> ProjPoint:
        if not isinstance(p, ProjPoint):
            p = ProjPoint.finite(p)
        if self.exact and p.is_exact:
            return self._evaluate_exact(p)
        return self.evaluate_float(p)

    def evaluate_float(self, p: ProjPoint) -> ProjPoint:
        """f(p) by the float kernel, also for exact maps and points (whose
        exact orbits can grow without bound)."""
        X, Y = p.xy()
        Xa, Ya = self.eval_hom(np.array([X]), np.array([Y]))
        return xy_to_points(Xa, Ya)[0]

    def _evaluate_exact(self, p: ProjPoint) -> ProjPoint:
        d = self.degree
        if p.is_infinity:
            X, Y = Qi(1), Qi(0)
        else:
            X, Y = Qi.coerce(p.z), Qi(1)
        F = hom_eval(ppad(self.num, d + 1, Qi(0)), X, Y)
        G = hom_eval(ppad(self.den, d + 1, Qi(0)), X, Y)
        if G.is_zero():
            if F.is_zero():
                raise DegenerateMap("common root met in exact evaluation")
            return INF
        return ProjPoint.finite(F / G)

    def eval_hom(self, X, Y):
        """Homogeneous step (F(X,Y), G(X,Y)), normalized output."""
        return normalize_xy(hom_eval(self._nf, X, Y), hom_eval(self._df, X, Y))

    def iterate_hom(self, X, Y, n: int):
        for _ in range(n):
            X, Y = self.eval_hom(X, Y)
        return X, Y

    # -- spherical derivative ----------------------------------------------
    def spherical_norm_xy(self, X, Y):
        """||f'|| in the spherical metric, scale-invariant homogeneous form:
        (|X|^2+|Y|^2) |det J(X,Y)| / (d (|F|^2+|G|^2))."""
        d = self.degree
        accF = hom_eval(self._nf, X, Y)
        accG = hom_eval(self._df, X, Y)
        # det J(X, Y) = d * (num' den - num den') homogenized to degree 2d-2
        w = self._wronskian_f
        wpad = np.zeros(2 * d - 1, dtype=complex)
        wpad[: len(w)] = w
        accW = hom_eval(wpad, X, Y)
        # det J(X, Y) = d * (homogenized Wronskian); the d cancels against the
        # d in the chart formula, leaving:
        num = (np.abs(X) ** 2 + np.abs(Y) ** 2) * np.abs(accW)
        den = np.abs(accF) ** 2 + np.abs(accG) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / den
        return out

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return f"RationalMap(degree={self.degree}, {kind})"


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def build_map(num_coeffs: Iterable, den_coeffs: Iterable, exact: bool | None = None) -> RationalMap:
    """Build a reduced RationalMap from ascending coefficient lists.

    Exact (Q(i)) coefficients get exact gcd reduction; float coefficients
    are only checked for a (normalized) nonzero resultant, since float gcd
    is ill-posed.  ``exact=False`` forces the float realization.
    """
    num = pstrip(list(num_coeffs))
    den = pstrip(list(den_coeffs))
    if not num and not den:
        raise DegenerateMap("empty map")
    if not den:
        raise DegenerateMap("zero denominator")
    nq, n_exact = _coerce_coeffs(num)
    dq, d_exact = _coerce_coeffs(den)
    exact = (n_exact and d_exact) if exact is None else (exact and n_exact and d_exact)
    if exact:
        nq = [Qi.coerce(c) for c in num]
        dq = [Qi.coerce(c) for c in den]
        g = pgcd(nq, dq)
        reduced = pdeg(g) > 0
        if reduced:
            nq = pexactdiv(nq, g)
            dq = pexactdiv(dq, g)
        d = max(pdeg(nq), pdeg(dq))
        if d < 2:
            if reduced:
                raise DegenerateMap(
                    "numerator and denominator share a factor; reduced degree "
                    f"{d} < 2"
                )
            raise DegreeTooLow(f"degree {d} < 2")
        # canonical scale: monic denominator
        lead = dq[-1]
        nq = [c / lead for c in nq]
        dq = [c / lead for c in dq]
        return RationalMap(nq, dq, exact=True)
    nf = [complex(c) for c in num]
    df = [complex(c) for c in den]
    d = max(pdeg(nf), pdeg(df))
    if d < 2:
        raise DegreeTooLow(f"degree {d} < 2")
    if _float_resultant_small(nf, df):
        raise DegenerateMap("numerator and denominator are numerically degenerate")
    return RationalMap(nf, df, exact=False)


def _float_resultant_small(nf, df) -> bool:
    """Normalized Sylvester-determinant resultant below 1e-10."""
    n = pstrip(nf)
    dd = pstrip(df)
    dn, dm = len(n) - 1, len(dd) - 1
    if dn < 0 or dm < 0:
        return True
    if dn == 0 or dm == 0:
        return False  # a nonzero constant shares no root with anything
    sn = math.sqrt(sum(abs(c) ** 2 for c in n))
    sm = math.sqrt(sum(abs(c) ** 2 for c in dd))
    n = [c / sn for c in n]
    dd = [c / sm for c in dd]
    size = dn + dm
    S = np.zeros((size, size), dtype=complex)
    for i in range(dm):
        S[i, i : i + dn + 1] = list(reversed(n))
    for i in range(dn):
        S[dm + i, i : i + dm + 1] = list(reversed(dd))
    res = np.linalg.det(S)
    return abs(res) < 1e-10


# ----------------------------------------------------------------------
# spec-surface operations
# ----------------------------------------------------------------------


def evaluate(f: RationalMap, p: ProjPoint | complex) -> ProjPoint:
    return f.evaluate(p)


def spherical_norm(f: RationalMap, p: ProjPoint | complex) -> float:
    """Norm of the differential of f in the spherical metric, extended
    continuously over the whole sphere."""
    if not isinstance(p, ProjPoint):
        p = ProjPoint.finite(p)
    X, Y = p.xy()
    return float(f.spherical_norm_xy(np.array([X]), np.array([Y]))[0])


def conjugate(f: RationalMap, phi: MoebiusMap) -> RationalMap:
    """phi o f o phi^(-1) as a reduced RationalMap of the same degree."""
    d = f.degree
    if f.exact and phi.exact:
        num = ppad(f.num, d + 1, Qi(0))
        den = ppad(f.den, d + 1, Qi(0))
        a, b, c, dd = phi.a, phi.b, phi.c, phi.d
    else:
        num = ppad([complex(c) for c in f.num], d + 1, 0j)
        den = ppad([complex(c) for c in f.den], d + 1, 0j)
        a, b, c, dd = (complex(phi.a), complex(phi.b), complex(phi.c), complex(phi.d))
    # inverse of phi acts on (X, Y) by the adjugate matrix;
    # dehomogenized linear forms (X -> z, Y -> 1), ascending
    U = Poly([-b, dd])  # d*X - b*Y
    V = Poly([a, -c])  # -c*X + a*Y
    Ft, Gt = hom_eval(num, U, V), hom_eval(den, U, V)
    return build_map((a * Ft + b * Gt).c, (c * Ft + dd * Gt).c)


def critical_points(
    f: RationalMap, tol: float = 1e-9
) -> list[tuple[ProjPoint, int]]:
    """The 2d-2 critical points with multiplicities.

    Finite critical points are the roots of num' den - num den'; Infinity
    carries whatever multiplicity is missing from that count (computed in
    the chart w = 1/z).
    """
    from .roots import solve_poly

    d = f.degree
    if f.exact:
        w = [complex(c) for c in f.wronskian_exact()]
    else:
        raw = np.asarray(f._wronskian_f)
        cut = 1e-13 * (np.abs(raw).max() if raw.size else 1.0)
        w = list(raw)
        while w and abs(w[-1]) <= cut:
            w.pop()
    total = 2 * d - 2
    out: list[tuple[ProjPoint, int]] = []
    if w:
        wa = np.array(w, dtype=complex)
        roots = solve_poly(wa)
        groups = _cluster_points(
            [ProjPoint.finite(complex(r)) for r in roots], max(tol, 1e-7)
        )
        for pt, mult in groups:
            out.append((pt, mult))
    found = sum(m for _, m in out)
    inf_mult = total - found
    if inf_mult > 0:
        out.append((INF, inf_mult))
    elif inf_mult < 0:
        raise RootFindingFailed(f"critical point multiplicities add to {found} > {total}")
    return out


def _cluster_points(points: list[ProjPoint], tol: float):
    """Greedy chordal clustering; returns [(representative, multiplicity)]."""
    reps: list[tuple[ProjPoint, int]] = []
    for p in points:
        for i, (q, m) in enumerate(reps):
            if chordal(p, q) <= tol:
                reps[i] = (q, m + 1)
                break
        else:
            reps.append((p, 1))
    return reps


class PostcriticalTruncation:
    """Union of f^k(critical set) for 1 <= k <= depth, deduplicated at tol;
    ``critical`` is the float :func:`critical_points` list it started from."""

    def __init__(self, points: list[ProjPoint], depth: int, closed: bool, tol: float,
                 critical: list[tuple[ProjPoint, int]]):
        self.points = points
        self.depth = depth
        self.closed = closed
        self.tol = tol
        self.critical = critical

    def min_chordal(self, p: ProjPoint | complex) -> float:
        if not self.points:
            return float("inf")
        return min(chordal(p, q) for q in self.points)

    def __repr__(self):
        return (
            f"PostcriticalTruncation({len(self.points)} points, depth={self.depth}, "
            f"closed={self.closed})"
        )


def postcritical_truncation(
    f: RationalMap, depth: int, tol: float = config.DEDUP_TOL
) -> PostcriticalTruncation:
    """Truncated forward orbit of the critical set.

    Runs on the float kernel, from the exact point Infinity too, with
    chordal deduplication at tol; when the truncation closes numerically
    and every critical point is recognizably in Q(i), the closure is
    re-confirmed with exact Gaussian-rational orbits, whose growth
    :func:`_postcritical_exact` caps.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    critical = critical_points(f, tol)
    crit = [p for p, _ in critical]
    pts: list[ProjPoint] = []
    frontier = crit
    for _ in range(depth):
        frontier = [f.evaluate_float(p) for p in frontier]
        fresh = []
        for p in frontier:
            if all(chordal(p, q) > tol for q in pts):
                pts.append(p)
                fresh.append(p)
        frontier = fresh
        if not frontier:
            break
    images = [f.evaluate_float(p) for p in pts]
    closed = all(any(chordal(fp, q) <= tol for q in pts) for fp in images)
    if closed and f.exact:
        exact_crit = _try_exact_points(f, crit)
        if exact_crit is not None:
            try:
                return _postcritical_exact(f, exact_crit, depth, critical)
            except OverflowError:
                # the exact orbit is still escaping: the numeric closure was
                # an attracting-cycle artifact, not PCF
                closed = False
    return PostcriticalTruncation(pts, depth, closed, tol, critical)


def _postcritical_exact(f: RationalMap, crit: list[ProjPoint], depth: int, critical):
    size_cap = 1 << 512

    def small(p: ProjPoint) -> bool:
        if p.is_infinity:
            return True
        q = Qi.coerce(p.z)
        a2 = q.abs2()
        return a2.numerator < size_cap and a2.denominator < size_cap

    pts: list[ProjPoint] = []
    frontier = crit
    for _ in range(depth):
        frontier = [f.evaluate(p) for p in frontier]
        if not all(small(p) for p in frontier):
            raise OverflowError("exact orbit values grew past the size cap")
        fresh = [p for p in frontier if p not in pts]
        for p in fresh:
            if p not in pts:
                pts.append(p)
        frontier = fresh
        if not frontier:
            break
    closed = all(f.evaluate(p) in pts for p in pts)
    return PostcriticalTruncation(pts, depth, closed, 0.0, critical)


def _try_exact_points(f: RationalMap, pts: list[ProjPoint]):
    """Snap numeric points to small Gaussian rationals verified against the
    Wronskian; None unless every point snaps."""
    w = f.wronskian_exact()
    out = []
    for p in pts:
        if p.is_infinity:
            out.append(p)
            continue
        cand = _snap_qi(complex(p.z))
        if cand is None:
            return None
        # verify exactly: w(cand) == 0
        if hom_eval(w, cand, 1):
            return None
        out.append(ProjPoint.finite(cand))
    return out


def _snap_qi(z: complex):
    fr = Fraction(z.real).limit_denominator(64)
    fi = Fraction(z.imag).limit_denominator(64)
    if abs(float(fr) - z.real) <= 1e-8 and abs(float(fi) - z.imag) <= 1e-8:
        return Qi(fr, fi)
    return None


# ----------------------------------------------------------------------
# cycles in the two charts (multipliers and homoclinic orbits)
# ----------------------------------------------------------------------


def _chart_value(p: ProjPoint, exact: bool):
    """(u, in_z): u = z in the z chart if |z| <= 1, else u = 1/z in the
    w = 1/z chart (0 at Infinity); Qi values when exact, else complex."""
    if p.is_infinity:
        return (Qi(0) if exact else 0j), False
    z = p.z
    if isinstance(z, Qi):
        in_z = z.abs2() <= 1
    else:
        z = complex(z)
        in_z = z.real * z.real + z.imag * z.imag <= 1.0
    z = Qi.coerce(z) if exact else complex(z)
    if in_z:
        return z, True
    return (Qi(1) if exact else 1.0 + 0j) / z, False


def chart_orbit(points, exact: bool) -> list[tuple]:
    """A cycle's points (ProjPoint or complex), in orbit order, as chart
    values (u, in_z).  ``exact`` (Qi values) needs every point exact."""
    return [
        _chart_value(p if isinstance(p, ProjPoint) else ProjPoint.finite(p), exact)
        for p in points
    ]


def chart_step(f: RationalMap, u, in_z: bool, out_z: bool, exact: bool):
    """(image, derivative) of chart_out o f o chart_in^(-1) at the chart
    value u, where in_z/out_z pick the z chart (True) or the w = 1/z chart.
    The chart polynomials P, Q and their derivatives at u are the values
    and X-partials of f's homogeneous pair at (u, 1): the pair as it is in
    the z chart, reversed in the w chart."""
    if exact:
        d = f.degree
        num, den = ppad(f.num, d + 1, Qi(0)), ppad(f.den, d + 1, Qi(0))
    else:
        num, den = f._nf, f._df
    if not in_z:
        num, den = num[::-1], den[::-1]
    Pu, dPu, _ = hom_eval(num, u, 1, partials=True)
    Qu, dQu, _ = hom_eval(den, u, 1, partials=True)
    if out_z:
        return Pu / Qu, (dPu * Qu - Pu * dQu) / (Qu * Qu)
    return Qu / Pu, (dQu * Pu - Qu * dPu) / (Pu * Pu)


def chart_steps(f: RationalMap, orbit, exact: bool):
    """Step residuals r_j = f(z_j) - z_(j+1) and derivatives d_j of a
    :func:`chart_orbit` (j mod n), both in the chart of z_(j+1).  The
    product of the d_j is the cycle's multiplier: the chart changes
    telescope.  In floats, where f(z_j) is the pole of that chart, r_j is
    infinite (callers silence numpy's warnings)."""
    rs, ds = [], []
    for (u, in_z), (v, out_z) in zip(orbit, orbit[1:] + orbit[:1]):
        image, d = chart_step(f, u, in_z, out_z, exact)
        rs.append(image - v)
        ds.append(d)
    return rs, ds
