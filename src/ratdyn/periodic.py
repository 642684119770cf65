"""Periodic points, cycles, multipliers and characteristic exponents.

Period-n points are found by a simultaneous Aberth–Ehrlich iteration run
against the *implicitly* evaluated fixed-point polynomial p = z G_n - F_n
(homogeneous orbit plus derivative propagation), never against the explicit
coefficients of f^n, whose coefficient form is numerically useless beyond
small n.  Exact-period verification is semantic: f^k(z) must move z for
every proper divisor k of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .errors import (
    DegreeCapExceeded,
    InexactDivision,
    NotACycle,
    OrbitMismatch,
    RootFindingFailed,
)
from .polys import (
    Poly,
    hom_eval,
    idivexact,
    iprimitive,
    pexactdiv,
    pmul,
    ppad,
    pstrip,
    psub,
)
from .roots import aberth_ratio, batched_roots, newton_polish, newton_settle, solve_poly
from .scalars import Qi
from .sphere import (
    INF,
    ProjPoint,
    RationalMap,
    chart_orbit,
    chart_steps,
    chordal,
    chordal_xy,
    near_pairs,
    normalize_xy,
    points_to_xy,
    sphere_points,
)

# ----------------------------------------------------------------------
# data types
# ----------------------------------------------------------------------


@dataclass
class CycleRecord:
    """One cycle: its ordered orbit, period, multiplier and exponent."""

    points: list[ProjPoint]
    period: int
    multiplier: complex
    char_exponent: float
    repelling: bool

    def __repr__(self):
        rep = "rep" if self.repelling else "non-rep"
        return (
            f"CycleRecord(p={self.period}, lambda={self.multiplier:.6g}, "
            f"chi={self.char_exponent:.6g}, {rep})"
        )


@dataclass
class PeriodicSolveReport:
    period: int
    points_found: int
    expected: int
    residual_max: float
    unconverged: int = 0
    notes: str = ""


# ----------------------------------------------------------------------
# exact homogeneous composition and derived polynomials
# ----------------------------------------------------------------------


def compose_hom(f: RationalMap, n: int):
    """(N, D) with f^n = N/D, via homogeneous substitution (coprime stays
    coprime, so no gcd cleanup is needed).

    Rational maps compose over their primitive integer pair, so N and D are
    int lists scaled by f.int_scale^((d^n - 1)/(d - 1)) against the
    composition of f.num/f.den; Q(i) maps compose over Qi and float maps
    over complex."""
    d = f.degree
    if f.int_pair is not None:
        A, B = f.int_pair
    elif f.exact:
        A, B = ppad(f.num, d + 1, Qi(0)), ppad(f.den, d + 1, Qi(0))
    else:
        A = ppad([complex(c) for c in f.num], d + 1, 0j)
        B = ppad([complex(c) for c in f.den], d + 1, 0j)
    N, D = Poly(A), Poly(B)
    for _ in range(n - 1):
        N, D = hom_eval(A, N, D), hom_eval(B, N, D)
    return N.c, D.c


def fixed_point_polynomial(f: RationalMap, n: int, cap: int | None = None):
    """Dehomogenized X G_n - Y F_n: its roots (plus possibly Infinity) are
    exactly the points of period dividing n, with multiplicity."""
    cap = cap if cap is not None else config.NUMERIC_DEGREE_CAP
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.degree**n + 1 > cap:
        raise DegreeCapExceeded(f"d^n + 1 = {f.degree ** n + 1} exceeds cap {cap}")
    N, D = compose_hom(f, n)
    return pstrip(psub([0] + D, N))


def _moebius_mu(n: int) -> int:
    mu, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    if m > 1:
        mu = -mu
    return mu


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def dynatomic_numerator(f: RationalMap, n: int, cap: int | None = None):
    """Polynomial whose roots are the finite points of exact period n.

    Exact maps: Moebius inclusion-exclusion over divisors with exact
    division (InexactDivision signals a parabolic degeneracy); rational
    maps divide in Z[z] and get the primitive integer polynomial with a
    positive lead.  Float maps: the same quotient by numeric deflation,
    trustworthy only at small n.
    """
    cap = cap if cap is not None else (
        config.EXACT_DEGREE_CAP if f.exact else config.NUMERIC_DEGREE_CAP
    )
    if f.degree**n + 1 > cap:
        raise DegreeCapExceeded(f"d^n + 1 = {f.degree ** n + 1} exceeds cap {cap}")
    num = den = [1]
    for k in _divisors(n):
        mu = _moebius_mu(n // k)
        if mu == 0:
            continue
        phi_k = fixed_point_polynomial(f, k, cap=max(cap, f.degree**n + 2))
        if mu == 1:
            num = pmul(num, phi_k)
        else:
            den = pmul(den, phi_k)
    if f.int_pair is not None:
        # Gauss's lemma: the quotient by a primitive divisor stays in Z[z]
        return iprimitive(idivexact(num, iprimitive(den)[0]))[0]
    if f.exact:
        return pexactdiv(num, den)
    q, r = np.polynomial.polynomial.polydiv(
        np.array(num, dtype=complex), np.array(den, dtype=complex)
    )
    scale = max(1.0, float(np.abs(np.array(num)).max()))
    if len(r) and float(np.abs(r).max()) > 1e-8 * scale:
        raise InexactDivision("numeric dynatomic deflation left a large remainder")
    return list(q)


def exact_period_count(d: int, n: int) -> int:
    """Number of exact-period-n points on the sphere, with multiplicity:
    sum_{k | n} mu(n/k) (d^k + 1)."""
    return sum(_moebius_mu(n // k) * (d**k + 1) for k in _divisors(n))


# ----------------------------------------------------------------------
# implicit evaluation of f^n and its derivative
# ----------------------------------------------------------------------


def make_period_ratio(f: RationalMap, n: int):
    """z -> p(z)/p'(z) for the fixed-point polynomial p = z G_n - F_n,
    evaluated implicitly.

    The homogeneous orbit (X, Y) of (z, 1) is propagated together with its
    z-derivative (dX, dY); common per-step rescaling keeps magnitudes in
    range and cancels in the ratio.  This is the genuine polynomial Newton
    ratio (the pole term of f^n is absorbed), so the simultaneous iteration
    behaves like real Aberth for rational maps too."""
    na = np.asarray(f._nf)
    nb = np.asarray(f._df)

    def ratio(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            s0 = np.maximum(np.abs(z), 1.0)
            X = z / s0
            Y = np.ones_like(z) / s0
            dX = np.ones_like(z) / s0
            dY = np.zeros_like(z)
            for _ in range(n):
                F, Fx, Fy = hom_eval(na, X, Y, partials=True)
                G, Gx, Gy = hom_eval(nb, X, Y, partials=True)
                ndX = Fx * dX + Fy * dY
                ndY = Gx * dX + Gy * dY
                s = np.maximum(np.maximum(np.abs(F), np.abs(G)), 1e-300)
                X, Y, dX, dY = F / s, G / s, ndX / s, ndY / s
            p = z * Y - X
            dp = Y + z * dY - dX
            out = p / dp
        return out

    return ratio


def _fixed_points(f: RationalMap, tol: float = 1e-12) -> list[ProjPoint]:
    A, B = f._coeffs_c
    poly = np.concatenate([[0j], B]) - np.concatenate([A, [0j]])
    pts = [ProjPoint.finite(complex(r)) for r in solve_poly(poly)]
    # Infinity is fixed iff deg(z B - A) < d + 1
    fx, fy = f.eval_hom(np.array([1.0 + 0j]), np.array([0j]))
    if abs(fy[0]) < tol * max(1.0, abs(fx[0])):
        pts.append(INF)
    return pts


def _preimage_xy(f: RationalMap, X: np.ndarray, Y: np.ndarray):
    """All preimages of each target (X_i, Y_i); returns (N, d) pairs."""
    A, B = f._coeffs_c
    coeffs = Y[:, None] * A[None, :] - X[:, None] * B[None, :]
    roots = batched_roots(coeffs)
    Xo = np.where(np.isinf(roots), 1.0 + 0j, roots)
    Yo = np.where(np.isinf(roots), 0j, 1.0 + 0j)
    return normalize_xy(Xo, Yo)


def _tree_starts(f: RationalMap, count: int, seed: int) -> np.ndarray:
    """Backward preimage tree of a repelling-ish fixed point: starts cluster
    near the Julia set, exponentially close to every periodic point."""
    rng = np.random.default_rng(seed)
    try:
        fixed = _fixed_points(f)
    except RootFindingFailed:
        fixed = []
    base = None
    best = -1.0
    for p in fixed:
        try:
            lam = abs(multiplier(f, [p]))
        except Exception:
            continue
        if lam > best:
            best = lam
            base = p
    if base is None or best <= 1.0:
        base = ProjPoint.finite(complex(0.4 + 0.31j)) if base is None else base
    X = np.array([base.xy()[0]], dtype=complex)
    Y = np.array([base.xy()[1]], dtype=complex)
    while X.size < count:
        Xp, Yp = _preimage_xy(f, X, Y)
        X, Y = Xp.ravel(), Yp.ravel()
        if X.size > 4 * count:
            break
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(np.abs(Y) > 1e-13, X / Y, np.nan)
    z = z[np.isfinite(z)]
    # an unshuffled trim would keep one biased subtree of the level
    z = z[rng.permutation(z.size)]
    extra = np.array([complex(p.z) for p in fixed if not p.is_infinity])
    z = np.concatenate([z, extra])
    if z.size < count:
        pad = 1.5 * np.exp(2j * np.pi * rng.random(count - z.size))
        z = np.concatenate([z, pad])
    z = z[:count].astype(complex)
    # separate coincident starts (fixed branches of the tree repeat)
    order = np.lexsort((z.imag, z.real))
    zs = z[order]
    dup = np.zeros(z.size, dtype=bool)
    dup[1:] = np.abs(np.diff(zs)) < 1e-9
    jitter = 1e-6 * np.exp(2j * np.pi * rng.random(int(dup.sum())))
    zs = zs.copy()
    zs[dup] += jitter
    out = np.empty_like(z)
    out[order] = zs
    return out


def infinity_exact_period(f: RationalMap, n_cap: int) -> tuple[int | None, list[ProjPoint]]:
    """(exact period of Infinity, its orbit) if it is periodic within n_cap.

    Exact maps iterate exactly; float maps at tolerance."""
    orbit = [INF]
    p = INF
    for k in range(1, n_cap + 1):
        p = f.evaluate(p)
        if f.exact:
            if p == INF:
                return k, orbit
        else:
            if p.is_infinity or chordal(p, INF) < 1e-11:
                return k, orbit
        orbit.append(p)
    return None, []


def _dedup_roots(roots: np.ndarray, cluster_r: float) -> list[complex]:
    """Greedy clustering, largest |z| first: a free root takes the free
    roots within cluster_r (1 + |z|) of it, and their mean stands for each.
    Lone roots (no neighbour that close) skip the loop."""
    P = sphere_points(*normalize_xy(roots.copy(), np.ones_like(roots)))
    # |z_j - z_i| <= 2 r (1 + |z_i|) gives chordal <= 2 sqrt(2) r < 3 r; the
    # factor 2 keeps every clustered root out of `solo` despite rounding
    i, j = near_pairs(P, P, 3 * cluster_r)
    hit = np.abs(roots[j] - roots[i]) <= 2 * cluster_r * (1 + np.abs(roots[i]))
    hit &= i != j
    solo = np.ones(roots.size, dtype=bool)
    solo[i[hit]] = solo[j[hit]] = False
    crowd = np.nonzero(~solo)[0]
    lone = np.mean(roots[:, None], axis=1)  # one-point means: -0.0 becomes 0.0
    used = np.zeros(roots.size, dtype=bool)
    out: list[complex] = []
    for k in np.argsort(-np.abs(roots)):
        if solo[k]:
            out.append(complex(lone[k]))
        elif not used[k]:
            close = np.abs(roots[crowd] - roots[k]) <= cluster_r * (1 + np.abs(roots[k]))
            close = crowd[close & ~used[crowd]]
            used[close] = True
            out += [complex(np.mean(roots[close]))] * close.size
    return out


def _period_residuals(f: RationalMap, n: int, z: np.ndarray) -> np.ndarray:
    """Chordal distances from z to f^n(z)."""
    X, Y = normalize_xy(z.copy(), np.ones_like(z))
    return chordal_xy(X, Y, *f.iterate_hom(X.copy(), Y.copy(), n))


def periodic_points(
    f: RationalMap,
    n: int,
    tol: float = config.SOLVER_TOL,
    seed: int = 0,
    cap: int | None = None,
) -> tuple[list[ProjPoint], PeriodicSolveReport]:
    """All points of exact period n (Infinity included when applicable).

    Solves f^n(z) = z implicitly with the simultaneous solver, verifies
    residuals in the chordal metric, and filters to exact period n by the
    semantic test f^k(z) != z for proper divisors k.
    """
    cap = cap if cap is not None else config.NUMERIC_DEGREE_CAP
    d = f.degree
    if d**n + 1 > cap:
        raise DegreeCapExceeded(f"d^n + 1 = {d ** n + 1} exceeds cap {cap}")
    inf_period, _ = infinity_exact_period(f, n)
    inf_divides = inf_period is not None and n % inf_period == 0
    n_finite = d**n + 1 - (1 if inf_divides else 0)
    ratio = make_period_ratio(f, n)
    if d**n + 1 <= 48:
        # explicit coefficients are well-conditioned at this size
        poly = fixed_point_polynomial(f, n, cap=cap)
        if f.int_pair is not None:
            # undo the integer pair's scale exactly, so the doubles are the
            # correctly rounded coefficients of f.num/f.den composed
            scale = f.int_scale ** ((d**n - 1) // (d - 1))
            poly = [Fraction(c) / scale for c in poly]
        coeffs = np.array([complex(c) for c in poly], dtype=complex)
        roots = np.asarray(solve_poly(coeffs, seed=seed), dtype=complex)
        unconverged = 0
    else:
        starts = _tree_starts(f, n_finite, seed)
        # the iteration always runs to machine precision; the caller's tol
        # is an acceptance threshold, not a convergence target
        roots, ok = aberth_ratio(ratio, starts, tol=1e-14, seed=seed)
        unconverged = int((~ok).sum())
        roots = roots[ok]
    roots = newton_polish(ratio, roots, iters=2)
    res = _period_residuals(f, n, roots)
    # only the roots that fail the residual test walk on; the others keep their bits
    fail = ~(res <= tol)
    if fail.any():
        roots[fail] = newton_settle(ratio, roots[fail])
        res[fail] = _period_residuals(f, n, roots[fail])
    keep = res <= tol
    over_tol = int((~keep).sum())
    roots = roots[keep]
    res = res[keep]
    # exact-period filter (semantic)
    sep = max(10 * tol, 1e-9)
    mask = np.ones(roots.size, dtype=bool)
    for k in _divisors(n)[:-1]:
        mask &= _period_residuals(f, k, roots) > sep
    roots = roots[mask]
    res_kept = res[mask]
    # deduplicate (Aberth repulsion keeps simple roots apart, so clusters
    # only form at genuinely multiple roots; radius stays well below any
    # simple-root separation)
    pts = [ProjPoint.finite(z) for z in _dedup_roots(roots, max(10 * tol, 1e-10))]
    if inf_period == n:
        pts.append(INF)
    expected = exact_period_count(d, n)
    report = PeriodicSolveReport(
        period=n,
        points_found=len(pts),
        expected=expected,
        residual_max=float(res_kept.max()) if res_kept.size else 0.0,
        unconverged=unconverged,
    )
    if len(pts) < expected:
        report.notes = (
            f"{expected - len(pts)} of {expected} points missing "
            f"({over_tol} solver roots failed the residual test)"
        )
    if unconverged > 0 and len(pts) < expected:
        raise RootFindingFailed(
            f"period-{n} solve left {unconverged} starts unconverged "
            f"({len(pts)}/{expected} points found)"
        )
    return pts, report


# ----------------------------------------------------------------------
# cycles and multipliers
# ----------------------------------------------------------------------


def multiplier(f: RationalMap, orbit: list[ProjPoint | complex]):
    """Chain-rule multiplier of a cycle given as its ordered orbit.

    Derivatives are taken chart-to-chart (w = 1/z beyond the unit circle),
    so orbits through Infinity give the eigenvalue of the differential.
    Exact maps with exact orbits return an exact Qi value; any other orbit
    runs every step in floats, Infinity's included.
    """
    pts = [p if isinstance(p, ProjPoint) else ProjPoint.finite(p) for p in orbit]
    if not pts:
        raise NotACycle("empty orbit")
    n = len(pts)
    # verify the orbit is a genuine cycle at a loose tolerance
    exact = f.exact and all(p.is_exact for p in pts)
    for i, p in enumerate(pts):
        q = f.evaluate(p)
        target = pts[(i + 1) % n]
        if exact:
            if q != target:
                raise NotACycle(f"orbit breaks at index {i}")
        elif chordal(q, target) > 1e-6:
            raise NotACycle(
                f"orbit breaks at index {i}: f(p_i) is {chordal(q, target):.3g} away"
            )
    ds = chart_steps(f, chart_orbit(pts, exact), exact)[1]
    return math.prod(ds, start=Qi(1) if exact else 1.0 + 0j)


def characteristic_exponent(multiplier_value, period: int) -> float:
    """chi = (1/p) log |lambda|; -inf sentinel for lambda = 0."""
    if isinstance(multiplier_value, Qi):
        a2 = multiplier_value.abs2()
        if a2 == 0:
            return float("-inf")
        return 0.5 * math.log(float(a2)) / period
    lam = complex(multiplier_value)
    if lam == 0:
        return float("-inf")
    return math.log(abs(lam)) / period


def group_cycles(
    f: RationalMap, points: list[ProjPoint], n: int, tol: float = config.SOLVER_TOL
) -> list[CycleRecord]:
    """Partition exact-period-n points into orbits and fill multiplier data.

    Refuses to guess when distinct points are closer than 10 tol
    (parabolic collisions) and raises OrbitMismatch instead.  Distances are
    taken between near pairs only (:func:`sphere.near_pairs`), not all m^2.
    """
    pts = list(points)
    m = len(pts)
    if m == 0:
        return []
    if m % n != 0:
        raise OrbitMismatch(f"{m} points cannot split into period-{n} orbits")
    sep = 10 * tol
    X, Y = points_to_xy(pts)
    P = sphere_points(X, Y)
    # pairwise separation check, on the near pairs only
    i, j = near_pairs(P, P, sep)
    if (chordal_xy(X[i], Y[i], X[j], Y[j])[i != j] < sep).any():
        raise OrbitMismatch(
            f"two input points are closer than 10*tol = {sep:g}; "
            "refusing to merge (parabolic collision?)"
        )
    # successor permutation: nearest input point to each image (lowest on
    # ties).  An image with none within match_tol (all, if a point is not
    # finite) takes the dense rows of its 512-chunk, whose farthest it names
    match_tol = max(100 * tol, 1e-8)
    Xi, Yi = f.eval_hom(X.copy(), Y.copy())
    i, j = near_pairs(sphere_points(Xi, Yi), P, match_tol)
    d = chordal_xy(Xi[i], Yi[i], X[j], Y[j])
    o = np.lexsort((j, d, i))
    o = o[np.diff(i[o], prepend=-1) != 0]
    succ, dist = np.zeros(m, dtype=int), np.full(m, np.inf)
    succ[i[o]], dist[i[o]] = j[o], d[o]
    for lo in sorted(set(np.nonzero(~(dist <= match_tol) | ~np.isfinite(P).all())[0] // 512)):
        rows = slice(512 * lo, 512 * lo + 512)
        D = chordal_xy(Xi[rows, None], Yi[rows, None], X[None, :], Y[None, :])
        succ[rows] = np.argmin(D, axis=1)
        dist[rows] = dd = D[np.arange(len(D)), succ[rows]]
        if dd.max() > match_tol:
            raise OrbitMismatch(
                f"forward image of point {rows.start + int(np.argmax(dd))} is "
                f"{dd.max():.3g} away from every input point"
            )
    if len(set(succ.tolist())) != m:
        raise OrbitMismatch("forward map is not a permutation of the input set")
    visited = np.zeros(m, dtype=bool)
    cycles: list[CycleRecord] = []
    for i0 in range(m):
        if visited[i0]:
            continue
        orbit_idx = [i0]
        visited[i0] = True
        j = int(succ[i0])
        while j != i0:
            if visited[j] or len(orbit_idx) > n:
                raise OrbitMismatch("orbit structure inconsistent with period n")
            orbit_idx.append(j)
            visited[j] = True
            j = int(succ[j])
        if len(orbit_idx) != n:
            raise OrbitMismatch(
                f"found an orbit of length {len(orbit_idx)} among period-{n} points"
            )
        orbit = [pts[i] for i in orbit_idx]
        if f.exact and all(p.is_exact for p in orbit):
            lam = multiplier(f, orbit)
        else:
            # multiplier()'s float cycle check, on the successor distances
            gaps = dist[orbit_idx]
            if (gaps > 1e-6).any():
                k = int(np.argmax(gaps > 1e-6))
                raise NotACycle(f"orbit breaks at index {k}: f(p_i) is {gaps[k]:.3g} away")
            ds = chart_steps(f, chart_orbit(orbit, False), False)[1]
            lam = math.prod(ds, start=1.0 + 0j)
        lam_c = complex(lam) if isinstance(lam, Qi) else lam
        chi = characteristic_exponent(lam, n)
        cycles.append(
            CycleRecord(
                points=orbit,
                period=n,
                multiplier=lam_c,
                char_exponent=chi,
                repelling=abs(lam_c) > 1.0,
            )
        )
    return cycles


def cycles_of_period(
    f: RationalMap,
    n: int,
    tol: float = config.SOLVER_TOL,
    seed: int = 0,
    cap: int | None = None,
) -> tuple[list[CycleRecord], PeriodicSolveReport]:
    """Convenience: solve for exact-period-n points and group them.  When
    the grouping fails after a short solve, the error carries the solve's
    note on the missing points."""
    pts, report = periodic_points(f, n, tol=tol, seed=seed, cap=cap)
    try:
        cycles = group_cycles(f, pts, n, tol=tol)
    except OrbitMismatch as exc:
        if not report.notes:
            raise
        raise OrbitMismatch(f"{exc}: {report.notes}") from exc
    return cycles, report
