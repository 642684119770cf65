"""Periodic orbits with prescribed characteristic exponent near a repelling
fixed point, built from inverse branches.

Given a repelling periodic point z0 away from the postcritical set, a
backward chain returning to a small disk around z0 yields, for every large
n, a periodic point w_n of exact period n whose orbit spends n - l steps
near z0; the exponents chi(w_n) converge to chi(z0) like O(1/n).  Inverse
branches are realized numerically by nearest-preimage continuation; each
w_n is Newton-refined, then re-verified in high precision (period and
proper-divisor separation), never trusted from double precision alone.
The extended-precision orbits (mpmath) move between the z and 1/z charts,
so orbits through a pole or Infinity are handled like any other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from . import config
from .errors import (
    InPostcriticalSet,
    NewtonDiverged,
    NoReturnFound,
    NotRepelling,
    PeriodCollision,
    RatdynError,
)
from .periodic import _divisors, compose_hom, multiplier
from .polys import ppad, peval
from .roots import solve_poly
from .scalars import Qi
from .sphere import (
    ProjPoint,
    RationalMap,
    build_map,
    chordal,
    critical_points,
    postcritical_truncation,
    spherical_norm,
)

SEARCH_DEPTH = 14  # preimage levels find_seed searches for a return into V
ALPHA = 1.5  # the sandwich bound's alpha > 1


def iterate_map(f: RationalMap, q: int) -> RationalMap:
    """f^q as an explicit RationalMap (used to reduce period-q seeds to
    fixed-point seeds)."""
    if q == 1:
        return f
    N, D = compose_hom(f, q)
    if f.exact:
        return build_map(N, D)
    return build_map(N, D, exact=False)


@dataclass
class HomoclinicSeed:
    """A repelling fixed point of f^q with a backward chain returning to
    its linearization disk.

    chain = [z_l, z_(l-1), ..., z_1, z_0] with F(z_j) = z_(j-1) for the
    working map F = f^q; radii are Euclidean in the plane around z0."""

    z0: complex
    q: int
    multiplier: complex
    l: int
    chain: list[complex]
    r_U: float
    r_V: float
    r_W: float
    map_q: RationalMap = field(repr=False)

    @property
    def target_exponent(self) -> float:
        return math.log(abs(self.multiplier))


def _preimages_of(F: RationalMap, w: complex) -> np.ndarray:
    """All finite preimages of w under F."""
    A, B = F._coeffs_c
    coeffs = A - w * B
    nz = np.nonzero(np.abs(coeffs) > 1e-14 * max(1.0, np.abs(coeffs).max()))[0]
    if nz.size == 0:
        return np.empty(0, dtype=complex)
    return np.asarray(solve_poly(coeffs[: nz[-1] + 1]), dtype=complex)


def _nearest_preimage(F: RationalMap, w: complex, target: complex) -> complex:
    pre = _preimages_of(F, w)
    if pre.size == 0:
        raise RatdynError("empty preimage set")
    return complex(pre[np.argmin(np.abs(pre - target))])


def find_seed(
    f: RationalMap,
    z0: ProjPoint | complex,
    q: int = 1,
    tol: float = 1e-9,
) -> HomoclinicSeed:
    """Breadth-first search over iterated preimages of z0 (excluding the
    branch fixing z0) for the first return into the linearization disk V.

    Disk radii: 2 r_V clear of the critical values of f^q (so the inverse
    branch structure over V is unbranched), r_U = r_V / |multiplier|, and
    r_W kept clear of critical points along the chain.
    """
    F = iterate_map(f, q)
    p0 = z0 if isinstance(z0, ProjPoint) else ProjPoint.finite(z0)
    if p0.is_infinity:
        raise RatdynError("seed construction expects a finite base point")
    z0c = complex(p0.z)
    p0f = ProjPoint.finite(z0c)  # the construction is numeric throughout
    img = F.evaluate(p0f)
    if chordal(img, p0f) > 100 * tol:
        raise RatdynError(f"point is not fixed by f^{q} at tolerance")
    lam = multiplier(F, [p0f])
    lam_c = complex(lam) if isinstance(lam, Qi) else complex(lam)
    if abs(lam_c) <= 1.0 + 1e-9:
        raise NotRepelling(f"|multiplier| = {abs(lam_c):.6g} <= 1")
    trunc = postcritical_truncation(f, depth=32, tol=config.DEDUP_TOL)
    if trunc.min_chordal(p0) <= 10 * tol:
        raise InPostcriticalSet(
            "base point is within 10*tol of the postcritical truncation"
        )
    # critical values of F: depth-q truncation of f's critical orbit
    critvals = postcritical_truncation(f, depth=q, tol=config.DEDUP_TOL).points
    dists = [abs(complex(p.z) - z0c) for p in critvals if not p.is_infinity]
    d_cv = min(dists) if dists else 1.0
    r_V = min(0.25 * d_cv, 0.5)
    # the inverse branch of F fixing z0 must contract V into itself
    for _ in range(10):
        if _branch_contracts(F, z0c, lam_c, r_V):
            break
        r_V *= 0.6
    else:
        raise RatdynError("could not certify a contracting inverse branch")
    # breadth-first search for a return into V
    parents: dict[int, list[int]] = {}
    level_pts: list[np.ndarray] = [np.array([z0c])]
    found = None
    for depth in range(1, SEARCH_DEPTH + 1):
        prev = level_pts[-1]
        cur = []
        back = []
        for pi, w in enumerate(prev):
            pre = _preimages_of(F, complex(w))
            for x in pre:
                if abs(x - z0c) <= 10 * tol:
                    continue  # the branch fixing z0
                cur.append(x)
                back.append(pi)
        if not cur:
            break
        cur = np.asarray(cur)
        order = np.argsort(np.abs(cur - z0c), kind="stable")
        if cur.size > 8192:
            order = order[:8192]
        cur = cur[order]
        back_arr = [back[i] for i in order]
        hits = np.nonzero(np.abs(cur - z0c) < r_V)[0]
        level_pts.append(cur)
        parents[depth] = back_arr
        if hits.size:
            found = (depth, int(hits[0]))
            break
    if found is None:
        raise NoReturnFound(
            f"no preimage re-entered V within depth {SEARCH_DEPTH}",
            search_depth=SEARCH_DEPTH,
        )
    l, idx = found
    chain = []
    for depth in range(l, 0, -1):
        chain.append(complex(level_pts[depth][idx]))
        idx = parents[depth][idx]
    chain.append(z0c)  # chain = [z_l, ..., z_1, z_0]
    crit = [complex(p.z) for p, _ in critical_points(f) if not p.is_infinity]
    if crit:
        d_crit = min(min(abs(zj - c) for c in crit) for zj in chain[:-1])
    else:
        d_crit = 1.0
    r_W = min(r_V / 4, d_crit / 4)
    return HomoclinicSeed(
        z0=z0c,
        q=q,
        multiplier=lam_c,
        l=l,
        chain=chain,
        r_U=r_V / abs(lam_c),
        r_V=r_V,
        r_W=r_W,
        map_q=F,
    )


def _branch_contracts(F, z0: complex, lam: complex, r: float):
    """Empirical check that the inverse branch of F at z0 maps the disk of
    radius r into itself with ratio about 1/|lam|."""
    for k in range(8):
        y = z0 + r * cmath.exp(2j * math.pi * (k + 0.37) / 8)
        try:
            g = _nearest_preimage(F, y, z0 + (y - z0) / lam)
        except RatdynError:
            return False
        if abs(g - z0) >= 0.95 * abs(y - z0):
            return False
    return True


def branch_contraction_ratios(seed: HomoclinicSeed):
    """Observed |g(y) - z0| / |y - z0| on the V-circle (for diagnostics)."""
    F = seed.map_q
    out = []
    for k in range(16):
        y = seed.z0 + seed.r_U * cmath.exp(2j * math.pi * (k + 0.5) / 16)
        g = _nearest_preimage(F, y, seed.z0 + (y - seed.z0) / seed.multiplier)
        out.append(abs(g - seed.z0) / abs(y - seed.z0))
    return out


# ----------------------------------------------------------------------
# the sequence of periodic points
# ----------------------------------------------------------------------


@dataclass
class SequenceEntry:
    n: int
    point: complex
    period_verified: bool
    multiplier: complex
    char_exponent: float
    residual: float


@dataclass
class ExponentSequence:
    """Periodic points w_n (exact period n for the working map f^q) whose
    characteristic exponents approach the seed's target exponent."""

    seed: HomoclinicSeed
    entries: list[SequenceEntry]

    @property
    def target_chi(self) -> float:
        return self.seed.target_exponent


def _apply_g(F, z0, lam, y, times: int) -> complex:
    for _ in range(times):
        y = _nearest_preimage(F, y, z0 + (y - z0) / lam)
    return y


def _apply_h(F, chain, y) -> complex:
    """Backward continuation along the chain: maps a point near z0 to the
    corresponding point near z_l."""
    l = len(chain) - 1
    u = y
    for j in range(1, l + 1):
        u = _nearest_preimage(F, u, chain[l - j])
    return u


# ----------------------------------------------------------------------
# extended-precision orbits in the two charts of the sphere
# ----------------------------------------------------------------------


def _mp_qi(c: Qi) -> mp.mpc:
    re = mp.mpf(c.re.numerator) / mp.mpf(c.re.denominator)
    im = mp.mpf(c.im.numerator) / mp.mpf(c.im.denominator)
    return mp.mpc(re, im)


def _mp_charts(f: RationalMap):
    """{in_z: (A, B, A', B')}: f's homogeneous coefficient lists as mpc at
    the working precision, for the z chart (True) and the 1/z chart (False).
    Rational maps use the integer pair, which is exact at any precision;
    float coefficients are taken as given (mpc inputs keep their digits)."""
    if f.int_pair is not None:
        A, B = ([mp.mpc(c) for c in p] for p in f.int_pair)
    else:
        def conv(x):
            return _mp_qi(Qi.coerce(x)) if f.exact else mp.mpc(x)

        A, B = ([conv(x) for x in ppad(p, f.degree + 1, 0)] for p in (f.num, f.den))

    def dpoly(p):
        return [k * p[k] for k in range(1, len(p))]

    Ar, Br = A[::-1], B[::-1]
    return {True: (A, B, dpoly(A), dpoly(B)), False: (Ar, Br, dpoly(Ar), dpoly(Br))}


def _mp_step(charts, u, in_z: bool, z_chart):
    """f at the chart point u (the z chart if in_z, else the 1/z chart):
    (image, derivative between the charts, image chart), where the image
    lands in the z chart iff z_chart(P, Q) for its homogeneous (P, Q)."""
    A, B, dA, dB = charts[in_z]
    P, Q = peval(A, u), peval(B, u)
    dP, dQ = peval(dA, u), peval(dB, u)
    if z_chart(P, Q):
        return P / Q, (dP * Q - P * dQ) / (Q * Q), True
    return Q / P, (dQ * P - Q * dP) / (P * P), False


def _mp_refine_periodic(f: RationalMap, z0: complex, n: int, dps: int):
    """Newton-refine a period-n point in mpmath, chart-switching at |z|=1."""
    with mp.workdps(dps):
        charts = _mp_charts(f)

        def ratio(z):
            in_z = abs(z) <= 1
            u = z if in_z else 1 / z
            D = mp.mpc(1) if in_z else -(u * u)
            for _ in range(n):
                u, s, in_z = _mp_step(charts, u, in_z, lambda P, Q: abs(P) <= abs(Q))
                D = D * s
            val = u if in_z else 1 / u
            dval = D if in_z else -D / (u * u)
            return (val - z) / (dval - 1)

        z = mp.mpc(z0)
        for _ in range(dps.bit_length() + 8):
            step = ratio(z)
            z = z - step
            if abs(step) < mp.mpf(10) ** (-dps + 5):
                break
        return z


def _mp_orbit_exponent(F: RationalMap, w, n: int, dps: int = 40):
    """(multiplier, n chi, residual) of the period-n orbit through the finite
    point w, as mp numbers.  The orbit stays in the z chart and moves to the
    1/z chart only at Infinity; the residual |F^n(w) - w| is inf when F^n(w)
    is Infinity."""
    with mp.workdps(dps):
        charts = _mp_charts(F)
        z, in_z = mp.mpc(w), True
        lam = mp.mpc(1)
        log_norm = mp.mpf(0)
        for _ in range(n):
            z, deriv, in_z = _mp_step(charts, z, in_z, lambda P, Q: Q != 0)
            lam *= deriv
            log_norm += mp.log(abs(deriv))
        residual = abs(z - mp.mpc(w)) if in_z else mp.inf
        return lam, log_norm, residual


def exponent_sequence(
    f: RationalMap,
    seed: HomoclinicSeed,
    n_min: int,
    n_max: int,
    tol: float = 1e-9,
) -> ExponentSequence:
    """For each n in [n_min, n_max]: pseudo-orbit through W plus n - l
    inverse-branch contractions, Newton refinement of f^n(w) = w, and
    high-precision verification of exact period n.

    Requires n_min >= 2 l + 1 (below that the period argument can fail)."""
    F = seed.map_q
    l = seed.l
    if n_min < 2 * l + 1:
        raise ValueError(
            f"n_min = {n_min} < 2l + 1 = {2 * l + 1}: period uniqueness is "
            "not guaranteed below twice the return time"
        )
    if n_max < n_min:
        raise ValueError("n_max < n_min")
    entries: list[SequenceEntry] = []
    for n in range(n_min, n_max + 1):
        w_mp = _refine_entry(F, seed, n, tol)
        lam, log_norm, resid = _mp_orbit_exponent(F, w_mp, n, dps=60)
        # exact-period check at high precision via proper divisors
        verified = resid < tol
        for k in _divisors(n)[:-1]:
            _, _, rk = _mp_orbit_exponent(F, w_mp, k, dps=60)
            if rk < 10 * tol:
                raise PeriodCollision(
                    f"refined point has period dividing {k} < {n}: bad seed",
                    n=n,
                )
        entries.append(
            SequenceEntry(
                n=n,
                point=complex(float(w_mp.real), float(w_mp.imag)),
                period_verified=verified,
                multiplier=complex(lam),
                char_exponent=float(log_norm) / n,
                residual=float(resid),
            )
        )
    return ExponentSequence(seed=seed, entries=entries)


def _refine_entry(F, seed: HomoclinicSeed, n: int, tol: float):
    z0, lam, l = seed.z0, seed.multiplier, seed.l
    r_W = seed.r_W
    for attempt in range(2):
        y = seed.chain[0]  # z_l
        if attempt == 1:
            # re-seed once with a tighter start (shrunken r_W)
            y = seed.chain[0] + 0.25 * r_W
        x = _apply_g(F, z0, lam, y, n - l)
        guess = _apply_h(F, seed.chain, x)
        w = _newton_period(F, guess, n)
        if w is not None:
            # refine in extended precision for verifiable residuals;
            # keep the mp value (double truncation would wreck them)
            return _mp_refine_periodic(F, w, n, dps=60)
    raise NewtonDiverged(f"Newton did not converge for n = {n}", n=n)


def _newton_period(F, w0: complex, n: int):
    from .periodic import make_period_ratio

    ratio = make_period_ratio(F, n)
    w = np.array([w0], dtype=complex)
    for _ in range(60):
        step = ratio(w)
        if not np.isfinite(step[0]):
            return None
        w = w - step
        if abs(step[0]) < 1e-14 * (1 + abs(w[0])):
            return complex(w[0])
        if abs(w[0]) > 1e8:
            return None
    return None


# ----------------------------------------------------------------------
# convergence diagnostics
# ----------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    target_chi: float
    deltas: list[tuple[int, float]]
    c_over_n_constant: float
    c_over_n_holds: bool
    geometric_fit: dict
    sandwich: dict


def convergence_report(seq: ExponentSequence) -> ConvergenceReport:
    """chi_n - chi(z0) per n, a fitted C/n envelope, a geometric fit of the
    multipliers lambda_n ~ a lambda^n + b, and the empirical sandwich-bound
    slack from min/max of ||f'|| on the seed disks.

    The fit gives chi_n = chi(z0) + log|a| / n + O(|lambda|^-n), so the 1/n
    law predicts n |chi_n - chi(z0)| -> |log|a||.  `c_over_n_holds` is true
    iff both
    - every n |chi_n - chi(z0)| lies within 1% of |log|a|| (plus 1e-12,
      which absorbs double rounding when the constant is 0, as for z^2), and
    - at the largest n, the Richardson value n chi_n - (n-1) chi_(n-1)
      lies within 10 |lambda|^-(n-1) + 1e-12 of chi(z0).
    The first rule alone misses a seed multiplier off by e^0.001, since the
    fit moves with the multiplier; the second does not use the fit and
    catches it (on the basilica its residual is about 4 |lambda|^-(n-1)).
    `c_over_n_constant` is max n |chi_n - chi(z0)|."""
    if len(seq.entries) < 4:
        raise ValueError("need at least 4 entries for a convergence report")
    chi0 = seq.target_chi
    deltas = [(e.n, abs(e.char_exponent - chi0)) for e in seq.entries]
    C = max(n * d for n, d in deltas)
    # geometric fit: lambda_n / lambda^n = a + b lambda^(-n)
    lam = seq.seed.multiplier
    xs = []
    ts = []
    for e in seq.entries:
        ln = lam ** e.n
        xs.append(1.0 / ln)
        ts.append(e.multiplier / ln)
    Amat = np.stack([np.ones(len(xs), dtype=complex), np.array(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(Amat, np.array(ts), rcond=None)
    a_hat, b_hat = complex(coef[0]), complex(coef[1])
    C_fit = abs(math.log(abs(a_hat)))
    holds = all(abs(n * d - C_fit) <= 0.01 * C_fit + 1e-12 for n, d in deltas)
    prev, last = seq.entries[-2], seq.entries[-1]
    n = last.n
    richardson = n * last.char_exponent - (n - 1) * prev.char_exponent
    holds = holds and abs(richardson - chi0) <= 10 * abs(lam) ** -(n - 1) + 1e-12
    resid = [
        abs(e.multiplier - (a_hat * lam**e.n + b_hat)) / abs(lam) ** e.n
        for e in seq.entries
    ]
    # sandwich bound slack with empirical m, M
    F = seq.seed.map_q
    m_emp, M_emp = _disk_norm_extrema(F, seq.seed)
    l = seq.seed.l
    J = l  # operational surrogate for the proof's J_alpha
    slacks = []
    for e in seq.entries:
        lower = J * math.log(m_emp) + (e.n - J - l + 1) * (chi0 - math.log(ALPHA))
        slacks.append((e.n, math.log(abs(e.multiplier)) - lower))
    return ConvergenceReport(
        target_chi=chi0,
        deltas=deltas,
        c_over_n_constant=C,
        c_over_n_holds=holds,
        geometric_fit={
            "a": a_hat,
            "b": b_hat,
            "relative_residuals": resid,
        },
        sandwich={
            "m": m_emp,
            "M": M_emp,
            "alpha": ALPHA,
            "lower_bound_slack": slacks,
        },
    )


def _disk_norm_extrema(F: RationalMap, seed: HomoclinicSeed):
    samples = 64
    rng = np.random.default_rng(11)
    ang = 2 * np.pi * rng.random(samples)
    rad = np.sqrt(rng.random(samples))
    u_disk = seed.z0 + seed.r_U * rad * np.exp(1j * ang)
    w_disk = seed.chain[0] + seed.r_W * rad * np.exp(1j * ang)
    m_u = min(spherical_norm(F, complex(z)) for z in u_disk)
    # ||(F^l)'|| on W via the chain rule of spherical norms
    m_w = math.inf
    for z in w_disk:
        z = complex(z)
        acc = 1.0
        for _ in range(seed.l):
            acc *= spherical_norm(F, z)
            z = complex(F.evaluate(z).z)
        m_w = min(m_w, acc)
    grid = np.concatenate(
        [u_disk, w_disk, rng.normal(size=samples) + 1j * rng.normal(size=samples)]
    )
    M = max(spherical_norm(F, complex(z)) for z in grid)
    m = min(m_u, m_w)
    return max(m, 1e-12), M
