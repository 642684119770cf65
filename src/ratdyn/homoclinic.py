"""Periodic orbits with prescribed characteristic exponent near a repelling
fixed point, built from inverse branches.

Given a repelling periodic point z0 away from the postcritical set, a
backward chain returning to a small disk around z0 yields, for every large
n, a periodic point w_n of exact period n whose orbit spends n - l steps
near z0; the exponents chi(w_n) converge to chi(z0) like O(1/n).  Inverse
branches are realized numerically by nearest-preimage continuation.  The
orbit they walk is closed by a double-precision multiple-shooting Newton on
z_(j+1) = F(z_j), with each z_j in the z or 1/z chart (so orbits through a
pole or Infinity are handled like any other), and its exact period is
checked against every proper divisor of n.  The chart orbit and its steps
are ``sphere.chart_orbit`` and ``sphere.chart_steps``, which also give
every cycle multiplier (``periodic.multiplier``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

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
from .roots import solve_poly
from .sphere import (
    ProjPoint,
    RationalMap,
    build_map,
    chart_orbit,
    chart_steps,
    chordal,
    chordal_xy,
    postcritical_truncation,
    spherical_norm,
)

SEARCH_DEPTH = 14  # preimage levels find_seed searches for a return into V
ALPHA = 1.5  # the sandwich bound's alpha > 1
NEWTON_SWEEPS = 12  # multiple-shooting sweeps before NewtonDiverged
NEWTON_STEP = 1e-13  # a step this small leaves the next error at rounding level


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
    lam_c = complex(multiplier(F, [p0f]))
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
        raise NoReturnFound(f"no preimage re-entered V within depth {SEARCH_DEPTH}")
    l, idx = found
    chain = []
    for depth in range(l, 0, -1):
        chain.append(complex(level_pts[depth][idx]))
        idx = parents[depth][idx]
    chain.append(z0c)  # chain = [z_l, ..., z_1, z_0]
    crit = [complex(p.z) for p, _ in trunc.critical if not p.is_infinity]
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


def _pseudo_orbit(F, seed: HomoclinicSeed, n: int) -> list[complex]:
    """The start of the period-n orbit: z_l pulled back n - l times by the
    inverse branch fixing z0, then l times along the chain.  Each point
    walked is a preimage of the one before, so read backwards they form an
    orbit of F with one closing jump: F maps the last of them to z_l, not
    to the first."""
    z0, lam, chain, l = seed.z0, seed.multiplier, seed.chain, seed.l
    walk = [chain[0]]
    for _ in range(n - l):
        y = walk[-1]
        walk.append(_nearest_preimage(F, y, z0 + (y - z0) / lam))
    for target in reversed(chain[:-1]):
        walk.append(_nearest_preimage(F, walk[-1], target))
    return walk[:0:-1]


# ----------------------------------------------------------------------
# cyclic orbits in the two charts of the sphere
# ----------------------------------------------------------------------


def _orbit_exponent(F: RationalMap, orbit):
    """(multiplier, chi, residual) of the cyclic chart orbit: the product
    and the mean log modulus of the step derivatives, and the largest step
    residual."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rs, ds = chart_steps(F, orbit, False)
        chi = sum(math.log(abs(d)) if d else -math.inf for d in ds) / len(ds)
        return complex(math.prod(ds)), chi, float(np.max(np.abs(rs)))


def _close_orbit(F: RationalMap, orbit):
    """Multiple-shooting Newton on z_(j+1) = F(z_j), j mod n, each z_j kept
    in its chart.  The cyclic bidiagonal system d_j du_j - du_(j+1) = -r_j
    closes with du_0 = S / (1 - prod d_j), S = sum_j r_j prod_(k>j) d_k
    (summed divided through by prod d_j, which cannot overflow); the backward
    sweep du_j = (du_(j+1) - r_j) / d_j then divides rounding by |d_j|,
    where the forward one would multiply it by |lambda|."""
    n = len(orbit)
    for _ in range(NEWTON_SWEEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            rs, ds = chart_steps(F, orbit, False)
            inv, t = 1.0, 0j
            for d, r in zip(ds, rs):
                inv = inv / d
                t = t + r * inv
            du = [t / (inv - 1)] * n
            for j in range(n - 1, 0, -1):
                du[j] = (du[(j + 1) % n] - rs[j]) / ds[j]
            size = float(np.max(np.abs(du)))
        if not math.isfinite(size):
            break
        orbit = [(u + step, in_z) for (u, in_z), step in zip(orbit, du)]
        if size <= NEWTON_STEP:
            return orbit
    raise NewtonDiverged(f"Newton did not converge for n = {n}")


def _cycle_entry(F: RationalMap, orbit, tol: float) -> SequenceEntry:
    """Close the chart orbit by Newton and check its exact period at the
    reported point z_0: a point of exact period m | n, m < n, has
    z_k = z_0 for a proper divisor k of n."""
    n = len(orbit)
    orbit = _close_orbit(F, orbit)
    lam, chi, resid = _orbit_exponent(F, orbit)
    xy = [(u, 1.0) if in_z else (1.0, u) for u, in_z in orbit]
    for k in _divisors(n)[:-1]:
        if chordal_xy(*xy[0], *xy[k]) < 10 * tol:
            raise PeriodCollision(f"refined point has period dividing {k} < {n}: bad seed")
    X, Y = xy[0]
    return SequenceEntry(
        n=n,
        point=complex(X / Y),
        period_verified=resid < tol,
        multiplier=lam,
        char_exponent=chi,
        residual=resid,
    )


def exponent_sequence(
    f: RationalMap,
    seed: HomoclinicSeed,
    n_min: int,
    n_max: int,
    tol: float = 1e-9,
) -> ExponentSequence:
    """For each n in [n_min, n_max]: the pseudo-orbit through W and n - l
    inverse-branch contractions, closed by multiple-shooting Newton, with
    its exact period checked.

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
    entries = [
        _cycle_entry(F, chart_orbit(_pseudo_orbit(F, seed, n), False), tol)
        for n in range(n_min, n_max + 1)
    ]
    return ExponentSequence(seed=seed, entries=entries)


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
