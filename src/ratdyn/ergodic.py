"""Maximal-entropy sampling, Lyapunov exponents, equidistribution checks
and the characteristic-exponent dichotomy scan.

The backward sampler pulls a random start through iterated preimages with
uniform 1/d branch weights; the last ``TAIL_DEPTH`` (two) levels expand
*all* branches (complete subtrees) once the count allows, which keeps the
estimator unbiased and makes low-order moments of symmetric measures cancel
to machine precision instead of Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import RatdynError
from .periodic import (
    CycleRecord,
    _preimage_xy,
    cycles_of_period,
    periodic_points,
)
from .sphere import (
    ProjPoint,
    RationalMap,
    normalize_xy,
    points_to_xy,
    postcritical_truncation,
    sphere_points,
)

TAIL_DEPTH = 2  # pullback levels expanded completely in backward_orbit_sample
CLIP_LEVELS = (-1.0, -2.0, -4.0)  # the max(log||f'||, m) test functions

# ----------------------------------------------------------------------
# point clouds
# ----------------------------------------------------------------------


@dataclass
class PointCloud:
    """Weighted points on the sphere as normalized homogeneous pairs."""

    X: np.ndarray
    Y: np.ndarray
    weights: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise RatdynError(f"cloud weights sum to {total}, not 1")

    @property
    def count(self) -> int:
        return int(self.X.size)

    @staticmethod
    def from_points(points: list[ProjPoint], provenance: dict | None = None):
        X, Y = points_to_xy(points)
        w = np.full(len(points), 1.0 / len(points))
        return PointCloud(X, Y, w, provenance or {})

    def pushforward(self, f: RationalMap) -> "PointCloud":
        Xn, Yn = f.eval_hom(self.X.copy(), self.Y.copy())
        return PointCloud(Xn, Yn, self.weights.copy(), dict(self.provenance))

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * values))


@dataclass
class LyapunovEstimate:
    value: float
    std_error: float
    sample_count: int
    method: str
    clipped: int = 0

    def __repr__(self):
        return (
            f"LyapunovEstimate({self.value:.6f} ± {self.std_error:.2g}, "
            f"n={self.sample_count}, {self.method})"
        )


# ----------------------------------------------------------------------
# backward-orbit sampling
# ----------------------------------------------------------------------


def _random_sphere_points(rng, n: int):
    v = rng.normal(size=(n, 4))
    X = v[:, 0] + 1j * v[:, 1]
    Y = v[:, 2] + 1j * v[:, 3]
    return normalize_xy(X, Y)


def _pull_back_once(f, X, Y, rng):
    """One uniform random preimage per point (weight 1/d per branch)."""
    Xp, Yp = _preimage_xy(f, X, Y)
    d = Xp.shape[1]
    pick = rng.integers(0, d, size=X.size)
    Xn = Xp[np.arange(X.size), pick]
    Yn = Yp[np.arange(X.size), pick]
    bad = ~(np.isfinite(Xn) & np.isfinite(Yn))
    if bad.any():
        Xr, Yr = _random_sphere_points(rng, int(bad.sum()))
        Xn[bad] = Xr
        Yn[bad] = Yr
    return normalize_xy(Xn, Yn)


def backward_orbit_sample(
    f: RationalMap,
    count: int,
    burn_in: int = 50,
    seed: int = 0,
) -> PointCloud:
    """Equal-weight cloud of `count` points from iterated random preimages.

    Deterministic for a fixed seed.  After burn-in, trunk points are
    collected chain by chain (at most 64 chains) and the final TAIL_DEPTH
    pullback levels are expanded completely (all d^TAIL_DEPTH branches),
    unless count is below 4 d^TAIL_DEPTH.
    """
    if count < 1:
        raise RatdynError("count must be >= 1")
    tail_depth = TAIL_DEPTH
    leaves = f.degree**tail_depth
    if count < 4 * leaves:
        tail_depth, leaves = 0, 1
    trunk_total = count // leaves
    remainder = count - trunk_total * leaves
    rng = np.random.default_rng(seed)
    n_chains = min(64, max(1, trunk_total))
    X, Y = _random_sphere_points(rng, n_chains)
    for _ in range(burn_in):
        X, Y = _pull_back_once(f, X, Y, rng)
    trunk_X: list[np.ndarray] = []
    trunk_Y: list[np.ndarray] = []
    collected = 0
    while collected < trunk_total + remainder:
        take = min(n_chains, trunk_total + remainder - collected)
        trunk_X.append(X[:take].copy())
        trunk_Y.append(Y[:take].copy())
        collected += take
        X, Y = _pull_back_once(f, X, Y, rng)
    tX = np.concatenate(trunk_X)
    tY = np.concatenate(trunk_Y)
    outX, outY = tX[: trunk_total].copy(), tY[: trunk_total].copy()
    for _ in range(tail_depth):
        Xp, Yp = _preimage_xy(f, outX, outY)
        outX, outY = Xp.ravel(), Yp.ravel()
        bad = ~(np.isfinite(outX) & np.isfinite(outY))
        if bad.any():
            Xr, Yr = _random_sphere_points(rng, int(bad.sum()))
            outX[bad] = Xr
            outY[bad] = Yr
        outX, outY = normalize_xy(outX, outY)
    if remainder:
        outX = np.concatenate([outX, tX[trunk_total : trunk_total + remainder]])
        outY = np.concatenate([outY, tY[trunk_total : trunk_total + remainder]])
    w = np.full(outX.size, 1.0 / outX.size)
    return PointCloud(
        outX,
        outY,
        w,
        provenance={
            "kind": "backward-orbit",
            "seed": seed,
            "burn_in": burn_in,
            "tail_depth": tail_depth,
        },
    )


def periodic_cloud(
    f: RationalMap,
    n: int,
    tol: float = config.SOLVER_TOL,
    seed: int = 0,
    cap: int | None = None,
) -> PointCloud:
    """Counting measure on the full exact-period-n point set."""
    pts, _rep = periodic_points(f, n, tol=tol, seed=seed, cap=cap)
    if not pts:
        raise RatdynError(f"no exact-period-{n} points found")
    cloud = PointCloud.from_points(
        pts, provenance={"kind": "periodic-set", "period": n, "factors": "all"}
    )
    return cloud


# ----------------------------------------------------------------------
# Lyapunov exponents
# ----------------------------------------------------------------------


def _log_norms(f: RationalMap, cloud: PointCloud):
    floor = config.LOG_NORM_FLOOR
    norms = f.spherical_norm_xy(cloud.X, cloud.Y)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(norms)
    clipped = int(np.sum(~np.isfinite(vals) | (vals < floor)))
    vals = np.where(np.isfinite(vals), vals, floor)
    vals = np.maximum(vals, floor)
    return vals, clipped


def lyapunov(f: RationalMap, cloud: PointCloud) -> LyapunovEstimate:
    """Weighted mean of log ||f'|| over the cloud with a jackknife error;
    values below the floor are clipped and counted."""
    if cloud.count == 0:
        raise RatdynError("empty cloud")
    vals, clipped = _log_norms(f, cloud)
    w = cloud.weights
    mean = float(np.sum(w * vals))
    n = cloud.count
    if n > 1 and np.allclose(w, w[0]):
        var_jack = float(np.sum((vals - mean) ** 2)) / (n * (n - 1))
        se = math.sqrt(max(var_jack, 0.0))
    else:
        se = math.sqrt(float(np.sum(w**2 * (vals - mean) ** 2)))
    return LyapunovEstimate(
        value=mean,
        std_error=se,
        sample_count=n,
        method="monte-carlo",
        clipped=clipped,
    )


def lyapunov_from_periodic(
    f: RationalMap,
    n: int,
    tol: float = config.SOLVER_TOL,
    seed: int = 0,
    cap: int | None = None,
) -> LyapunovEstimate:
    """(1/|S_n|) sum over the full exact-period-n set of log ||f'||."""
    cloud = periodic_cloud(f, n, tol=tol, seed=seed, cap=cap)
    vals, clipped = _log_norms(f, cloud)
    mean = float(vals.mean())
    return LyapunovEstimate(
        value=mean,
        std_error=0.0,
        sample_count=cloud.count,
        method="periodic-average",
        clipped=clipped,
    )


# ----------------------------------------------------------------------
# weak-convergence diagnostics
# ----------------------------------------------------------------------


@dataclass
class WeakConvergenceReport:
    test_names: list[str]
    rows: list[dict]


def _dictionary(test_degree: int):
    names = []
    exps = []
    for total in range(1, test_degree + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                names.append(f"x1^{a}*x2^{b}*x3^{c}")
                exps.append((a, b, c))
    return names, exps


def weak_convergence_report(
    clouds: list[PointCloud],
    reference: PointCloud,
    test_degree: int,
    f: RationalMap | None = None,
) -> WeakConvergenceReport:
    """|∫φ dμ_cloud − ∫φ d(reference)| for a fixed dictionary of test
    functions: chordal-coordinate monomials up to test_degree, plus
    max(log||f'||, m) truncations for m in CLIP_LEVELS when a map is
    supplied."""
    if test_degree < 1:
        raise RatdynError("test_degree must be >= 1")
    names, exps = _dictionary(test_degree)

    def mono_values(cloud: PointCloud):
        coords = sphere_points(cloud.X, cloud.Y)
        cols = []
        for a, b, c in exps:
            cols.append(
                (coords[:, 0] ** a) * (coords[:, 1] ** b) * (coords[:, 2] ** c)
            )
        return cols

    ref_cols = mono_values(reference)
    ref_ints = [reference.integrate(col) for col in ref_cols]
    all_names = list(names)
    ref_clip = []
    if f is not None:
        ref_vals, _ = _log_norms(f, reference)
        for m in CLIP_LEVELS:
            all_names.append(f"clip_log_norm@{m:g}")
            ref_clip.append(reference.integrate(np.maximum(ref_vals, m)))
    rows = []
    for cloud in clouds:
        cols = mono_values(cloud)
        row = {}
        for name, col, rv in zip(names, cols, ref_ints):
            row[name] = abs(cloud.integrate(col) - rv)
        if f is not None:
            vals, _ = _log_norms(f, cloud)
            for m, rv in zip(CLIP_LEVELS, ref_clip):
                row[f"clip_log_norm@{m:g}"] = abs(
                    cloud.integrate(np.maximum(vals, m)) - rv
                )
        rows.append(row)
    return WeakConvergenceReport(test_names=all_names, rows=rows)


# ----------------------------------------------------------------------
# dichotomy scan
# ----------------------------------------------------------------------


@dataclass
class ZdunikReport:
    hits: list[tuple[CycleRecord, float]]
    excluded: list[tuple[CycleRecord, float]]
    threshold: float
    lyapunov_value: float


def zdunik_scan(
    f: RationalMap,
    max_period: int,
    lyap: LyapunovEstimate,
    tol: float = config.SOLVER_TOL,
    seed: int = 0,
    cap: int | None = None,
) -> list[tuple[CycleRecord, float]]:
    """Repelling cycles up to max_period with characteristic exponent above
    the Lyapunov estimate by more than max(1e-9, 3 std_error), sorted by
    margin (empty output is meaningful: exceptional-map behavior).

    Cycles meeting the postcritical set (its depth-32 truncation) are
    excluded: branch cycles of exceptional maps genuinely exceed the
    Lyapunov exponent and the dichotomy concerns periodic points away from
    the postcritical set.  Non-repelling cycles are ignored.
    """
    return _zdunik_report(f, max_period, lyap, tol=tol, seed=seed, cap=cap).hits


def _zdunik_report(
    f: RationalMap, max_period: int, lyap: LyapunovEstimate, *, tol: float, seed: int, cap
) -> ZdunikReport:
    threshold = max(1e-9, 3.0 * lyap.std_error)
    trunc = postcritical_truncation(f, 32)
    exclusion_radius = 1e-6
    hits: list[tuple[CycleRecord, float]] = []
    excluded: list[tuple[CycleRecord, float]] = []

    all_cycles = [
        cycles_of_period(f, n, tol=tol, seed=seed, cap=cap)[0]
        for n in range(1, max_period + 1)
    ]
    for cycles in all_cycles:
        for cyc in cycles:
            if not cyc.repelling:
                continue
            margin = cyc.char_exponent - lyap.value
            if margin <= threshold:
                continue
            if any(trunc.min_chordal(p) <= exclusion_radius for p in cyc.points):
                excluded.append((cyc, margin))
                continue
            hits.append((cyc, margin))
    hits.sort(key=lambda cm: -cm[1])
    excluded.sort(key=lambda cm: -cm[1])
    return ZdunikReport(
        hits=hits,
        excluded=excluded,
        threshold=threshold,
        lyapunov_value=lyap.value,
    )
