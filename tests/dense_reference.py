"""Test-only reference for the numeric periodic-point pipeline: the dense
O(m^2) passes that ratdyn ran before the near-neighbour search.

- :func:`repulsion_rows`: the Aberth repulsion sum of ``roots`` with one
  512 x n temporary per chunk of rows;
- :func:`dedup_roots`: the greedy root clustering of ``periodic_points``
  with one pass over all roots per root;
- :func:`group_cycles`: the two chunked all-pairs chordal passes, and the
  cycle check of ``periodic.multiplier`` (one ``f.evaluate`` per point).

Each is a drop-in replacement for its production counterpart
(``roots._repulsion_rows``, ``periodic._dedup_roots``,
``periodic.group_cycles``), so a test can compare the two directly or
monkeypatch the reference in and compare whole reports.
"""

import numpy as np

from ratdyn import config
from ratdyn.errors import OrbitMismatch
from ratdyn.periodic import CycleRecord, characteristic_exponent, multiplier
from ratdyn.scalars import Qi
from ratdyn.sphere import chordal_xy, points_to_xy


def repulsion_rows(z, rows):
    out = np.empty(rows.size, dtype=complex)
    for lo in range(0, rows.size, 512):
        r = rows[lo : lo + 512]
        diff = z[r, None] - z[None, :]
        diff[np.arange(r.size), r] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            out[lo : lo + r.size] = (1.0 / diff).sum(axis=1)
    return out


def dedup_roots(roots, cluster_r):
    out = []
    used = np.zeros(roots.size, dtype=bool)
    for i in np.argsort(-np.abs(roots)):
        if used[i]:
            continue
        close = np.abs(roots - roots[i]) <= cluster_r * (1 + np.abs(roots[i]))
        close &= ~used
        used |= close
        rep = complex(np.mean(roots[close]))
        for _ in range(int(close.sum())):
            out.append(rep)
    return out


def group_cycles(f, points, n, tol=config.SOLVER_TOL):
    pts = list(points)
    m = len(pts)
    if m == 0:
        return []
    if m % n != 0:
        raise OrbitMismatch(f"{m} points cannot split into period-{n} orbits")
    sep = 10 * tol
    X, Y = points_to_xy(pts)
    chunk = 512
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        D = chordal_xy(X[lo:hi, None], Y[lo:hi, None], X[None, :], Y[None, :])
        for r in range(hi - lo):
            D[r, lo + r] = np.inf
        if D.min() < sep:
            raise OrbitMismatch(
                f"two input points are closer than 10*tol = {sep:g}; "
                "refusing to merge (parabolic collision?)"
            )
    match_tol = max(100 * tol, 1e-8)
    Xi, Yi = f.eval_hom(X.copy(), Y.copy())
    succ = np.empty(m, dtype=int)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        D = chordal_xy(Xi[lo:hi, None], Yi[lo:hi, None], X[None, :], Y[None, :])
        j = np.argmin(D, axis=1)
        dd = D[np.arange(hi - lo), j]
        if dd.max() > match_tol:
            k = int(np.argmax(dd))
            raise OrbitMismatch(
                f"forward image of point {lo + k} is {dd[k]:.3g} away from "
                "every input point"
            )
        succ[lo:hi] = j
    if len(set(succ.tolist())) != m:
        raise OrbitMismatch("forward map is not a permutation of the input set")
    visited = np.zeros(m, dtype=bool)
    cycles = []
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
        lam = multiplier(f, orbit)
        lam_c = complex(lam) if isinstance(lam, Qi) else lam
        cycles.append(
            CycleRecord(
                points=orbit,
                period=n,
                multiplier=lam_c,
                char_exponent=characteristic_exponent(lam, n),
                repelling=abs(lam_c) > 1.0,
            )
        )
    return cycles
