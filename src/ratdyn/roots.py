"""Simultaneous polynomial root finding.

The workhorse is an Aberth–Ehrlich iteration with seeded random-perturbation
restarts (deterministic for a fixed seed).  Newton ratios p/p' are computed
through the w = 1/z chart for |z| > 1, so high-degree polynomials are
evaluated without overflow.  A generic "ratio function" mode lets the
periodic-point solver run the same iteration against an implicitly evaluated
polynomial (iterated maps) instead of explicit coefficients.

Each sweep works on the active set of unlocked roots only: a root locks
once its step falls under the tolerance, and from then on it never moves
and its ratio is never evaluated again; it only repels the active roots.
A locked root's correction would be zero anyway and the ratio functions
are elementwise, so the roots are bit-identical to sweeping every root.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable

import numpy as np

from .errors import RootFindingFailed

_CHUNK = 512
_BLOCK = 1 << 16  # complex entries (1 MiB) of the repulsion block buffers, in all
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _executor(threads: int):
    from concurrent.futures import ThreadPoolExecutor  # about 10 ms, so not at import
    return ThreadPoolExecutor(threads)


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _repulsion_slice(z: np.ndarray, rows: np.ndarray, out: np.ndarray, k: int) -> None:
    n = z.size
    buf = np.empty(min(k, rows.size) * n, dtype=complex)
    # errstate is a context variable: it is entered in the thread that divides
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, rows.size, k):
            r = rows[lo : lo + k]
            b = buf[: r.size * n].reshape(r.size, n)
            np.subtract(z[r, None], z, out=b)
            b[np.arange(r.size), r] = np.inf
            np.divide(1.0, b, out=b)
            b.sum(axis=1, out=out[lo : lo + r.size])


def _repulsion_rows(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """S_i = sum_{j != i} 1/(z_i - z_j) for i in rows, a few rows at a time.
    Each row is (1.0 / (z_i - z)).sum() with z_i - z_i = inf, so S_i does not
    depend on the other rows asked for, and _WORKERS contiguous slices of rows
    run on as many threads to the same bits once each has _BLOCK entries."""
    w = _WORKERS if rows.size * z.size >= _WORKERS * _BLOCK else 1
    k = max(1, _BLOCK // w // max(z.size, 1))
    out = np.empty(rows.size, dtype=complex)
    parts = [(z, r, o, k) for r, o in zip(np.array_split(rows, w), np.array_split(out, w))]
    jobs = [_executor(w - 1).submit(_repulsion_slice, *p) for p in parts[1:]]
    _repulsion_slice(*parts[0])
    for job in jobs:
        job.result()
    return out


def newton_ratio_from_coeffs(coeffs_asc: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Return z -> p(z)/p'(z) evaluated stably on both charts.

    For |z| > 1 uses p(z) = z^D q(1/z) with q the reversed coefficients:
    p'/p = (D - w q'(w)/q(w))/z, w = 1/z.
    """
    c = np.asarray(coeffs_asc, dtype=complex)
    D = len(c) - 1
    cr = c[::-1].copy()

    def ratio(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.empty_like(z)
        inner = np.abs(z) <= 1.0
        if inner.any():
            zi = z[inner]
            p = np.full_like(zi, c[D])
            dp = np.zeros_like(zi)
            for k in range(D - 1, -1, -1):
                dp = dp * zi + p
                p = p * zi + c[k]
            with np.errstate(divide="ignore", invalid="ignore"):
                out[inner] = p / dp
        if (~inner).any():
            zo = z[~inner]
            w = 1.0 / zo
            q = np.full_like(w, cr[D])
            dq = np.zeros_like(w)
            for k in range(D - 1, -1, -1):
                dq = dq * w + q
                q = q * w + cr[k]
            with np.errstate(divide="ignore", invalid="ignore"):
                out[~inner] = zo * q / (D * q - w * dq)
        return out

    return ratio


def _median(x: np.ndarray) -> float:
    """np.median(x): the mean of the middle one or two sorted entries, without
    the lazy import of numpy.ma (about 30 ms) in np.median's NaN check."""
    return float(np.mean(np.sort(x)[(x.size - 1) // 2 : x.size // 2 + 1]))


def aberth_ratio(
    ratio_fn: Callable[[np.ndarray], np.ndarray],
    starts: np.ndarray,
    tol: float = 1e-13,
    max_iter: int = 120,
    seed: int = 0,
    restarts: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """Aberth–Ehrlich iteration from given starts.

    Every sweep calls ratio_fn on the active (unlocked) roots only and
    repels them against all roots.  A locked root never moves and is never
    re-evaluated; it only repels.  ratio_fn must act elementwise, since the
    set of points it sees in one call shrinks as roots lock.

    Returns (roots, converged_mask); unconverged entries keep their last
    iterate.  Deterministic for fixed seed/starts.
    """
    rng = np.random.default_rng(seed)
    z = np.array(starts, dtype=complex)
    n = z.size
    scale = _median(np.abs(z)) + 1.0
    locked = np.zeros(n, dtype=bool)
    for round_ in range(restarts + 1):
        for _ in range(max_iter):
            act = np.nonzero(~locked)[0]
            za = z[act]
            with np.errstate(all="ignore"):
                N = ratio_fn(za)
            # a non-finite ratio means the iterate is lost (underflow basin,
            # pole, ...): it must not lock, and gets redrawn at restart
            bad = ~np.isfinite(N)
            N = np.where(bad, 0.0, N)
            S = _repulsion_rows(z, act)
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = N / (1.0 - N * S)
            corr = np.where(np.isfinite(corr), corr, N)
            # clamp: one huge correction must not fling the iterate away
            lim = 0.5 * (1.0 + np.abs(za))
            mag = np.abs(corr)
            with np.errstate(invalid="ignore", divide="ignore"):
                corr = np.where(mag > lim, corr * (lim / np.maximum(mag, 1e-300)), corr)
            za = za - corr
            z[act] = za
            locked[act] = (np.abs(corr) <= tol * (1.0 + np.abs(za))) & ~bad
            if locked.all():
                break
        if locked.all():
            break
        # seeded restart: runaways and half the stragglers re-drawn at the
        # start scale (sphere-uniform modulus), the rest locally kicked
        idx = np.nonzero(~locked)[0]
        redraw = idx[
            (np.abs(z[idx]) > 1e6 * scale) | (rng.random(idx.size) < 0.5)
        ]
        if redraw.size:
            u = rng.random(redraw.size)
            r = scale * np.sqrt(u / (1.0 - u + 1e-12))
            z[redraw] = r * np.exp(2j * np.pi * rng.random(redraw.size))
        rest = np.setdiff1d(idx, redraw)
        if rest.size:
            spread = 0.05 / (round_ + 1)
            z[rest] = z[rest] * (
                1.0 + spread * (rng.random(rest.size) - 0.5)
            ) + spread * (rng.random(rest.size) - 0.5)
    # finishing sweep: a few stragglers may just need a long Newton walk
    # (far-field steps are only |z|/degree); repel against locked roots only
    idx = np.nonzero(~locked)[0]
    if idx.size and idx.size <= max(8, n // 20):
        zi = z[idx]
        done = np.zeros(idx.size, dtype=bool)
        for _ in range(4 * n + 300):
            with np.errstate(all="ignore"):
                N = ratio_fn(zi)
            bad = ~np.isfinite(N)
            N = np.where(bad, 0.0, N)
            S = np.zeros(zi.size, dtype=complex)
            zl = z[locked]
            for lo in range(0, zl.size, _CHUNK):
                with np.errstate(all="ignore"):
                    S += (1.0 / (zi[:, None] - zl[None, lo : lo + _CHUNK])).sum(axis=1)
            with np.errstate(all="ignore"):
                corr = N / (1.0 - N * S)
            corr = np.where(np.isfinite(corr), corr, N)
            lim = 0.5 * (1.0 + np.abs(zi))
            mag = np.abs(corr)
            corr = np.where(mag > lim, corr * (lim / np.maximum(mag, 1e-300)), corr)
            corr = np.where(done, 0.0, corr)
            zi = zi - corr
            done = done | ((np.abs(corr) <= tol * (1.0 + np.abs(zi))) & ~bad)
            if done.all():
                break
        z[idx] = zi
        locked[idx] = done
    return z, locked


def _newton_polygon_starts(c: np.ndarray, seed: int) -> np.ndarray:
    """Per-root modulus estimates from the upper convex hull of
    (k, log|c_k|) (Bini's initialization), with seeded angular twist."""
    D = len(c) - 1
    ks = [k for k in range(D + 1) if c[k] != 0]
    logs = {k: math.log(abs(c[k])) for k in ks}
    hull = [ks[0]]
    for k in ks[1:]:
        while len(hull) >= 2:
            k1, k2 = hull[-2], hull[-1]
            # keep the hull upper-convex
            if (logs[k2] - logs[k1]) * (k - k2) <= (logs[k] - logs[k2]) * (k2 - k1):
                hull.pop()
            else:
                break
        hull.append(k)
    radii = np.empty(D)
    pos = 0
    for k1, k2 in zip(hull, hull[1:]):
        u = math.exp((logs[k1] - logs[k2]) / (k2 - k1))
        u = min(max(u, 1e-6), 1e6)
        radii[pos : pos + (k2 - k1)] = u
        pos += k2 - k1
    rng = np.random.default_rng(seed)
    ang = 2 * np.pi * (np.arange(D) * 0.61803398875 % 1.0) + rng.random() * 0.2
    return radii * np.exp(1j * ang)


def aberth(
    coeffs_asc: np.ndarray,
    tol: float = 1e-13,
    seed: int = 0,
) -> np.ndarray:
    """All complex roots of a coefficient polynomial via Aberth–Ehrlich."""
    c = np.asarray(coeffs_asc, dtype=complex)
    nz = np.nonzero(np.abs(c) > 0)[0]
    if nz.size == 0:
        raise RootFindingFailed("zero polynomial")
    # strip the exactly-zero high-order coefficients, and the roots at 0
    zeros = np.zeros(nz[0], dtype=complex)
    c = c[nz[0] : nz[-1] + 1]
    D = len(c) - 1
    if D == 0:
        return zeros
    starts = _newton_polygon_starts(c, seed)
    ratio = newton_ratio_from_coeffs(c)
    roots, ok = aberth_ratio(ratio, starts, tol=tol, seed=seed)
    if not ok.all():
        raise RootFindingFailed(f"{int((~ok).sum())} of {D} roots unconverged")
    return np.concatenate([zeros, roots])


def solve_poly(coeffs_asc: np.ndarray, tol: float = 1e-13, seed: int = 0) -> np.ndarray:
    """Roots of an explicit-coefficient polynomial (ascending coefficients).

    Small degrees go to the companion-matrix solver; larger ones to Aberth.
    """
    c = np.asarray(coeffs_asc, dtype=complex)
    nz = np.nonzero(np.abs(c) > 0)[0]
    if nz.size == 0 or nz[-1] > 48:
        return aberth(c, tol=tol, seed=seed)  # which rejects the zero polynomial
    return np.roots(c[nz[-1] :: -1]) if nz[-1] else np.empty(0, dtype=complex)


def newton_polish(ratio_fn, z: np.ndarray, iters: int = 2) -> np.ndarray:
    for _ in range(iters):
        N = ratio_fn(z)
        N = np.where(np.isfinite(N), N, 0.0)
        z = z - N
    return z


def newton_settle(ratio_fn, z: np.ndarray) -> np.ndarray:
    """Up to 6 Newton steps per root, while they shrink and exceed 4 eps (1 + |z|)."""
    last = np.full(z.size, np.inf)
    for _ in range(6):
        N = ratio_fn(z)
        go = (step := np.abs(N)) < last
        z = np.where(go, z - N, z)
        last = np.where(go & (step > 4 * np.finfo(float).eps * (1 + np.abs(z))), step, 0.0)
    return z


# ----------------------------------------------------------------------
# batched small-degree solves (preimages)
# ----------------------------------------------------------------------


def batched_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a batch of same-length ascending-coefficient polynomials.

    coeffs has shape (N, d+1); returns (N, d) roots.  Rows whose leading
    coefficient (nearly) vanishes get inf entries for the missing roots.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    N, m = coeffs.shape
    d = m - 1
    out = np.full((N, d), np.inf, dtype=complex)
    if d == 0:
        return out
    scale = np.abs(coeffs).max(axis=1)
    scale = np.where(scale == 0, 1.0, scale)
    lead_ok = np.abs(coeffs[:, -1]) > 1e-14 * scale
    if d == 1:
        rows = lead_ok
        out[rows, 0] = -coeffs[rows, 0] / coeffs[rows, 1]
        return out
    if d == 2:
        rows = lead_ok
        a, b, c = coeffs[rows, 2], coeffs[rows, 1], coeffs[rows, 0]
        disc = b * b - 4 * a * c
        sq = np.sqrt(disc)
        # pick the sign that avoids cancellation
        flip = np.real(np.conj(b) * sq) < 0
        sq = np.where(flip, -sq, sq)
        q = -0.5 * (b + sq)
        r1 = np.where(q != 0, q / a, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r2 = np.where(q != 0, c / q, np.sqrt(-c / a + 0j) * 0)
        deg_zero = q == 0
        if deg_zero.any():
            # b = 0 and c = 0 edge: both roots are +-sqrt(-c/a) = 0
            s = np.sqrt(-c[deg_zero] / a[deg_zero] + 0j)
            r1[deg_zero] = s
            r2[deg_zero] = -s
        out[rows, 0] = r1
        out[rows, 1] = r2
    else:
        rows = np.nonzero(lead_ok)[0]
        if rows.size:
            comp = np.zeros((rows.size, d, d), dtype=complex)
            comp[:, 1:, :-1] = np.eye(d - 1)
            comp[:, :, -1] = -coeffs[rows, :-1] / coeffs[rows, -1][:, None]
            vals = np.linalg.eigvals(comp)
            out[rows, :] = vals
    # degree-drop rows: solve the reduced polynomial per row
    bad = ~lead_ok
    for i in np.nonzero(bad)[0]:
        row = coeffs[i]
        nz = np.nonzero(np.abs(row) > 1e-14 * scale[i])[0]
        if nz.size == 0:
            continue
        sub = row[: nz[-1] + 1]
        if len(sub) > 1:
            r = np.roots(sub[::-1])
            out[i, : r.size] = r
    return out
