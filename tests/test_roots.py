import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import dense_reference
import numpy as np
import pytest

from ratdyn import roots as roots_mod
from ratdyn.errors import RootFindingFailed
from ratdyn.exceptional import LattesSpec, flexible_lattes
from ratdyn.periodic import _tree_starts, make_period_ratio
from ratdyn.roots import (
    _median,
    _repulsion_rows,
    aberth,
    aberth_ratio,
    batched_roots,
    newton_ratio_from_coeffs,
    solve_poly,
)


def _full_sweep_aberth_ratio(ratio_fn, starts, tol=1e-13, max_iter=120, seed=0, restarts=3):
    """Reference: the Aberth loop that re-evaluates every root on every
    sweep, locked or not (locked roots get a zero correction)."""

    def pairwise_repulsion(z):
        n = z.size
        out = np.zeros(n, dtype=complex)
        for lo in range(0, n, 512):
            hi = min(lo + 512, n)
            diff = z[lo:hi, None] - z[None, :]
            np.fill_diagonal(diff[:, lo:hi], np.inf)
            with np.errstate(divide="ignore", invalid="ignore"):
                out[lo:hi] = (1.0 / diff).sum(axis=1)
        return out

    rng = np.random.default_rng(seed)
    z = np.array(starts, dtype=complex)
    n = z.size
    scale = float(np.median(np.abs(z))) + 1.0
    locked = np.zeros(n, dtype=bool)
    for round_ in range(restarts + 1):
        for _ in range(max_iter):
            with np.errstate(all="ignore"):
                N = ratio_fn(z)
            bad = ~np.isfinite(N)
            if bad.any():
                N = np.where(bad, 0.0, N)
            S = pairwise_repulsion(z)
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = N / (1.0 - N * S)
            corr = np.where(np.isfinite(corr), corr, N)
            lim = 0.5 * (1.0 + np.abs(z))
            mag = np.abs(corr)
            with np.errstate(invalid="ignore", divide="ignore"):
                corr = np.where(mag > lim, corr * (lim / np.maximum(mag, 1e-300)), corr)
            corr = np.where(locked, 0.0, corr)
            z = z - corr
            step = np.abs(corr)
            locked = locked | ((step <= tol * (1.0 + np.abs(z))) & ~bad)
            if locked.all():
                break
        if locked.all():
            break
        idx = np.nonzero(~locked)[0]
        redraw = idx[(np.abs(z[idx]) > 1e6 * scale) | (rng.random(idx.size) < 0.5)]
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
            for lo in range(0, zl.size, 512):
                hi = min(lo + 512, zl.size)
                with np.errstate(all="ignore"):
                    S += (1.0 / (zi[:, None] - zl[None, lo:hi])).sum(axis=1)
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


def test_solve_quartic():
    r = np.sort_complex(solve_poly(np.array([-1, 0, 0, 0, 1], dtype=complex)))
    expect = np.sort_complex(np.array([1, -1, 1j, -1j]))
    assert np.abs(r - expect).max() < 1e-12


def test_aberth_high_degree_cyclotomic_like():
    # z^1024 - z: roots are 0 and the 1023rd roots of unity
    c = np.zeros(1025, dtype=complex)
    c[1] = -1
    c[1024] = 1
    r = aberth(c, seed=1)
    assert r.size == 1024
    nz = r[np.abs(r) > 1e-8]
    assert np.abs(nz**1023 - 1).max() < 1e-10
    assert (np.abs(r) < 1e-12).sum() == 1


def test_aberth_is_deterministic():
    c = np.array(np.random.default_rng(0).normal(size=80), dtype=complex)
    c[-1] = 1.0
    r1 = aberth(c.copy(), seed=42)
    r2 = aberth(c.copy(), seed=42)
    assert np.array_equal(r1, r2)


def _lattes_period5_case():
    f = flexible_lattes(LattesSpec(-1, 0, 2))
    kw = {"tol": 1e-14, "seed": 7}
    return make_period_ratio(f, 5), _tree_starts(f, 1024, 7), kw, 1


def _random_degree200_case():
    # starts next to the roots except six far ones: the first round locks
    # all but those six, so the restarts and the finishing sweep run too
    # (more ratio calls than the 4 rounds of 3 sweeps)
    rng = np.random.default_rng(0)
    c = rng.normal(size=201) + 1j * rng.normal(size=201)
    starts = np.roots(c[::-1]) * (1 + 1e-6 * (rng.random(200) - 0.5))
    starts[:6] = 3.0 * np.exp(2j * np.pi * rng.random(6))
    kw = {"max_iter": 3, "seed": 0}
    return newton_ratio_from_coeffs(c), starts, kw, 4 * 3 + 1


@pytest.mark.parametrize("case", [_lattes_period5_case, _random_degree200_case])
def test_aberth_ratio_active_set_matches_full_sweep(case):
    ratio, starts, kw, min_calls = case()
    sizes = []

    def counted(z):
        sizes.append(z.size)
        return ratio(z)

    roots, ok = aberth_ratio(counted, starts, **kw)
    ref_roots, ref_ok = _full_sweep_aberth_ratio(ratio, starts, **kw)
    assert np.array_equal(roots.view(float), ref_roots.view(float))
    assert np.array_equal(ok, ref_ok)
    assert len(sizes) >= min_calls
    # only unlocked roots are evaluated: the active set never grows within
    # a round (the finishing sweep starts a new block at a round boundary)
    max_iter = kw.get("max_iter", 120)
    for lo in range(0, len(sizes), max_iter):
        block = sizes[lo : lo + max_iter]
        assert all(a >= b for a, b in zip(block, block[1:]))
    assert sizes[-1] < starts.size


def _repulsion_case(n, count):
    # unsorted rows, not a multiple of the rows per block; z holds inf and
    # duplicates, and the rows include them
    rng = np.random.default_rng(count)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z[[5, 9]] = z[2]
    z[11] = np.inf
    rows = np.concatenate([[11, 5, 2], rng.permutation(np.arange(12, n))])[:count]
    with np.errstate(invalid="ignore"):
        want = dense_reference.repulsion_rows(z, rows)
    return z, rows, want.view(np.uint64).tolist()


@pytest.mark.parametrize("n,count", [(300, 1), (300, 7), (300, 17), (300, 255), (4101, 17), (4101, 4096)])
def test_repulsion_rows_is_the_dense_formula_to_the_bit(n, count):
    z, rows, want = _repulsion_case(n, count)
    assert _repulsion_rows(z, rows).view(np.uint64).tolist() == want


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "n,count,block",
    # the real block (4096 rows split 3 ways is uneven), then small blocks
    # so that small cases split too: 17 rows over up to 4 threads, fewer rows
    # than threads, and 255 rows at 3 rows per block on one thread, 1 on more
    [(4101, 4096, roots_mod._BLOCK), (4101, 17, 16), (300, 2, 64), (300, 255, 900)],
)
def test_split_repulsion_rows_is_the_dense_formula_to_the_bit(monkeypatch, workers, n, count, block):
    monkeypatch.setattr(roots_mod, "_WORKERS", workers)
    monkeypatch.setattr(roots_mod, "_BLOCK", block)
    threads = []
    slice_ = roots_mod._repulsion_slice

    def spy(*args):
        threads.append(threading.get_ident())
        slice_(*args)

    monkeypatch.setattr(roots_mod, "_repulsion_slice", spy)
    z, rows, want = _repulsion_case(n, count)
    assert _repulsion_rows(z, rows).view(np.uint64).tolist() == want
    # one slice per worker, one of them on the calling thread
    assert len(threads) == workers
    assert threads.count(threading.get_ident()) == 1


def test_split_repulsion_rows_warns_nothing(monkeypatch):
    # np.errstate does not cross threads: each worker must enter its own.
    # Reversed, the rows of the duplicate points fall in the worker's slice
    monkeypatch.setattr(roots_mod, "_WORKERS", 2)
    z, rows, want = _repulsion_case(4101, 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _repulsion_rows(z, rows[::-1])
    assert got[::-1].copy().view(np.uint64).tolist() == want


def test_a_300_point_solve_makes_no_thread_pool(monkeypatch):
    def no_pool(threads):
        raise AssertionError("a 300-point solve split its repulsion")

    monkeypatch.setattr(roots_mod, "_executor", no_pool)
    c = np.zeros(301, dtype=complex)
    c[[0, 300]] = -1, 1
    r = aberth(c, seed=3)
    assert r.size == 300 and np.abs(r**300 - 1).max() < 1e-10


def _split_repulsion_in_child(case):
    z, rows, _ = _repulsion_case(*case)
    return _repulsion_rows(z, rows).view(np.uint64).tolist()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork start method only")
def test_split_repulsion_rows_in_a_forked_child(monkeypatch):
    # the parent makes its pool first; its threads do not survive the fork,
    # so the child must make its own
    monkeypatch.setattr(roots_mod, "_WORKERS", 2)
    z, rows, want = _repulsion_case(4101, 4096)
    assert _repulsion_rows(z, rows).view(np.uint64).tolist() == want
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_split_repulsion_in_child, ((4101, 4096),)).get(timeout=60)
    assert got == want


@pytest.mark.parametrize("size", [1, 2, 7, 200, 1001, 4096])
def test_median_is_np_median_to_the_bit(size):
    rng = np.random.default_rng(size)
    x = np.abs(rng.normal(size=size) + 1j * rng.normal(size=size))
    assert _median(x).hex() == float(np.median(x)).hex()


def test_an_implicit_solve_does_not_import_numpy_ma():
    code = (
        "import sys\n"
        "from ratdyn.exceptional import LattesSpec, flexible_lattes\n"
        "from ratdyn.periodic import periodic_points\n"
        "pts, _ = periodic_points(flexible_lattes(LattesSpec(-1, 0, 2)), 3)\n"
        "assert len(pts) == 60, len(pts)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(roots_mod.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_repulsion_rows_allocates_one_block():
    # the dense formula's 512 x n temporaries took 2 x 32 MiB at n = 4096
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    rows = np.arange(4096)
    tracemalloc.start()
    try:
        _repulsion_rows(z, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_newton_ratio_both_charts():
    # p = z^8 - 256: ratio p/p' exact on both sides of |z| = 1
    c = np.zeros(9, dtype=complex)
    c[0] = -256
    c[8] = 1
    ratio = newton_ratio_from_coeffs(c)
    for z in (0.5 + 0.2j, 3.0 - 1.0j, 0.9j, 2.2):
        z = complex(z)
        expect = (z**8 - 256) / (8 * z**7)
        assert abs(ratio(np.array([z]))[0] - expect) < 1e-12 * max(1, abs(expect))


def test_batched_roots_quadratic_and_degenerate():
    co = np.array(
        [[-4, 0, 1], [-9, 0, 1], [0, 0, 1], [2, 3, 0]], dtype=complex
    )
    rr = batched_roots(co)
    assert np.allclose(np.sort_complex(rr[0]), [-2, 2])
    assert np.allclose(np.sort_complex(rr[1]), [-3, 3])
    assert np.allclose(rr[2], 0)
    # degenerate leading coefficient: one finite root, one at infinity
    finite = rr[3][np.isfinite(rr[3])]
    assert finite.size == 1 and abs(finite[0] + 2 / 3) < 1e-12


def test_batched_roots_quartic_matches_numpy():
    co = np.array([[-1, 0, 0, 0, 1], [16, 0, 0, 0, 1]], dtype=complex)
    rr = batched_roots(co)
    for row, poly in zip(rr, co):
        assert np.abs(
            np.sort_complex(row) - np.sort_complex(np.roots(poly[::-1]))
        ).max() < 1e-10


def test_zero_polynomial_rejected():
    with pytest.raises(RootFindingFailed):
        solve_poly(np.zeros(4, dtype=complex))
