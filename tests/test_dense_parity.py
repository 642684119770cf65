"""The near-neighbour passes of the numeric pipeline against the dense
O(m^2) reference of ``dense_reference.py``: root dedup, cycle grouping,
multipliers, exceptions and whole CLI reports agree to the bit."""

import io
import json

import dense_reference as ref
import numpy as np
import pytest

from ratdyn import periodic, roots
from ratdyn.cli import run
from ratdyn.errors import NotACycle, OrbitMismatch
from ratdyn.exceptional import LattesSpec, flexible_lattes
from ratdyn.periodic import _dedup_roots, group_cycles, periodic_points
from ratdyn.sphere import ProjPoint, build_map, chordal_xy, near_pairs, normalize_xy, sphere_points

LATTES = flexible_lattes(LattesSpec(-1, 0, 2))
BASILICA = build_map([-1, 0, 1], [1])
INV3 = build_map([1], [0, 0, 0, 1])


def _bits(z):
    return np.asarray(z, dtype=complex).view(np.uint64).tolist()


def _cycle_record(cycles):
    return [
        (
            _bits([p.to_complex() for p in c.points]),
            _bits([c.multiplier]),
            c.char_exponent,
            c.repelling,
        )
        for c in cycles
    ]


def _raised(fn, *args):
    with pytest.raises((OrbitMismatch, NotACycle)) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_near_pairs_contains_every_close_pair():
    rng = np.random.default_rng(5)
    z = np.concatenate([
        rng.normal(size=300) + 1j * rng.normal(size=300),
        1e6 * np.exp(2j * np.pi * rng.random(40)),  # crowded at the north pole
        1e-7 * (rng.normal(size=40) + 1j * rng.normal(size=40)),
    ])
    # planted partners at 0.5 t, 1.9 t and 4 t in chordal distance
    for t in (1e-12, 1e-8, 3e-6, 1e-3, 0.05):
        base = z[:60]
        scale = t * (1 + np.abs(base) ** 2)
        pts = np.concatenate([z, base + np.repeat([0.5, 1.9, 4.0], 20) * scale])
        X, Y = normalize_xy(pts, np.ones_like(pts))
        P = sphere_points(X, Y)
        i, j = near_pairs(P, P, t)
        got = set(zip(i.tolist(), j.tolist()))
        D = chordal_xy(X[:, None], Y[:, None], X[None, :], Y[None, :])
        want = set(zip(*(a.tolist() for a in np.nonzero(D <= t))))
        assert want and want <= got, t
    assert len(got) < pts.size**2  # not all pairs at the largest t either


CASES = [(LATTES, n) for n in range(1, 6)] + [(BASILICA, 8)] + [(INV3, n) for n in range(1, 5)]


@pytest.mark.parametrize("f,n", CASES)
def test_cycles_and_multipliers_match_the_dense_passes(monkeypatch, f, n):
    pts, _ = periodic_points(f, n, seed=3)
    got = group_cycles(f, pts, n)
    assert _cycle_record(got) == _cycle_record(ref.group_cycles(f, pts, n))
    assert len(got) * n == len(pts)
    if f is INV3 and n == 2:  # the cycle 0 <-> Infinity
        assert any(p.is_infinity for c in got for p in c.points)
    monkeypatch.setattr(periodic, "_dedup_roots", ref.dedup_roots)
    dense_pts, _ = periodic_points(f, n, seed=3)
    assert [repr(p) for p in dense_pts] == [repr(p) for p in pts]


@pytest.fixture(scope="module")
def lattes5():
    pts, _ = periodic_points(LATTES, 5, seed=3)
    assert len(pts) == 1020
    return pts


def test_a_planted_collision_raises_the_same_error(lattes5):
    pts = list(lattes5)
    z = pts[700].to_complex()
    pts[3] = ProjPoint.finite(z + 3e-12 * (1 + abs(z) ** 2))
    args = (LATTES, pts, 5, 1e-12)
    assert _raised(group_cycles, *args) == _raised(ref.group_cycles, *args)
    assert "closer than 10*tol" in _raised(group_cycles, *args)[1]


@pytest.mark.parametrize("k", [40, 600, 1019])
def test_a_displaced_point_raises_the_same_error(lattes5, k):
    pts = list(lattes5)
    z = pts[k].to_complex()
    pts[k] = ProjPoint.finite(z + 1e-6 * (1 + abs(z) ** 2))  # chordal 1e-6
    args = (LATTES, pts, 5, 1e-12)
    got = _raised(group_cycles, *args)
    assert got == _raised(ref.group_cycles, *args)
    assert got[0] is OrbitMismatch and "forward image of point" in got[1]


def test_the_error_names_the_first_failing_512_chunk(lattes5):
    # displace a point k near the end of the first 512-row chunk whose
    # predecessor p lies in the second: rows k and p fail, and the dense
    # pass names the failing image of the first chunk, k
    index = {id(p): i for i, p in enumerate(lattes5)}
    succ = {}
    for cyc in ref.group_cycles(LATTES, lattes5, 5, 1e-12):
        idx = [index[id(p)] for p in cyc.points]
        succ.update(zip(idx, idx[1:] + idx[:1]))
    k = next(succ[p] for p in range(512, 1000) if 500 <= succ[p] < 512)
    pts = list(lattes5)
    z = pts[k].to_complex()
    pts[k] = ProjPoint.finite(z + 1e-6 * (1 + abs(z) ** 2))
    got = _raised(group_cycles, LATTES, pts, 5, 1e-12)
    assert got == _raised(ref.group_cycles, LATTES, pts, 5, 1e-12)
    assert f"forward image of point {k} is" in got[1]


def test_a_loose_tolerance_cycle_check_matches_the_multiplier_check():
    # tol 1e-5 lets the image of -1 match the displaced 0 (2e-6 away), so
    # the 1e-6 cycle check of periodic.multiplier is what refuses it
    pts = [ProjPoint.finite(2e-6), ProjPoint.finite(-1.0)]
    got = _raised(group_cycles, BASILICA, pts, 2, 1e-5)
    assert got == _raised(ref.group_cycles, BASILICA, pts, 2, 1e-5)
    assert got[0] is NotACycle


@pytest.mark.parametrize("scale", [1e6, 1e-3])
def test_planted_near_duplicates_dedup_like_the_dense_loop(scale):
    rng = np.random.default_rng(11)
    r = 1e-9
    z = scale * (0.5 + rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    rad = r * (1 + np.abs(z[:40]))
    twins = z[:40] + rad * rng.choice([0.2, 0.6, 0.99, 1.5, 3.0], 40) * np.exp(
        2j * np.pi * rng.random(40)
    )
    triples = z[40:50] + 0.4 * r * (1 + np.abs(z[40:50]))
    signed = np.array([complex(-0.0, scale), complex(scale, -0.0), complex(-0.0, -scale)])
    roots_ = np.concatenate([z, twins, triples, triples + 1e-3 * r * scale, signed])
    roots_ = roots_[rng.permutation(roots_.size)]
    got, want = _dedup_roots(roots_, r), ref.dedup_roots(roots_, r)
    assert _bits(got) == _bits(want)
    assert len(set(want)) < roots_.size - 40  # clusters did merge


def test_reports_are_byte_identical_with_the_dense_passes(monkeypatch):
    commands = [
        ["cycles", "--map", "z^2-1", "--period", "8"],
        ["zdunik", "--map", "z^2-1", "--max-period", "5", "--samples", "2000"],
    ]

    def reports():
        out = []
        for argv in commands:
            buf, err = io.StringIO(), io.StringIO()
            assert run(argv, out=buf, err=err) == 0, err.getvalue()
            rep = json.loads(buf.getvalue())
            rep.pop("timing")
            out.append(json.dumps(rep, sort_keys=True))
        return out

    fast = reports()
    monkeypatch.setattr(roots, "_repulsion_rows", ref.repulsion_rows)
    monkeypatch.setattr(periodic, "_dedup_roots", ref.dedup_roots)
    monkeypatch.setattr(periodic, "group_cycles", ref.group_cycles)
    assert reports() == fast
