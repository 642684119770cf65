"""Seeded random-map property sweeps across the whole pipeline."""

from fractions import Fraction

import numpy as np

from ratdyn import (
    DegenerateMap,
    DegreeTooLow,
    MoebiusMap,
    build_map,
    conjugate,
    critical_points,
    multiplier_polynomial,
    spherical_norm,
)
from ratdyn.errors import RatdynError
from ratdyn.periodic import periodic_points
from ratdyn.polys import pstrip
from ratdyn.spectra import multiplier_factors


def _random_exact_maps(rng, count, degree):
    out = []
    while len(out) < count:
        num = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(degree + 1)]
        den = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(degree + 1)]
        try:
            f = build_map(num, den)
        except (DegenerateMap, DegreeTooLow):
            continue
        if f.degree == degree:
            out.append(f)
    return out


def test_critical_count_on_random_maps():
    rng = np.random.default_rng(100)
    for f in _random_exact_maps(rng, 8, 2) + _random_exact_maps(rng, 5, 3):
        crit = critical_points(f)
        assert sum(m for _, m in crit) == 2 * f.degree - 2


def test_period_counts_on_random_maps():
    rng = np.random.default_rng(200)
    for f in _random_exact_maps(rng, 5, 2):
        total = 0
        degenerate = False
        for k in (1, 2, 4):
            try:
                pts, rep = periodic_points(f, k, tol=1e-10)
            except RatdynError:
                degenerate = True
                break
            if rep.points_found != rep.expected:
                degenerate = True  # parabolic collision territory
                break
            total += len(pts)
        if not degenerate:
            assert total == f.degree**4 + 1


def test_spherical_norm_chain_rule_on_random_maps():
    from ratdyn.homoclinic import iterate_map

    rng = np.random.default_rng(300)
    for f in _random_exact_maps(rng, 4, 2):
        ff = iterate_map(f, 2)
        for _ in range(10):
            z = complex(rng.normal(), rng.normal())
            fz = f.evaluate(z)
            lhs = spherical_norm(ff, z)
            rhs = spherical_norm(f, fz) * spherical_norm(f, z)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_exact_spectra_deterministic_across_seeds():
    f = build_map([-1, 0, 1], [1])
    base = multiplier_factors(f, 3, seed=0).factors
    for seed in (1, 7, 123):
        assert multiplier_factors(f, 3, seed=seed).factors == base


def test_inverse_power_spectra_through_infinity_cycle():
    # 1/z^2: {0, Infinity} is a superattracting 2-cycle; the exact pipeline
    # must run the residue orbit through Infinity and append the
    # Infinity-point root
    f = build_map([1], [0, 0, 1])
    pf1 = multiplier_factors(f, 1)
    # three cube-root fixed points, multiplier -2
    assert [(tuple(q), m) for q, m in pf1.factors] == [
        ((Fraction(2), Fraction(1)), 3)
    ]
    pf2 = multiplier_factors(f, 2)
    assert pf2.point_count == 2
    assert [(tuple(q), m) for q, m in pf2.factors] == [
        ((Fraction(0), Fraction(1)), 2)
    ]
    p2 = multiplier_polynomial(f, 2)
    assert pstrip(p2) == [Fraction(0), Fraction(0), Fraction(1)]  # λ^2


def test_inverse_cube_spectra():
    f = build_map([1], [0, 0, 0, 1])  # 1/z^3
    pf = multiplier_factors(f, 1)
    got = sorted(((tuple(q), m) for q, m in pf.factors))
    # fixed points: z^4 = 1, multiplier -3 each
    assert got == [((Fraction(3), Fraction(1)), 4)]
    pf2 = multiplier_factors(f, 2)
    # the {0, inf} 2-cycle is superattracting; the four other period-2
    # points (z^8 = 1, z^4 != 1) have multiplier 9 since f^2 = z^9
    factors = {tuple(q): m for q, m in pf2.factors}
    assert factors[(Fraction(0), Fraction(1))] == 2
    assert factors[(Fraction(-9), Fraction(1))] == 4


def test_conjugation_carries_spectra():
    # exact spectra are conjugation-invariant: conjugate by an integer
    # Moebius map and compare factor multisets
    f = build_map([-1, 0, 1], [1])
    phi = MoebiusMap(1, 1, 1, 2)
    g = conjugate(f, phi)
    for n in (1, 2, 3):
        a = multiplier_factors(f, n).factors
        b = multiplier_factors(g, n).factors
        assert a == b
