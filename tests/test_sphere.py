import math
from fractions import Fraction

import numpy as np
import pytest

from ratdyn import (
    INF,
    DegenerateMap,
    DegreeTooLow,
    LattesSpec,
    MoebiusMap,
    ProjPoint,
    Qi,
    build_map,
    chordal,
    classify,
    conjugate,
    critical_points,
    evaluate,
    exceptional,
    find_seed,
    flexible_lattes,
    homoclinic,
    postcritical_truncation,
    sphere,
    spherical_norm,
)
from ratdyn.homoclinic import iterate_map
from ratdyn.polys import pderiv, ppad, pstrip
from ratdyn.spectra import ResidueField
from ratdyn.sphere import chart_step, hom_eval, normalize_xy

Z2 = build_map([0, 0, 1], [1])
BASILICA = build_map([-1, 0, 1], [1])


def test_build_map_literal_examples():
    f = build_map([0, 0, 1], [1])
    assert f.degree == 2 and f.exact
    g = build_map([-1, 0, 1], [1])
    assert g.degree == 2
    with pytest.raises(DegenerateMap):
        build_map([0, 0, 1], [0, 0, 1])  # num = den = z^2
    with pytest.raises(DegreeTooLow):
        build_map([1, 1], [1])  # degree 1


def test_build_map_reduces_common_factor():
    # (z^3 + z)/z has the common factor z; reduced degree 2 survives
    f = build_map([0, 1, 0, 1], [0, 1])
    assert f.degree == 2
    assert [c for c in f.num] == [Qi(1), Qi(0), Qi(1)]


def test_evaluate_examples():
    assert evaluate(Z2, 2).z == Qi(4)
    assert evaluate(Z2, INF).is_infinity
    assert evaluate(BASILICA, 0).z == Qi(-1)


def test_evaluate_homogeneous_at_infinity_for_inverse_power():
    f = build_map([1], [0, 0, 1])  # 1/z^2
    assert evaluate(f, INF).z == Qi(0)
    assert evaluate(f, 0).is_infinity


def test_moebius_maps_exact_points_exactly():
    phi = MoebiusMap(1, 2, 3, 4)  # (z + 2)/(3z + 4)
    assert phi(ProjPoint.finite(Fraction(-4, 3))) is INF  # the pole
    assert phi(INF) == ProjPoint.finite(Fraction(1, 3))
    assert phi(ProjPoint.finite(1)).z == Qi(Fraction(3, 7))
    assert phi(Fraction(1, 2)).z == Qi(Fraction(5, 11))
    assert phi(Qi(0, 1)).z == Qi(Fraction(11, 25), Fraction(-2, 25))  # (2+i)/(4+3i)


def test_spherical_norm_examples():
    assert abs(spherical_norm(Z2, 1) - 2.0) < 1e-15
    assert abs(spherical_norm(Z2, 2) - 20 / 17) < 1e-15
    # chart w = 1/z gives g(w) = w^2 with g'(0) = 0; also the limit of the
    # formula as |z| grows
    assert spherical_norm(Z2, INF) == 0.0
    vals = [spherical_norm(Z2, 10.0**k) for k in range(2, 7)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def test_spherical_norm_matches_displayed_formula_within_ulps():
    rng = np.random.default_rng(5)
    for f in (Z2, BASILICA):
        for _ in range(200):
            z = complex(rng.normal(), rng.normal())
            fz = evaluate(f, z).to_complex()
            if not np.isfinite(fz):
                continue
            # |f'(z)| (1+|z|^2)/(1+|f(z)|^2)
            h = 1e-7
            direct = abs(2 * z) if f is Z2 else abs(2 * z)
            ref = direct * (1 + abs(z) ** 2) / (1 + abs(fz) ** 2)
            got = spherical_norm(f, z)
            assert abs(got - ref) <= 4 * math.ulp(max(ref, 1.0)) + 1e-13 * ref


def test_chain_rule_for_spherical_norm():
    rng = np.random.default_rng(7)
    ff = iterate_map(BASILICA, 2)
    for _ in range(50):
        z = complex(rng.normal(), rng.normal())
        lhs = spherical_norm(ff, z)
        fz = evaluate(BASILICA, z)
        rhs = spherical_norm(BASILICA, fz) * spherical_norm(BASILICA, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_conjugate_examples():
    ident = MoebiusMap(1, 0, 0, 1)
    g = conjugate(Z2, ident)
    assert list(g.num) == list(Z2.num) and list(g.den) == list(Z2.den)
    # phi(z) = 2z: 2 (z/2)^2 = z^2/2
    g = conjugate(Z2, MoebiusMap(2, 0, 0, 1))
    assert g.evaluate(2).z == Qi(2)
    # phi(z) = 1/z fixes z^2
    g = conjugate(Z2, MoebiusMap(0, 1, 1, 0))
    assert list(g.num) == [Qi(0), Qi(0), Qi(1)] and list(g.den) == [Qi(1)]


def test_conjugate_roundtrip_exact():
    phi = MoebiusMap(Qi(1), Qi(2), Qi(3), Qi(1))
    g = conjugate(conjugate(BASILICA, phi), phi.inverse())
    assert list(g.num) == list(BASILICA.num)
    assert list(g.den) == list(BASILICA.den)


def test_conjugate_commutes_with_evaluate():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a, b, c, d = (complex(x, y) for x, y in rng.normal(size=(4, 2)))
        try:
            phi = MoebiusMap(a, b, c, d)
        except DegenerateMap:
            continue
        g = conjugate(BASILICA, phi)
        z = complex(rng.normal(), rng.normal())
        lhs = g.evaluate(phi(z))
        rhs = phi(BASILICA.evaluate(z))
        assert chordal(lhs, rhs) < 1e-9


def test_critical_points_count_and_examples():
    crit = critical_points(Z2)
    pts = {("inf" if p.is_infinity else round(abs(p.to_complex()), 6)): m for p, m in crit}
    assert pts == {0.0: 1, "inf": 1}
    crit_b = critical_points(BASILICA)
    assert sum(m for _, m in crit_b) == 2
    lattes = build_map(
        [Fraction(1, 4), 0, Fraction(1, 2), 0, Fraction(1, 4)], [0, -1, 0, 1]
    )
    crit_l = critical_points(lattes)
    assert sum(m for _, m in crit_l) == 2 * 4 - 2


def test_postcritical_truncation_examples():
    t = postcritical_truncation(Z2, 3)
    vals = {str(p) for p in t.points}
    assert t.closed and len(t.points) == 2
    t = postcritical_truncation(BASILICA, 4)
    assert t.closed and len(t.points) == 3  # {-1, 0, inf}
    t = postcritical_truncation(build_map([1, 0, 1], [1]), 2)
    assert not t.closed
    finite = sorted(
        p.to_complex().real for p in t.points if not p.is_infinity
    )
    assert finite == pytest.approx([1.0, 2.0])


@pytest.mark.parametrize(
    "run, calls",
    [
        (lambda: classify(BASILICA), 1),
        (lambda: find_seed(BASILICA, (1 + 5**0.5) / 2), 2),
    ],
    ids=["classify", "find_seed"],
)
def test_each_postcritical_walk_solves_the_critical_points_once(monkeypatch, run, calls):
    # classify's signature and find_seed's disk radii read the critical
    # points the truncation solved; find_seed makes two truncations
    seen, real = [], sphere.critical_points

    def spy(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    for module in (sphere, exceptional, homoclinic):
        if getattr(module, "critical_points", None) is real:
            monkeypatch.setattr(module, "critical_points", spy)
    run()
    assert len(seen) == calls


def test_chordal_metric_basics():
    assert chordal(INF, INF) == 0.0
    assert abs(chordal(0, INF) - 1.0) < 1e-15
    assert chordal(1.0, 1.0) == 0.0
    # symmetric, and huge finite points sit close to Infinity
    assert chordal(1e9, INF) < 1e-8
    assert abs(chordal(0.3 + 0.1j, 2.0) - chordal(2.0, 0.3 + 0.1j)) < 1e-16


# ----------------------------------------------------------------------
# the homogeneous Horner kernel against the loops it replaced
# ----------------------------------------------------------------------


def _fused_eval_hom_loop(nf, df, X, Y):
    # F and G sharing one power of Y, as RationalMap.eval_hom once did
    d = len(nf) - 1
    accF = np.full_like(X, nf[d])
    accG = np.full_like(X, df[d])
    Yp = np.ones_like(Y)
    for i in range(d - 1, -1, -1):
        Yp = Yp * Y
        accF = accF * X + nf[i] * Yp
        accG = accG * X + df[i] * Yp
    return accF, accG


def _hom_and_partials_loop(coeffs, X, Y):
    # value, d/dX, d/dY, as the implicit period ratio once did
    d = len(coeffs) - 1
    val = np.full_like(X, coeffs[d])
    vx = np.full_like(X, d * coeffs[d])
    vy = np.zeros_like(X)
    Yp = np.ones_like(Y)
    for i in range(d - 1, -1, -1):
        Yp_next = Yp * Y
        val = val * X + coeffs[i] * Yp_next
        if i > 0:
            vx = vx * X + i * coeffs[i] * Yp_next
        vy = vy * X + (d - i) * coeffs[i] * Yp
        Yp = Yp_next
    return val, vx, vy


def _scalar_hom_loop(coeffs, X, Y, one_coeff=lambda c: c):
    # the exact-scalar loop (Qi and residue fields): Y^1 = Y, no 1 * Y
    d = len(coeffs) - 1
    acc = one_coeff(coeffs[d])
    Yp = None
    for i in range(d - 1, -1, -1):
        Yp = Y if Yp is None else Yp * Y
        acc = acc * X + Yp * coeffs[i]
    return acc


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_hom_eval_is_bitwise_the_replaced_float_loops(d):
    rng = np.random.default_rng(100 + d)
    m = 1000
    X = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    Y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    X[:20], Y[:20] = 1.0, 0.0  # Infinity
    X[20:40] = 0.0  # the origin, up to scale
    signed = [0.0, -0.0, 0.5, -0.5]
    pairs = [complex(a, b) for a in signed for b in signed]
    X[40 : 40 + len(pairs)] = pairs
    Y[60 : 60 + len(pairs)] = pairs
    X, Y = normalize_xy(X, Y)
    # overflowed orbits reach the period ratio as inf/nan (errors ignored)
    X[80:84] = [np.inf, complex(np.inf, 1.0), np.nan, 0.5]
    Y[80:84] = [1.0, 0.5, 1.0, complex(np.inf, 0.0)]
    nf = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    df = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    nf[1], df[0] = 0.0, complex(-0.0, -0.0)  # exact and signed zero coefficients
    # a real map on real points: every imaginary part is a signed zero
    rf = rng.standard_normal(d + 1) + 0j
    Xr, Yr = X.real + 0j, Y.real + 0j
    Xr.imag = np.where(rng.random(m) < 0.5, -0.0, 0.0)
    Yr.imag = np.where(rng.random(m) < 0.5, -0.0, 0.0)
    with np.errstate(all="ignore"):
        _compare_float_loops(((nf, df), (X, Y)), ((rf, nf), (Xr, Yr)))


def _compare_float_loops(*cases):
    for (a, b), (U, V) in cases:
        F, G = _fused_eval_hom_loop(a, b, U, V)
        assert np.array_equal(_bits(hom_eval(a, U, V)), _bits(F))
        assert np.array_equal(_bits(hom_eval(b, U, V)), _bits(G))
        for coeffs in (a, b):
            got = hom_eval(coeffs, U, V, partials=True)
            want = _hom_and_partials_loop(coeffs, U, V)
            for g, w in zip(got, want):
                assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_hom_eval_matches_the_replaced_exact_loops(d):
    rng = np.random.default_rng(200 + d)

    def rand_qi():
        return Qi(
            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))),
            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))),
        )

    points = [(rand_qi(), rand_qi()) for _ in range(20)]
    points += [(Qi(1), Qi(0)), (Qi(0), Qi(1))]
    for _ in range(5):
        coeffs = [rand_qi() for _ in range(d + 1)]
        coeffs[1] = Qi(0)
        for X, Y in points:
            val, vx, vy = hom_eval(coeffs, X, Y, partials=True)
            assert val == _scalar_hom_loop(coeffs, X, Y)
            assert hom_eval(coeffs, X, Y) == val
            # Euler's identity for a form of degree d
            assert X * vx + Y * vy == d * val
    # Q[z]/(z^3 - z - 1): X = z, Y = 1 - z, Fraction coefficients
    fld = ResidueField([-1, -1, 0, 1])
    X, Y = fld.gen(), fld.elt([1, -1])
    for _ in range(5):
        coeffs = [
            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
            for _ in range(d + 1)
        ]
        want = _scalar_hom_loop(coeffs, X, Y, one_coeff=lambda c: fld.elt([c]))
        assert hom_eval(coeffs, X, Y) == want


def _peval(p, x):
    acc = 0
    for c in reversed(pstrip(p)):
        acc = acc * x + c
    return acc


def _cached_chart_step(f, u, in_z, out_z, exact):
    # the chart step that chart_step replaced: dehomogenized chart
    # polynomials (reversed for the w chart), their derivatives by pderiv,
    # each evaluated by its own Horner loop
    d = f.degree
    if exact:
        num, den = ppad(f.num, d + 1, Qi(0)), ppad(f.den, d + 1, Qi(0))
    else:
        num, den = list(f._nf), list(f._df)
    if not in_z:
        num, den = num[::-1], den[::-1]
    P, Q = pstrip(num), pstrip(den)
    Pu, Qu = _peval(P, u), _peval(Q, u)
    dPu, dQu = _peval(pderiv(P), u), _peval(pderiv(Q), u)
    if out_z:
        return Pu / Qu, (dPu * Qu - Pu * dQu) / (Qu * Qu)
    return Qu / Pu, (dQu * Pu - Qu * dPu) / (Pu * Pu)


def _outcome(step, *args):
    try:
        with np.errstate(all="ignore"):
            return step(*args)
    except ZeroDivisionError as exc:  # exact steps onto a pole
        return type(exc)


CHART_MAPS = {
    "lattes": flexible_lattes(LattesSpec(-1, 0, 2)),
    "z^2-1": BASILICA,
    "1/(z^2-1)": build_map([1], [-1, 0, 1]),  # 0 -> -1 -> inf -> 0
    "(z^3+1)/z^2": build_map([1, 0, 0, 1], [0, 0, 1]),
    "float": build_map([0.1 + 0.2j, 0, 1], [1]),
}


@pytest.mark.parametrize("name", list(CHART_MAPS))
def test_chart_step_is_bitwise_the_cached_chart_polynomials(name):
    f = CHART_MAPS[name]
    rng = np.random.default_rng(7)
    disk = np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
    floats = [0j, -0j, 1, -1, 1j, -1j, 0.6 + 0.8j, -0.8 - 0.6j, *disk]
    floats = [complex(u) for u in floats]
    exact = [Qi(0), Qi(1), Qi(-1), Qi(0, 1), Qi(0, -1),
             Qi(Fraction(3, 5), Fraction(4, 5)), Qi(Fraction(-4, 5), Fraction(-3, 5))]
    exact += [Qi(Fraction(int(a), 7), Fraction(int(b), 7))
              for a, b in rng.integers(-4, 5, size=(20, 2))]
    cases = [(u, False) for u in floats]
    if f.exact:
        cases += [(u, True) for u in exact]
    for u, is_exact in cases:
        for in_z in (True, False):
            for out_z in (True, False):
                args = (f, u, in_z, out_z, is_exact)
                got, want = _outcome(chart_step, *args), _outcome(_cached_chart_step, *args)
                if is_exact or isinstance(want, type):
                    assert got == want
                    continue
                for g, w in zip(got, want):
                    assert _bits(np.array([g], dtype=complex)).tolist() == _bits(
                        np.array([w], dtype=complex)).tolist()
