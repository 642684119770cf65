"""The integer exact core against test-only copies of the loops it replaced.

A rational map is scaled once to its primitive integer pair; composition,
dynatomic division and the residue orbits then run on ints through
``polys.hom_eval``.  The copies below are the composition loop over
Qi/complex and the hand-written residue loop of the per-cluster
certificate (now kept in ``two_route_reference.py``); the multiplier
element over ``Fraction`` coefficients is ``fraction_reference.py``.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ratdyn import build_map, periodic, spectra
from ratdyn.exceptional import (
    LattesSpec,
    chebyshev_map,
    cm_lattes_fixture,
    flexible_lattes,
    power_map,
)
from ratdyn.periodic import compose_hom, dynatomic_numerator
from ratdyn.polys import (
    fractions_to_int_primitive,
    ipmul,
    padd,
    pderiv,
    pexactdiv,
    pmul,
    ppad,
    pscale,
    pstrip,
    psub,
    qi_poly_to_fractions,
)
from ratdyn.roots import solve_poly
from ratdyn.scalars import Qi
from ratdyn.spectra import FieldElt, ResidueField, multiplier_element

import fraction_reference
import two_route_reference as two_route

RATIONAL_MAPS = {
    "(z^2-2)/(z^2+3)": (build_map([-2, 0, 1], [3, 0, 1]), 4),
    "lattes(-1,0,2)": (flexible_lattes(LattesSpec(-1, 0, 2)), 3),
    "z^2-1/3": (build_map([Fraction(-1, 3), 0, 1], [1]), 4),
    "T4": (chebyshev_map(4), 3),
}


# ----------------------------------------------------------------------
# test-only copies of the replaced loops
# ----------------------------------------------------------------------


def _old_compose_hom(f, n):
    # powers of D, then Horner in N, over Qi (exact maps) or complex
    d = f.degree
    if f.exact:
        A = ppad(f.num, d + 1, Qi(0))
        B = ppad(f.den, d + 1, Qi(0))
        N, D = pstrip(list(f.num)), pstrip(list(f.den))
    else:
        A = ppad([complex(c) for c in f.num], d + 1, 0j)
        B = ppad([complex(c) for c in f.den], d + 1, 0j)
        N, D = pstrip([complex(c) for c in f.num]), pstrip([complex(c) for c in f.den])
    one = Qi(1) if f.exact else 1.0 + 0j
    for _ in range(n - 1):
        Dp = [[one]]
        for _k in range(d):
            Dp.append(pmul(Dp[-1], D))
        accN = [A[d]]
        accD = [B[d]]
        for i in range(d - 1, -1, -1):
            accN = padd(pmul(accN, N), pscale(Dp[d - i], A[i]))
            accD = padd(pmul(accD, N), pscale(Dp[d - i], B[i]))
        N, D = pstrip(accN), pstrip(accD)
    return N, D


def _old_rational_pair(f):
    A = qi_poly_to_fractions(f.num)
    B = qi_poly_to_fractions(f.den)
    den = 1
    for c in list(A) + list(B):
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [int(c * den) for c in A], [int(c * den) for c in B]


def _old_imulmod(a, b, g):
    out = pmul(a, b)
    dg = len(g) - 1
    while len(out) - 1 >= dg:
        c = out[-1]
        if c:
            k = len(out) - 1 - dg
            for i in range(dg):
                out[k + i] -= c * g[i]
        out.pop()
        while out and not out[-1]:
            out.pop()
    return out


def _old_hom_eval_intmod(coeffs, X, Y, g):
    m = len(coeffs) - 1
    acc = [coeffs[m]] if coeffs[m] else []
    Yp = None
    for i in range(m - 1, -1, -1):
        Yp = list(Y) if Yp is None else _old_imulmod(Yp, Y, g)
        acc = _old_imulmod(acc, X, g)
        if coeffs[i]:
            acc = padd(acc, [coeffs[i] * t for t in Yp])
    return acc


def _old_certificate(f, n, g, c):
    Ai, Bi = _old_rational_pair(f)
    d = f.degree
    Apad, Bpad = ppad(Ai, d + 1), ppad(Bi, d + 1)
    W = ppad(psub(pmul(pderiv(Ai), Bi), pmul(Ai, pderiv(Bi))), 2 * d - 1)
    X, Y, acc = [0, 1], [1], [1]
    for _ in range(n):
        acc = _old_imulmod(acc, _old_hom_eval_intmod(W, X, Y, g), g)
        X, Y = _old_hom_eval_intmod(Apad, X, Y, g), _old_hom_eval_intmod(Bpad, X, Y, g)
    rhs = [c * t for t in _old_imulmod(Y, Y, g)]
    return not padd(acc, [-t for t in rhs])


def _fraction_pair(f):
    # f.num/f.den as Fractions instead of the integer pair
    d = f.degree
    A = ppad(qi_poly_to_fractions(f.num), d + 1, Fraction(0))
    B = ppad(qi_poly_to_fractions(f.den), d + 1, Fraction(0))
    return A, B


# ----------------------------------------------------------------------
# composition and dynatomic division over the integer pair
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(RATIONAL_MAPS))
def test_integer_composition_is_the_qi_loop_times_the_pair_scale(name):
    f, top = RATIONAL_MAPS[name]
    d = f.degree
    A, B = f.int_pair
    assert all(type(c) is int for c in A + B)
    assert np.gcd.reduce([abs(c) for c in A + B if c]) == 1
    assert [f.int_scale * Qi.coerce(c) for c in ppad(f.num, d + 1, 0)] == A
    for n in range(1, top + 1):
        N, D = compose_hom(f, n)
        assert all(type(c) is int for c in N + D)
        scale = f.int_scale ** ((d**n - 1) // (d - 1))
        oN, oD = _old_compose_hom(f, n)
        assert [scale * c for c in oN] == N
        assert [scale * c for c in oD] == D


@pytest.mark.parametrize("name", sorted(RATIONAL_MAPS))
def test_dynatomic_numerator_is_primitive_in_z(name):
    f, top = RATIONAL_MAPS[name]
    for n in range(1, top + 1):
        dyn = dynatomic_numerator(f, n)
        assert all(type(c) is int for c in dyn) and dyn[-1] > 0
        # the old route: Qi composition and Moebius division over Qi
        num, den = [Qi(1)], [Qi(1)]
        for k in range(1, n + 1):
            if n % k == 0:
                N, D = _old_compose_hom(f, k)
                phi = psub([Qi(0)] + D, N)
                mu = {1: 1, 2: -1, 3: -1, 4: 0}[n // k]
                if mu == 1:
                    num = pmul(num, phi)
                elif mu == -1:
                    den = pmul(den, phi)
        old = pexactdiv(num, den)
        assert fractions_to_int_primitive(qi_poly_to_fractions(old))[0] == dyn


@pytest.mark.parametrize("name", sorted(RATIONAL_MAPS))
def test_explicit_solve_sees_the_doubles_of_the_qi_loop(monkeypatch, name):
    # periodic_points divides the pair's scale back out before rounding
    f, _ = RATIONAL_MAPS[name]
    seen = []

    def spy(coeffs, seed=0):
        seen.append(coeffs)
        return solve_poly(coeffs, seed=seed)

    monkeypatch.setattr(periodic, "solve_poly", spy)
    for n in (1, 2):
        periodic.periodic_points(f, n)
        oN, oD = _old_compose_hom(f, n)
        want = [complex(c) for c in pstrip(psub([Qi(0)] + oD, oN))]
        assert np.array_equal(_bits(seen[-1]), _bits(want))


def _bits(p):
    return np.array(p, dtype=complex).view(np.uint64)


def _random_float_maps():
    rng = np.random.default_rng(7)
    maps = [cm_lattes_fixture()]
    while len(maps) < 61:
        k = len(maps)
        d = int(rng.integers(2, 5))
        degs = (d, int(rng.integers(0, d + 1)))[:: 1 if k % 2 else -1]
        real = k % 3 == 0  # real maps: every imaginary part is a signed zero
        num, den = (
            [complex(x) for x in rng.standard_normal(m + 1) + (0 if real else 1j) * rng.standard_normal(m + 1)]
            for m in degs
        )
        if k % 5 == 0 and len(num) > 1:
            num[0] = complex(-0.0, 0.0)  # an exact, signed zero coefficient
        maps.append(build_map(num, den, exact=False))
    return maps


def test_float_composition_is_bitwise_the_old_loop():
    for f in _random_float_maps():
        for n in (1, 2, 3):
            new, old = compose_hom(f, n), _old_compose_hom(f, n)
            for a, b in zip(new, old):
                assert np.array_equal(_bits(a), _bits(b))


def test_gaussian_map_composes_over_qi():
    f = build_map([Qi(0, 1), 0, 1], [1])  # z^2 + i
    assert f.exact and f.int_pair is None and f.int_scale is None
    for n in (1, 2, 3):
        assert compose_hom(f, n) == _old_compose_hom(f, n)


# ----------------------------------------------------------------------
# the certificate and the multiplier element share one orbit loop
# ----------------------------------------------------------------------


def _fast_path_clusters(monkeypatch, f, periods):
    calls = []
    real = two_route._certify_integer_multiplier

    def record(f_, n, g, c):
        calls.append((n, list(g), c))
        return real(f_, n, g, c)

    monkeypatch.setattr(two_route, "_certify_integer_multiplier", record)
    for n in periods:
        two_route.multiplier_factors(f, n, cap=2000)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "f, periods",
    [(chebyshev_map(4), (1, 2, 3, 4)), (power_map(3, -1), (1, 2, 3, 4))],
    ids=["T4", "z^-3"],
)
def test_certificate_agrees_with_the_old_residue_loop(monkeypatch, f, periods):
    clusters = _fast_path_clusters(monkeypatch, f, periods)
    assert len(clusters) >= len(periods)
    for n, g, c in clusters:
        new = two_route._certify_integer_multiplier(f, n, g, c)
        assert new is True and _old_certificate(f, n, g, c) is True
        assert two_route._certify_integer_multiplier(f, n, g, c + 1) is False
        assert _old_certificate(f, n, g, c + 1) is False


def test_certificate_orbit_stays_in_the_integers(monkeypatch):
    # the Lattes clusters are not monic: their orbits run in Z[w]/(g~) from
    # (w, lc g), still over int
    lattes = flexible_lattes(LattesSpec(-1, 0, 2))
    for f, periods, leads in ((chebyshev_map(4), (2, 3), [1] * 4),
                              (lattes, (1, 2, 3), [3, 5, 3, 7])):
        clusters = _fast_path_clusters(monkeypatch, f, periods)
        assert [g[-1] for _n, g, _c in clusters] == leads
        made = []
        init = FieldElt.__init__

        def spy(self, field, c):
            made.append(c)
            init(self, field, c)

        monkeypatch.setattr(FieldElt, "__init__", spy)
        for n, g, c in clusters:
            assert two_route._certify_integer_multiplier(f, n, g, c)
        monkeypatch.undo()
        assert made and all(type(x) is int for c in made for x in c)


def test_multiplier_element_is_scale_free():
    # the orbit of the integer pair in Z[w]/(q~) and that of f.num/f.den in
    # Q[z]/(q) (test-only, over Fraction) give the same multiplier lambda:
    # lambda = sum a_i z^i = sum (a_i / L^i) w^i for w = L z, and
    # lambda Y_n^2 = L^2 prod W in Z[w]/(q~)
    for name in ("(z^2-2)/(z^2+3)", "z^2-1/3", "lattes(-1,0,2)"):
        f, _ = RATIONAL_MAPS[name]
        for n in (1, 2):
            for q, _m in spectra.factor_int_poly(dynatomic_numerator(f, n))[1]:
                num, den = multiplier_element(f, n, q)
                lam = fraction_reference.multiplier_element(f, n, q, _fraction_pair(f))
                L = q[-1]
                wide = fraction_reference.FractionField(num.field.mod)
                lam_w = wide.elt([a / L**i for i, a in enumerate(lam.c)])
                assert wide.elt(num.c) == lam_w * wide.elt(den.c)


def test_every_modulus_is_monic_over_z_and_elements_stay_int():
    monic = ResidueField([-1, -1, 0, 1])  # z^3 - z - 1: already monic
    assert monic.mod == (-1, -1, 0, 1) and monic.lead == 1
    x = monic.gen()
    y = 3 * (x * x + x) * x + monic.elt([2])
    assert all(type(c) is int for c in y.c)
    assert y == monic.elt([5, 3, 3])  # 3 z^3 + 3 z^2 + 2 = 3 z^2 + 3 z + 5
    # 6 z^3 - 5 z^2 + 3: w = 6 z is a root of w^3 - 5 w^2 + 108
    q = [3, 0, -5, 6]
    fld = ResidueField(q)
    assert fld.mod == (108, 0, -5, 1) and fld.lead == 6
    w = fld.gen()
    assert all(type(c) is int for c in (w * w * w * w).c)
    assert w * w * w == fld.elt([-108, 0, 5])
    # every dynatomic factor of a non-monic map, and its orbit pair
    f, _ = RATIONAL_MAPS["(z^2-2)/(z^2+3)"]
    for n in (1, 2, 3):
        for q, _m in spectra.factor_int_poly(dynatomic_numerator(f, n))[1]:
            num, den = multiplier_element(f, n, q)
            assert num.field.mod[-1] == 1 and all(type(c) is int for c in num.field.mod)
            assert all(type(c) is int for c in num.c + den.c)



@pytest.mark.parametrize("la, lb", [(1, 40), (15, 15), (16, 16), (16, 200), (57, 31), (120, 90)])
def test_kronecker_product_is_the_schoolbook_product(la, lb):
    # signed coefficients of mixed sizes with zero runs, then every
    # coefficient at its bound, so that the middle of the product reaches
    # min(la, lb) * max|a| * max|b|: each slot must read back exactly
    rng = random.Random(la * 1000 + lb)
    for bits in (1, 30, 64, 700):
        top = 2**bits - 1
        a, b = ([rng.choice((0, 1, -1, top, -top, rng.randint(-top, top))) for _ in range(n - 1)]
                + [top] for n in (la, lb))
        assert ipmul(a, b) == pmul(a, b)
        assert ipmul([-c for c in a], b) == pmul([-c for c in a], b)
    for bits in range(1, 40):
        a, b = [2**bits - 1] * la, [1 - 2**bits] * lb
        assert ipmul(a, b) == pmul(a, b)
    assert ipmul([0] * 20, [1] * 20) == [] == pmul([0] * 20, [1] * 20)
