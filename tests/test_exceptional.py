import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ratdyn import (
    LattesSpec,
    MoebiusMap,
    Qi,
    SingularCurve,
    build_map,
    chebyshev_map,
    chebyshev_polynomial,
    chordal,
    classify,
    cm_lattes_fixture,
    conjugate,
    exceptional,
    flexible_lattes,
    orbifold_signature,
    power_map,
    spectra,
)
from ratdyn.exceptional import OrbifoldSignature
from ratdyn.polys import padd, pmul, pscale, pstrip
from ratdyn.spectra import PeriodFactors
from ratdyn.sphere import RationalMap, critical_points, postcritical_truncation


def cheb_identity_holds(d: int) -> bool:
    """T_d(z + 1/z) * z^d == z^(2d) + 1 exactly, in cleared-denominator form."""
    T = chebyshev_polynomial(d)
    # sum_k T[k] (z^2+1)^k z^(d-k)
    acc = []
    zz1 = [1, 0, 1]
    for k, c in enumerate(T):
        term = [1]
        for _ in range(k):
            term = pmul(term, zz1)
        term = pscale(term, c)
        term = [0] * (d - k) + list(term)
        acc = padd(acc, term)
    target = [1] + [0] * (2 * d - 1) + [1]
    return pstrip(acc) == pstrip(target)


def test_chebyshev_polynomial_examples():
    assert chebyshev_polynomial(2) == [-2, 0, 1]
    assert chebyshev_polynomial(3) == [0, -3, 0, 1]
    assert chebyshev_polynomial(4) == [2, 0, -4, 0, 1]


def test_chebyshev_identity_up_to_16():
    for d in range(1, 17):
        assert cheb_identity_holds(d)


def test_chebyshev_semigroup():
    # T_d(T_e(z)) by homogeneous substitution over Poly, as compose_hom
    # composes: X -> T_e(z), Y -> 1
    from ratdyn.polys import Poly
    from ratdyn.sphere import hom_eval

    for d in range(2, 7):
        for e in range(2, 7):
            if d * e > 36:
                continue
            lhs = hom_eval(chebyshev_polynomial(d), Poly(chebyshev_polynomial(e)), Poly([1]))
            assert pstrip(lhs.c) == pstrip(chebyshev_polynomial(d * e))


def test_power_map_examples():
    f = power_map(2, 1)
    assert f.degree == 2 and f.evaluate(3).z == Qi(9)
    g = power_map(3, -1)
    assert g.degree == 3 and g.evaluate(2).z == Qi(Fraction(1, 8))
    h = power_map(2, -1)
    assert h.degree == 2


# ---------------------------------------------------------------- curves


def _curve_add(P, Q, a):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if abs(x1 - x2) < 1e-13:
        if abs(y1 + y2) < 1e-12:
            return None
        s = (3 * x1 * x1 + a) / (2 * y1)
    else:
        s = (y2 - y1) / (x2 - x1)
    x3 = s * s - x1 - x2
    return (x3, s * (x1 - x3) - y1)


def _curve_mul(k, P, a):
    out = None
    acc = P
    while k:
        if k & 1:
            out = _curve_add(out, acc, a)
        acc = _curve_add(acc, acc, a)
        k >>= 1
    return out


def _random_curve_point(a, b, rng):
    x = complex(rng.normal(), rng.normal())
    y = cmath.sqrt(x**3 + a * x + b)
    return (x, y)


@pytest.mark.parametrize(
    "a,b,m",
    [(-1, 0, 2), (1, 1, 2), (-1, 0, 3), (2, 3, 2), (-1, 0, 4), (-1, 0, 5), (1, 1, 6)],
)
def test_lattes_semiconjugacy_oracle(a, b, m):
    f = flexible_lattes(LattesSpec(a, b, m))
    assert f.degree == m * m
    rng = np.random.default_rng(17)
    for _ in range(12):
        P = _random_curve_point(a, b, rng)
        mP = _curve_mul(m, P, a)
        fx = f.evaluate(P[0])
        if mP is None:
            assert fx.is_infinity or abs(fx.to_complex()) > 1e6
        else:
            assert chordal(fx, mP[0]) < 1e-9


def test_lattes_duplication_coefficients():
    f = flexible_lattes(LattesSpec(-1, 0, 2))
    # (z^2+1)^2 / (4 (z^3 - z)), normalized to a monic denominator
    num = [Qi(Fraction(1, 4)), Qi(0), Qi(Fraction(1, 2)), Qi(0), Qi(Fraction(1, 4))]
    den = [Qi(0), Qi(-1), Qi(0), Qi(1)]
    assert list(f.num) == num and list(f.den) == den
    g = flexible_lattes(LattesSpec(1, 1, 2))
    # ((z^2-1)^2 - 8z) / (4 (z^3 + z + 1))
    num2 = [Qi(Fraction(1, 4)), Qi(-2), Qi(Fraction(-1, 2)), Qi(0), Qi(Fraction(1, 4))]
    den2 = [Qi(1), Qi(1), Qi(0), Qi(1)]
    assert list(g.num) == num2 and list(g.den) == den2


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        flexible_lattes(LattesSpec(0, 0, 2))
    with pytest.raises(SingularCurve):
        flexible_lattes(LattesSpec(-3, 2, 2))  # 4(-27) + 27(4) = 0


def test_cm_fixture_semiconjugacy():
    # y^2 = x^3 - x carries (x, y) -> (-x, iy); adding it to P realizes the
    # degree-2 endomorphism whose x-coordinate map is the fixture
    f = cm_lattes_fixture()
    assert f.degree == 2 and not f.exact
    rng = np.random.default_rng(23)
    for _ in range(12):
        x, y = _random_curve_point(-1, 0, rng)
        iota = (-x, 1j * y)
        s = _curve_add((x, y), iota, -1)
        fx = f.evaluate(x)
        if s is None:
            assert fx.is_infinity
        else:
            assert chordal(fx, s[0]) < 1e-9


# ---------------------------------------------------------------- signatures


def sig_key(sig):
    return sig.key() if sig else None


def test_orbifold_signatures():
    assert sig_key(orbifold_signature(power_map(2, 1))) == (math.inf, math.inf)
    assert sig_key(orbifold_signature(chebyshev_map(2, 1))) == (2.0, 2.0, math.inf)
    assert sig_key(orbifold_signature(chebyshev_map(3, -1))) == (2.0, 2.0, math.inf)
    lat = flexible_lattes(LattesSpec(-1, 0, 2))
    assert sig_key(orbifold_signature(lat)) == (2.0, 2.0, 2.0, 2.0)
    assert orbifold_signature(build_map([1, 0, 1], [1])) is None  # not PCF


def test_classify_closure_on_families():
    for d in (2, 3, 4):
        for s in (1, -1):
            assert classify(power_map(d, s)).kind == "power"
            assert classify(chebyshev_map(d, s)).kind == "chebyshev"


def test_classify_signs():
    assert classify(power_map(2, 1)).sign == "+"
    assert classify(power_map(2, -1)).sign == "-"
    assert classify(chebyshev_map(3, 1)).sign == "+"
    assert classify(chebyshev_map(3, -1)).sign == "-"


def test_classify_computes_the_orbifold_weights_once(monkeypatch):
    calls = []
    real = exceptional._orbifold_weights

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(exceptional, "_orbifold_weights", spy)
    assert classify(power_map(2, -1)).sign == "-"
    assert classify(chebyshev_map(3, -1)).sign == "-"
    assert len(calls) == 2


def test_classify_lattes_and_rigid():
    lat = flexible_lattes(LattesSpec(-1, 0, 2))
    assert classify(lat, max_period=2).kind == "lattes-flexible"
    cm = cm_lattes_fixture()
    assert classify(cm, max_period=2).kind == "lattes-rigid"


def test_classify_not_exceptional_needs_exact_violation():
    res = classify(build_map([-1, 0, 1], [1]))
    assert res.kind == "not-exceptional"
    assert res.evidence["violation"]["period"] == 1
    assert res.evidence["violation"]["factor"] == "λ^2-2λ-4"


@pytest.mark.parametrize(
    "coeffs",
    [
        [0, Fraction(3, 10**20), 0, 1],
        [0, -3 + Fraction(1, 10**20), 0, 1],
        [0, Fraction(1, 10**30), 0, 0, 1],
    ],
    ids=["z^3+3e-20z", "T3+1e-20z", "z^4+1e-30z"],
)
def test_a_power_or_chebyshev_signature_does_not_override_the_exact_walk(coeffs):
    # the float signature of these maps is that of z^3, T3 or z^4, and their
    # critical points do not snap to Q(i), so only the walk tells them apart
    res = classify(build_map(coeffs, [1]))
    assert res.kind == "not-exceptional"
    assert res.evidence["violation"]["period"] == 1
    assert res.reason == "period-1 factor violates every candidate field"
    assert res.evidence["violation"]["why"] == "factor is not an algebraic integer"


def test_the_field_violation_names_non_integral_and_cubic_factors():
    # z^2/2 - 1/3 fixes two points with multipliers the roots of
    # λ^2 - 2λ - 2/3; z^3 - 2z + 1 has an irreducible cubic at period 1
    half = build_map([Fraction(-1, 3), 0, Fraction(1, 2)], [1])
    q = (Fraction(-2, 3), Fraction(-2), Fraction(1))
    assert exceptional._exact_field_violation(half, 1) == (
        (1, q, "factor is not an algebraic integer"), None)
    verdict = spectra.integrality(spectra.algebraic_spectrum(half, 1))
    assert verdict.first_violation == (1, q)
    assert verdict.describe() == "FirstViolation(period=1, factor=λ^2-2λ-2/3)"
    assert not verdict.all_algebraic_integers
    cubic = build_map([1, -2, 0, 1], [1])
    assert exceptional._exact_field_violation(cubic, 1) == (
        (1, (Fraction(71), Fraction(21), Fraction(-12), Fraction(1)),
         "irreducible factor of degree >= 3"), None)


def test_classify_stable_under_exact_conjugation():
    rng = np.random.default_rng(31)
    fixtures = [
        power_map(2, 1),
        chebyshev_map(3, 1),
        flexible_lattes(LattesSpec(-1, 0, 2)),
    ]
    for f in fixtures:
        base = classify(f, max_period=2).kind
        done = 0
        while done < 3:
            vals = rng.integers(-3, 4, size=4)
            try:
                phi = MoebiusMap(*(Qi(int(v)) for v in vals))
                g = conjugate(f, phi)
            except Exception:
                continue
            assert classify(g, max_period=2).kind == base
            done += 1


def test_classify_undetermined_without_exact_data():
    # a float map with no exact route and no recognizable signature within
    # depth stays undetermined rather than guessed
    f = build_map([0.1 + 0.2j, 0, 1], [1], exact=False)
    res = classify(f, max_period=2)
    assert res.kind in ("undetermined", "not-exceptional")


def _quadratic_factors(*quadratics):
    """multiplier_factors with one cycle-level factor λ^2 + c1 λ + c0 at
    each period."""

    def factors(f, n, cap=None, seed=0):
        c0, c1 = quadratics[n - 1]
        return PeriodFactors(n, [((Fraction(c0), Fraction(c1), Fraction(1)), n)], 2 * n)

    return factors


_C216 = (2**127 - 1) * (2**89 - 1)


@pytest.mark.parametrize(
    "quadratics, two_fields",
    [
        (((1, 1), (3, 0)), False),  # discriminants -3, -12: both Q(sqrt -3)
        (((1, 1), (1, 0)), True),  # -3 and -4: Q(sqrt -3) and Q(i)
        # about 216-bit discriminants, decided with no integer factoring
        (((_C216, 0), (4 * _C216, 0)), False),
        (((_C216, 0), ((2**127 - 1) * (2**107 - 1), 0)), True),
    ],
)
def test_the_field_violation_compares_discriminants_by_squares(
    monkeypatch, quadratics, two_fields
):
    monkeypatch.setattr(spectra, "multiplier_factors", _quadratic_factors(*quadratics))
    start = time.perf_counter()
    got = exceptional._exact_field_violation(power_map(2, 1), len(quadratics))
    assert time.perf_counter() - start < 0.1
    want = (2, (*quadratics[1], 1), "multipliers span two imaginary quadratic fields")
    assert got == ((want, None) if two_fields else (None, False))


@pytest.mark.parametrize(
    "coeffs, key",
    [([1, -2, 0, 1], None), ([-1, 0, 1], (math.inf, math.inf, math.inf))],
    ids=["z^3-2z+1", "z^2-1"],
)
def test_the_postcritical_scan_maps_each_point_once(monkeypatch, coeffs, key):
    # the frontier maps each critical orbit at most depth times, and the
    # closure test maps each point of the truncation once
    f, depth, calls = build_map(coeffs, [1]), 48, []
    real = RationalMap.evaluate_float

    def spy(self, p):
        calls.append(p)
        return real(self, p)

    monkeypatch.setattr(RationalMap, "evaluate_float", spy)
    trunc = postcritical_truncation(f, depth)
    assert len(calls) <= len(critical_points(f)) * depth + len(trunc.points)
    monkeypatch.undo()
    assert sig_key(orbifold_signature(f, depth)) == key


@pytest.mark.parametrize(
    "coeffs, max_period",
    [([1, -2, 0, 1], 6), ([-1, 0, 1], 8), ([-1, 0, 1], 9)],
    ids=["z^3-2z+1@6", "z^2-1@8", "z^2-1@9"],
)
def test_a_period_past_the_exact_cap_keeps_the_violation_below_it(coeffs, max_period):
    # 3^6 + 1 and 2^8 + 1 exceed the exact cap 256; both maps violate at
    # period 1
    res = classify(build_map(coeffs, [1]), max_period=max_period)
    assert res.kind == "not-exceptional"
    assert res.evidence["violation"]["period"] == 1


def test_the_field_violation_stops_at_the_first_violating_period(monkeypatch):
    # z^3 - 2z + 1 violates at period 1, so periods 2..5 are never factored
    calls = []
    real = spectra.multiplier_factors

    def spy(f, n, **kw):
        calls.append(n)
        return real(f, n, **kw)

    monkeypatch.setattr(spectra, "multiplier_factors", spy)
    res = classify(build_map([1, -2, 0, 1], [1]), max_period=6)
    assert res.evidence["violation"]["period"] == 1
    assert calls == [1]


# x([sqrt(-2)] P) on y^2 = x^3 + 4x^2 + 2x (Silverman, *Advanced Topics*,
# II.2.3.1): a degree-2 Lattès map over Q with multipliers in Z[sqrt(-2)]
SQRT_M2_LATTES = build_map([-2, -4, -1], [0, 2])


def test_the_walk_reads_the_lattes_split():
    flexible = flexible_lattes(LattesSpec(-1, 0, 2))
    assert exceptional._exact_field_violation(flexible, 2) == (None, True)
    assert exceptional._exact_field_violation(SQRT_M2_LATTES, 3) == (None, False)
    res = classify(flexible, max_period=2)
    assert (res.kind, res.evidence["integrality"]) == ("lattes-flexible", "AllRationalIntegers")
    res = classify(SQRT_M2_LATTES, max_period=3)
    assert (res.kind, res.evidence) == (
        "lattes-rigid", {"signature": "(2,2,2,2)", "integrality": "AllAlgebraicIntegers"})


def test_the_walk_has_no_evidence_past_the_cap_or_on_a_float_map():
    # degree 4: 4^2 + 1 = 17 fits the cap 20, 4^3 + 1 = 65 does not
    flexible = flexible_lattes(LattesSpec(-1, 0, 2))
    assert exceptional._exact_field_violation(flexible, 3, cap=20) == (None, None)
    assert exceptional._exact_field_violation(cm_lattes_fixture(), 1) == (None, None)
    res = classify(flexible, max_period=3, cap=20)
    assert res.evidence["spectra"].startswith("unavailable: ")
    assert "numeric-multipliers" in res.evidence


@pytest.mark.parametrize(
    "coeffs, why",
    [
        ([-1, 0, 1], "real quadratic multiplier"),
        ([1, -2, 0, 1], "irreducible factor of degree >= 3"),
        ([Fraction(-1, 3), 0, Fraction(1, 2)], "factor is not an algebraic integer"),
    ],
    ids=["z^2-1", "z^3-2z+1", "z^2/2-1/3"],
)
def test_a_lattes_signature_does_not_override_the_exact_walk(monkeypatch, coeffs, why):
    # with the signature forced to (2,2,2,2) the exact multipliers still
    # decide; a looser "all algebraic integers" rule once read the first two
    # as lattes-rigid and the third as undetermined
    monkeypatch.setattr(exceptional, "orbifold_signature",
                        lambda f, **kw: OrbifoldSignature(weights=(2, 2, 2, 2)))
    res = classify(build_map(coeffs, [1]), max_period=3)
    assert res.kind == "not-exceptional"
    assert (res.evidence["violation"]["period"], res.evidence["violation"]["why"]) == (1, why)
