import math
from fractions import Fraction

import numpy as np
import pytest

from ratdyn import (
    NumberFieldSpec,
    algebraic_spectrum,
    build_map,
    factor_spectrum,
    integrality,
    membership,
    multiplier_polynomial,
    periodic,
)
from ratdyn.errors import RatdynError, SpectrumNotRational
from ratdyn.exceptional import chebyshev_map, power_map
from ratdyn.periodic import dynatomic_numerator, periodic_points
from ratdyn.polys import (
    fractions_to_int_primitive,
    pdeg,
    pmul,
    poly_to_str,
    pstrip,
    qi_poly_to_fractions,
)
from ratdyn.spectra import (
    ResidueField,
    _factor_in_field,
    _has_root_in,
    minimal_polynomial,
    multiplier_factors,
)

Z2 = build_map([0, 0, 1], [1])
BASILICA = build_map([-1, 0, 1], [1])


def fr(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


def fac_strs(pf):
    return sorted((poly_to_str(list(q), "λ"), m) for q, m in pf.factors)


def test_multiplier_polynomial_examples():
    assert fac_strs(multiplier_factors(Z2, 1)) == [("λ", 2), ("λ-2", 1)]
    assert fac_strs(multiplier_factors(Z2, 2)) == [("λ-4", 2)]
    assert fac_strs(multiplier_factors(BASILICA, 1)) == [
        ("λ", 1),
        ("λ^2-2λ-4", 1),
    ]


def _iresultant(a, b) -> int:
    """Res(a, b) of two integer polynomials (ascending), by sympy."""
    from sympy import ZZ, Poly, Symbol

    z = Symbol("z")
    return int(Poly(a[::-1], z, domain=ZZ).resultant(Poly(b[::-1], z, domain=ZZ)))


def _resultant_oracle(f, n):
    """Independent oracle: P_n(k) = Res_z(Phi_n(z), v(z) - k w(z)) at integer
    nodes k, recovered by Lagrange interpolation; uses sympy's resultant,
    not the production pipeline."""
    from ratdyn.periodic import compose_hom
    from ratdyn.polys import pderiv, psub

    dyn = qi_poly_to_fractions(dynatomic_numerator(f, n))
    dyn_i, _ = fractions_to_int_primitive(dyn)
    N, D = compose_hom(f, n)
    Nf, Df = qi_poly_to_fractions(N), qi_poly_to_fractions(D)
    # (f^n)' = v / w, not reduced: v = N'D - ND', w = D^2
    v = psub(pmul(pderiv(Nf), Df), pmul(Nf, pderiv(Df)))
    w = pmul(Df, Df)
    deg = pdeg(dyn_i)
    nodes = list(range(deg + 1))
    vals = []
    lead = dyn_i[-1]
    for k in nodes:
        shifted = psub(v, [Fraction(k) * c for c in w])
        si, ss = fractions_to_int_primitive(shifted)
        if not si:
            si, ss = [0], Fraction(1)
        res = Fraction(_iresultant(dyn_i, si))
        # undo the scalings: Res(dyn, s*q) = s^deg(dyn) Res(dyn, q), and the
        # resultant of the monic-normalized dynatomic differs by lead powers
        res = res * ss ** pdeg(dyn_i) / Fraction(lead) ** pdeg(si)
        vals.append(res)
    # Lagrange interpolation at 0..deg
    poly = [Fraction(0)]
    for i, yi in enumerate(vals):
        term = [Fraction(1)]
        denom = Fraction(1)
        for j in nodes:
            if j == i:
                continue
            term = pmul(term, [Fraction(-j), Fraction(1)])
            denom *= Fraction(i - j)
        poly = [
            a + yi * b / denom
            for a, b in zip(
                poly + [Fraction(0)] * (len(term) - len(poly)),
                term + [Fraction(0)] * (len(poly) - len(term)),
            )
        ]
    poly = pstrip(poly)
    lead2 = poly[-1]
    return [c / lead2 for c in poly]


@pytest.mark.parametrize(
    "f,n",
    [(Z2, 1), (Z2, 2), (BASILICA, 1), (BASILICA, 2), (chebyshev_map(2, 1), 1)],
)
def test_multiplier_polynomial_matches_resultant_oracle(f, n):
    got = multiplier_polynomial(f, n)
    # drop the appended Infinity-cycle root before comparing with the
    # finite-points-only resultant
    from ratdyn.periodic import infinity_exact_period
    from ratdyn.periodic import multiplier as cycle_mult

    q, orbit = infinity_exact_period(f, n)
    if q == n:
        lam = cycle_mult(f, orbit)
        from ratdyn.polys import pexactdiv

        got = pexactdiv(got, [-(lam.re), Fraction(1)])
    oracle = _resultant_oracle(f, n)
    assert pstrip(got) == pstrip(oracle)


def test_the_cubic_period_3_set_is_complete():
    # -2z^3+4z^2+2z-1 at period 3: np.roots leaves roots up to 5.5e-4 off,
    # and two Newton steps once left 4 (tol 1e-9) or 8 (tol 1e-12) of the 24
    # points failing the residual test
    f = build_map([-1, 2, 4, -2], [1])
    for tol in (1e-9, 1e-12):
        _pts, rep = periodic_points(f, 3, tol=tol)
        assert (rep.points_found, rep.expected, rep.unconverged, rep.notes) == (24, 24, 0, "")


def plant_shortfall(monkeypatch):
    """The explicit solver flings its 4 largest roots to 1000, far beyond what
    a few Newton steps mend; on -2z^3+4z^2+2z-1 at period 3 all 4 are
    period-3 points, so 4 of the 24 fail the residual test."""
    solve_poly = periodic.solve_poly

    def lossy(coeffs, **kw):
        roots = solve_poly(coeffs, **kw)
        roots[np.argsort(np.abs(roots))[-4:]] = 1000.0
        return roots

    monkeypatch.setattr(periodic, "solve_poly", lossy)


def test_a_numeric_shortfall_is_noted_and_the_spectrum_stays_exact(monkeypatch):
    # no start is left unconverged, so only the note tells how many points
    # are missing; the exact spectrum does not depend on the solve
    plant_shortfall(monkeypatch)
    f = build_map([-1, 2, 4, -2], [1])
    for tol in (1e-9, 1e-12):
        _pts, rep = periodic_points(f, 3, tol=tol)
        assert (rep.points_found, rep.expected, rep.unconverged) == (20, 24, 0)
        assert rep.notes == "4 of 24 points missing (4 solver roots failed the residual test)"
    assert multiplier_polynomial(f, 3) == _resultant_oracle(f, 3)


def test_factor_spectrum_examples():
    # lambda^2 (lambda - 2)
    fl = factor_spectrum([0, 0, -2, 1])  # λ^3 - 2λ^2 = λ^2(λ-2)
    assert sorted((poly_to_str(list(q), "λ"), m) for q, m in fl) == [
        ("λ", 2),
        ("λ-2", 1),
    ]
    fl = factor_spectrum([-4, -2, 1])
    assert [(poly_to_str(list(q), "λ"), m) for q, m in fl] == [("λ^2-2λ-4", 1)]
    fl = factor_spectrum([1, 0, 1])
    assert [(poly_to_str(list(q), "λ"), m) for q, m in fl] == [("λ^2+1", 1)]


def test_membership_examples():
    spec = algebraic_spectrum(Z2, 3)
    assert membership(spec, NumberFieldSpec.rationals()).all_in_field
    spec_b = algebraic_spectrum(BASILICA, 1)
    mv = membership(spec_b, NumberFieldSpec.rationals())
    assert not mv.all_in_field
    n, fac = mv.first_violation
    assert n == 1 and poly_to_str(list(fac), "λ") == "λ^2-2λ-4"
    assert membership(spec_b, NumberFieldSpec.quadratic(5)).all_in_field
    for D in (-1, -2, -3, -7, -11):
        assert not membership(spec_b, NumberFieldSpec.quadratic(D)).all_in_field


def test_membership_monotone_under_field_extension():
    spec = algebraic_spectrum(Z2, 3)
    assert membership(spec, NumberFieldSpec.rationals()).all_in_field
    for D in (5, -1, 7):
        assert membership(spec, NumberFieldSpec.quadratic(D)).all_in_field


def test_membership_general_field_heuristic_path():
    # the route for deg K >= 3 is exact: lambda^3 - 2 has the root cbrt(2)
    # in Q(cbrt(2)), and the verdict is a plain AllInK
    K = NumberFieldSpec([-2, 0, 0, 1])
    spec = algebraic_spectrum(Z2, 1)
    spec.periods[1] = spec.periods[1] + [((Fraction(-2), Fraction(0), Fraction(0), Fraction(1)), 1)]
    mv = membership(spec, K)
    assert mv.describe() == "AllInK"
    assert mv.all_in_field
    verdicts = {
        poly_to_str(list(q), "λ"): _factor_in_field(q, K)
        for q in (fr(-2, 0, 0, 1), fr(-4, 0, 0, 1), fr(-5, 0, 0, 1), fr(1, 1, 1))
    }
    assert {name: v.ok for name, v in verdicts.items()} == {
        "λ^3-2": True, "λ^3-4": True, "λ^3-5": False, "λ^2+λ+1": False,
    }
    assert verdicts["λ^2+λ+1"].reason == "degree does not divide field degree"
    assert verdicts["λ^3-5"].reason == "linear factor over K"
    K5 = NumberFieldSpec([-5, 0, 0, 1])
    mv2 = membership(spec, K5)
    assert not mv2.all_in_field


def test_quadratic_discriminant_path_agrees_with_factoring_over_k():
    # the two exact routes: disc/D square test, and a linear factor over K
    seen = set()
    for D in (-7, -3, -1, 2, 5):
        K = NumberFieldSpec.quadratic(D)
        for b in range(-6, 7):
            for c in range(-6, 7):
                disc = b * b - 4 * c
                if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                    continue  # reducible over Q: not a spectrum factor
                q = fr(c, b, 1)
                ok = _factor_in_field(q, K).ok
                assert ok == _has_root_in(q, K), (D, q)
                seen.add(ok)
    assert seen == {True, False}


def test_integrality_examples():
    spec3 = algebraic_spectrum(chebyshev_map(3, 1), 4)
    assert integrality(spec3).all_rational_integers
    spec3m = algebraic_spectrum(chebyshev_map(3, -1), 4)
    assert integrality(spec3m).all_rational_integers
    spec_b = algebraic_spectrum(BASILICA, 1)
    v = integrality(spec_b)
    assert v.all_algebraic_integers and not v.all_rational_integers


def test_power_and_chebyshev_always_integer_spectra():
    for f in (power_map(2, 1), power_map(3, -1), chebyshev_map(2, -1)):
        spec = algebraic_spectrum(f, 4)
        assert integrality(spec).all_rational_integers


def test_spectrum_requires_exact_rational_map():
    f = build_map([0, 0, 1j], [1])
    with pytest.raises((SpectrumNotRational, RatdynError)):
        multiplier_polynomial(f, 1)


def test_number_field_spec_construction():
    K = NumberFieldSpec.quadratic(5)
    assert K.degree == 2 and K.D == 5 and not K.imaginary_quadratic
    K = NumberFieldSpec.quadratic(-7)
    assert K.imaginary_quadratic and K.D == -7
    K = NumberFieldSpec.quadratic(8)  # reduced to squarefree part
    assert K.D == 2
    with pytest.raises(RatdynError):
        NumberFieldSpec([1, 0, 2])  # 2x^2 + 1 not monic
    with pytest.raises(RatdynError):
        NumberFieldSpec([-1, 0, 1])  # x^2 - 1 reducible


def test_lattes_exact_factor_structure():
    # flexible Lattès, multiplication by 2 on y^2 = x^3 - x: the cycle-level
    # spectra are (λ-4)(λ+2)^4 at period 1, (λ+4)^6 at period 2, and
    # (λ-8)^8 (λ+8)^12 at period 3 (torsion bookkeeping on the curve)
    from ratdyn.exceptional import LattesSpec, flexible_lattes

    lat = flexible_lattes(LattesSpec(-1, 0, 2))
    spec = algebraic_spectrum(lat, 3, cap=300)

    def coeffs(n):
        return sorted(
            (poly_to_str(list(q), "λ"), m) for q, m in spec.periods[n]
        )

    assert coeffs(1) == [("λ+2", 4), ("λ-4", 1)] or coeffs(1) == sorted(
        [("λ-4", 1), ("λ+2", 4)]
    )
    assert coeffs(2) == [("λ+4", 6)]
    assert coeffs(3) == sorted([("λ-8", 8), ("λ+8", 12)])


def test_minimal_polynomial_in_residue_field():
    fld = ResidueField([-2, 0, 1])  # z^2 - 2
    one, gen = fld.elt([1]), fld.gen()
    mu = minimal_polynomial(gen, one)
    assert mu == [Fraction(-2), Fraction(0), Fraction(1)]
    assert all(type(c) is Fraction for c in mu)
    assert minimal_polynomial(fld.elt([3]), one) == [Fraction(-3), Fraction(1)]
    # 1 + sqrt(2): minimal polynomial x^2 - 2x - 1
    elt = fld.elt([1, 1])
    assert minimal_polynomial(elt, one) == [Fraction(-1), Fraction(-2), Fraction(1)]
    # (1 + sqrt(2))/2 and sqrt(2)/(1 + sqrt(2)) = 2 - sqrt(2)
    assert minimal_polynomial(elt, fld.elt([2])) == [Fraction(-1, 4), Fraction(-1), Fraction(1)]
    assert minimal_polynomial(gen, elt) == [Fraction(2), Fraction(-4), Fraction(1)]


def test_degree_bookkeeping_invariant():
    for f in (Z2, BASILICA, chebyshev_map(2, 1)):
        for n in (1, 2, 3, 4):
            pf = multiplier_factors(f, n)
            got = sum(m * (len(q) - 1) for q, m in pf.factors)
            assert got == pf.point_count


def test_root_agreement_numeric_vs_exact():
    from ratdyn.periodic import cycles_of_period

    for n in (1, 2, 3):
        pf = multiplier_factors(BASILICA, n)
        exact_roots = []
        for q, m in pf.factors:
            rr = np.roots([float(c) for c in reversed(q)])
            exact_roots.extend(list(rr) * m)
        cycles, _ = cycles_of_period(BASILICA, n)
        numeric = []
        for c in cycles:
            numeric.extend([c.multiplier] * n)
        if any(p.is_infinity for cyc in cycles for p in cyc.points):
            pass
        assert len(numeric) == len(exact_roots)
        remaining = list(exact_roots)
        for lam in numeric:
            j = min(range(len(remaining)), key=lambda i: abs(remaining[i] - lam))
            assert abs(remaining[j] - lam) <= 1e-8 * (1 + abs(lam))
            remaining.pop(j)
