"""Exact spectra by one route: the minimal polynomial of the multiplier on
each squarefree part of the dynatomic polynomial, with points counted per
factor at one word prime.

The reference is ``two_route_reference.py``, the integer fast path plus the
generic route over factors in z that ratdyn used before; the two must agree
factor for factor.  The count step and the certificate are tested on the
cases that can make them go wrong: a prime where distinct multipliers meet,
and a minimal polynomial that lacks one of its factors.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ratdyn import build_map, periodic, spectra
from ratdyn.errors import DegenerateMap, DegreeTooLow, RatdynError
from ratdyn.exceptional import LattesSpec, chebyshev_map, flexible_lattes, power_map
from ratdyn.periodic import _fixed_points, dynatomic_numerator
from ratdyn.polys import isquarefree, squarefree_decomposition, word_primes
from ratdyn.spectra import ResidueField, multiplier_element

import two_route_reference as two_route

# the maps of bench/ with their top periods
BENCH = (
    ("z^2-1", build_map([-1, 0, 1], [1]), 7),
    ("(z^2-2)/(z^2+3)", build_map([-2, 0, 1], [3, 0, 1]), 5),
    ("z^3-2z+1", build_map([1, -2, 0, 1], [1]), 4),
    ("z^-3", power_map(3, -1), 5),
    ("T3", chebyshev_map(3, 1), 5),
    ("-T4", chebyshev_map(4, -1), 4),
    ("lattes(-1,0,2)", flexible_lattes(LattesSpec(-1, 0, 2)), 3),
)
# non-monic dynatomic polynomials, and cycles through Infinity and poles
OTHER = (
    ("lattes(0,1,2)", flexible_lattes(LattesSpec(0, 1, 2)), 3),
    ("lattes(-1,0,3)", flexible_lattes(LattesSpec(-1, 0, 3)), 2),
    # f(Infinity) = 1, f(1) = Infinity
    ("(3+z+2z^2-4z^3)/(1-z+4z^2-4z^3)", build_map([3, 1, 2, -4], [1, -1, 4, -4]), 3),
    # Infinity -> 0 -> -1 -> Infinity through the pole -1
    ("1/(z^2-1)", build_map([1], [-1, 0, 1]), 4),
    ("(z^2+1)/(2z)", build_map([1, 0, 1], [0, 2]), 4),
)


def _agree(f, n):
    got = spectra.multiplier_factors(f, n, cap=2000)
    want = two_route.multiplier_factors(f, n, cap=2000)
    assert got.factors == want.factors, n
    assert got.point_count == want.point_count
    assert sum(k for _q, k, _r in got.routes) == got.point_count
    return got


@pytest.mark.parametrize("name, f, top", BENCH + OTHER, ids=[c[0] for c in BENCH + OTHER])
def test_one_route_matches_the_two_route_reference(name, f, top):
    for n in range(1, top + 1):
        pf = _agree(f, n)
        assert {route for _q, _k, route in pf.routes} <= {"infinity", "algebra"}


_coeff = st.integers(-3, 3)


@st.composite
def _small_maps(draw):
    d = draw(st.integers(2, 3))
    num = draw(st.lists(_coeff, min_size=d + 1, max_size=d + 1))
    den = draw(st.lists(_coeff, min_size=1, max_size=d + 1))
    return num, den, draw(st.integers(1, 3))


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(_small_maps())
def test_one_route_matches_the_reference_on_random_integer_maps(case):
    num, den, n = case
    try:
        f = build_map(num, den)
        two_route.multiplier_factors(f, n)
    except (DegenerateMap, DegreeTooLow, RatdynError):
        assume(False)  # parabolic: the dynatomic division is not exact
    _agree(f, n)


@pytest.mark.parametrize(
    "f",
    # a double fixed point of multiplier 1 (0, resp. 1/2); Infinity has
    # multiplier 0
    [build_map([0, 1, 1], [1]), build_map([Fraction(1, 4), 0, 1], [1])],
    ids=["z(z+1)", "z^2+1/4"],
)
def test_parabolic_fixed_points_take_the_squarefree_parts(f):
    dyn = dynatomic_numerator(f, 1)
    assert not isquarefree(dyn)
    assert [k for _s, k in squarefree_decomposition(dyn)] == [2]
    one, zero = (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1))
    assert _agree(f, 1).factors == [(one, 2), (zero, 1)]


@pytest.mark.parametrize(
    "f, n, lam",
    [
        (build_map([2, 0, 0, 5], [0, 3, 1]), 1, Fraction(1, 5)),
        (build_map([3, 1, 2, -4], [1, -1, 4, -4]), 2, Fraction(-5, 4)),
        (build_map([1], [-1, 0, 1]), 3, Fraction(0)),
        (power_map(3, -1), 2, Fraction(0)),
        (flexible_lattes(LattesSpec(0, 1, 3)), 1, Fraction(9)),
    ],
    ids=["(2+5z^3)/(3z+z^2)", "(3+z+2z^2-4z^3)/(1-z+4z^2-4z^3)", "1/(z^2-1)", "z^-3", "lattes(0,1,3)"],
)
def test_the_infinity_route_is_the_cycle_multiplier(f, n, lam):
    # Infinity's multiplier from the orbit kernel on the swapped, reversed
    # pair, against the chart-step multiplier of its cycle
    period, orbit = periodic.infinity_exact_period(f, n)
    assert period == n
    want = periodic.multiplier(f, orbit)
    assert want.is_real() and want.re == lam
    (route,) = [(q, k) for q, k, r in spectra.multiplier_factors(f, n).routes if r == "infinity"]
    assert route == ((-want.re, Fraction(1)), 1)


def test_the_exact_side_needs_no_numerics(monkeypatch):
    # the numeric stage loses 4 of the 24 period-3 points of this map, which
    # sent all of dyn to factoring in z; now no numerics run at all
    f = build_map([-1, 2, 4, -2], [1])
    want = [two_route.multiplier_factors(f, n).factors for n in (1, 2, 3)]

    def refuse(*_args, **_kwargs):
        raise AssertionError("exact spectra ran the numeric solver")

    monkeypatch.setattr(periodic, "periodic_points", refuse)
    monkeypatch.setattr(periodic, "group_cycles", refuse)
    assert [spectra.multiplier_factors(f, n).factors for n in (1, 2, 3)] == want


# ----------------------------------------------------------------------
# the count step and the certificate
# ----------------------------------------------------------------------


def test_a_prime_that_over_counts_is_skipped(monkeypatch):
    # T3's fixed points 0 and +-2 have multipliers -3 and 9, equal mod 3:
    # there both gcds take all three roots, so the counts sum to 6, not 3
    f = chebyshev_map(3)
    gcds = []
    real_gcd = spectra.fp_gcd

    def gcd_spy(a, b, p):
        h = real_gcd(a, b, p)
        gcds.append((p, len(h) - 1))
        return h

    def primes():
        yield 3
        yield from word_primes()

    monkeypatch.setattr(spectra, "fp_gcd", gcd_spy)
    monkeypatch.setattr(spectra, "word_primes", primes)
    pf = spectra.multiplier_factors(f, 1)
    assert gcds[:2] == [(3, 3), (3, 3)]
    assert [k for _p, k in gcds[2:]] == [2, 1] and gcds[2][0] != 3
    assert pf.routes[1:] == [((Fraction(-9), Fraction(1)), 2, "algebra"),
                             ((Fraction(3), Fraction(1)), 1, "algebra")]
    assert pf.factors == two_route.multiplier_factors(f, 1).factors


def test_counts_that_never_add_up_raise(monkeypatch):
    f = chebyshev_map(3)
    s = dynatomic_numerator(f, 1)
    monkeypatch.setattr(spectra, "word_primes", lambda: itertools.repeat(3))
    with pytest.raises(RatdynError, match="over-counted"):
        spectra._point_counts(*multiplier_element(f, 1, s), [[3, 1], [-9, 1]])


def test_a_single_factor_takes_every_point_without_a_prime(monkeypatch):
    f = build_map([-1, 0, 1], [1])
    monkeypatch.setattr(spectra, "word_primes", lambda: iter(()))
    num, den = multiplier_element(f, 3, dynatomic_numerator(f, 3))
    assert spectra._point_counts(num, den, [[64, -8, 1]]) == [6]


def test_the_certificate_refuses_a_minimal_polynomial_missing_a_factor():
    # lambda = z on the reducible Q[z]/(z^2 - 1) has mu = (x - 1)(x + 1)
    fld = ResidueField([-1, 0, 1])
    num, den = fld.gen(), fld.elt([1])
    assert spectra._certified(([-1, 0, 1], 1), 2, num, den)
    assert not spectra._certified(([-1, 1], 1), 1, num, den)
    assert not spectra._certified(([1, 1], 1), 1, num, den)
    # T3 at period 1: dyn = z (z^2 - 4), mu = (x + 3)(x - 9)
    num, den = multiplier_element(chebyshev_map(3), 1, dynatomic_numerator(chebyshev_map(3), 1))
    assert spectra._certified(([-27, -6, 1], 1), 2, num, den)
    assert not spectra._certified(([3, 1], 1), 1, num, den)
    assert not spectra._certified(([-9, 1], 1), 1, num, den)
    assert spectra.minimal_polynomial(num, den) == [-27, -6, 1]


def test_fixed_points_read_their_tolerance():
    # Infinity is fixed up to 1e-10: a fixed point at tol 1e-9, not at 1e-12
    f = build_map([1.0, 0.0, 1.0], [1.0, 0.0, 1e-10])
    assert not any(p.is_infinity for p in _fixed_points(f))
    assert any(p.is_infinity for p in _fixed_points(f, tol=1e-9))
