"""Galois sets and point counts from the certified residue rings agree with
the float-matching reference (``galois_reference``): the same sets, tags,
counts and numeric points, and the same points behind every factor of the
minimal polynomial of each squarefree part of dyn."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import galois_reference as ref
from ratdyn import (
    LattesSpec,
    build_map,
    chebyshev_map,
    factor_spectrum,
    flexible_lattes,
    galois_orbit_sets,
    power_map,
    spectra,
)
from ratdyn.errors import RatdynError
from ratdyn.periodic import dynatomic_numerator
from ratdyn.polys import fractions_to_int_primitive, pdeg, squarefree_decomposition
from ratdyn.spectra import minimal_polynomial, multiplier_element

FIXTURES = {
    # the bench's spectra maps
    "z^-3": (power_map(3, -1), 3),
    "T3": (chebyshev_map(3, 1), 3),
    "-T4": (chebyshev_map(4, -1), 3),
    "lattes(-1,0,2)": (flexible_lattes(LattesSpec(-1, 0, 2)), 3),
    "z^2-1": (build_map([-1, 0, 1], [1]), 5),
    "(z^2-2)/(z^2+3)": (build_map([-2, 0, 1], [3, 0, 1]), 5),
    "z^3-2z+1": (build_map([1, -2, 0, 1], [1]), 3),
    # signs, poles and Infinity cycles
    "z^2": (power_map(2, 1), 5),
    "z^-2": (power_map(2, -1), 5),
    "-T3": (chebyshev_map(3, -1), 3),
    "(1-z^2)/z^2": (build_map([1, 0, -1], [0, 0, 1]), 4),
}


def _sets(fn, f, n):
    return repr(fn(f, n))


def _point_counts_agree(f, n):
    dyn = dynatomic_numerator(f, n)
    for s, _k in squarefree_decomposition(dyn) if pdeg(dyn) >= 1 else []:
        num, den = multiplier_element(f, n, s)
        keys = factor_spectrum(minimal_polynomial(num, den))
        qs = [fractions_to_int_primitive(q)[0] for q, _m in keys]
        assert spectra._point_counts(num, den, qs) == ref.point_counts(f, n, s, qs)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sets_and_counts_match_the_reference_on_fixtures(name):
    f, top = FIXTURES[name]
    for n in range(1, top + 1):
        assert _sets(galois_orbit_sets, f, n) == _sets(ref.galois_orbit_sets, f, n)
        _point_counts_agree(f, n)


coefficient = st.integers(-4, 4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(coefficient, min_size=3, max_size=3), st.lists(coefficient, min_size=1, max_size=3))
def test_sets_and_counts_match_the_reference_on_quadratic_maps(num, den):
    try:
        f = build_map(num, den)
    except RatdynError:
        assume(False)
    assume(f.degree == 2)
    for n in (1, 2, 3):
        assert _sets(galois_orbit_sets, f, n) == _sets(ref.galois_orbit_sets, f, n)
        _point_counts_agree(f, n)


def test_a_cycle_through_two_factors_is_one_set():
    # z^2 - 1 swaps 0 and -1: dyn = z (z + 1) at n = 2
    (s,) = galois_orbit_sets(build_map([-1, 0, 1], [1]), 2)
    assert s.factor_tags == ["z", "z+1"]
    assert (s.point_count, s.cycle_count) == (2, 1)


def test_infinity_joins_the_set_of_its_cycle():
    # 1/z^2 swaps 0 and Infinity: the factor z has no successor (0 is a pole)
    (s,) = galois_orbit_sets(power_map(2, -1), 2)
    assert s.factor_tags == ["z", "(infinity)"]
    assert s.points[-1].is_infinity and s.points[0].z == 0
    # z^2 fixes Infinity alone
    sets = galois_orbit_sets(power_map(2, 1), 1)
    assert [t.factor_tags for t in sets] == [["z-1"], ["z"], ["(infinity cycle)"]]


def test_a_prime_where_the_counts_do_not_add_up_is_skipped(monkeypatch):
    # T3 at n = 1: multipliers -3 (at 0) and 9 (at +-2) meet mod 3, where
    # each gcd takes all three points; the next prime proves 1 and 2
    f = chebyshev_map(3)
    num, den = multiplier_element(f, 1, dynatomic_numerator(f, 1))
    primes = iter([3, 1_000_003])
    monkeypatch.setattr(spectra, "word_primes", lambda: primes)
    assert spectra._point_counts(num, den, [[3, 1], [-9, 1]]) == [1, 2]
