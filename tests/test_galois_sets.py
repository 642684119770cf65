"""Point counts from the certified residue rings agree with the reference
(``galois_reference``), which runs the multiplier orbit again in F_p[z]/(s):
the same number of points behind every factor of the minimal polynomial of
each squarefree part s of dyn."""

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
        _point_counts_agree(f, n)


def test_a_prime_where_the_counts_do_not_add_up_is_skipped(monkeypatch):
    # T3 at n = 1: multipliers -3 (at 0) and 9 (at +-2) meet mod 3, where
    # each gcd takes all three points; the next prime proves 1 and 2
    f = chebyshev_map(3)
    num, den = multiplier_element(f, 1, dynatomic_numerator(f, 1))
    primes = iter([3, 1_000_003])
    monkeypatch.setattr(spectra, "word_primes", lambda: primes)
    assert spectra._point_counts(num, den, [[3, 1], [-9, 1]]) == [1, 2]
