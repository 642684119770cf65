"""The holomorphic index formula as an exact oracle for the spectra.

For a rational map g of degree >= 2 with no fixed point of multiplier 1,
the sum over its fixed points of 1/(1 - g'(z)) is 1 (Milnor, *Dynamics in
One Complex Variable*, 3rd ed., Thm 12.4).  The fixed points of f^n are
the points of exact period k | n, and one with cycle multiplier lambda has
multiplier lambda^(n/k) under f^n.  So the exact factors of
``multiplier_factors`` at every k | n, each root counted once per point
behind it, must give

    I_n = sum_(k | n) sum_((q, m)) m * Tr_(Q[x]/(q)) 1/(1 - x^(n/k)) = 1.

A lost or extra point, a wrong multiplicity or a wrong factor moves I_n.
A pair with gcd(q, 1 - x^(n/k)) != 1 has a multiplier that is an
(n/k)-th root of unity, where the formula's hypothesis fails: it is
skipped and counted.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ratdyn.cli import parse_map
from ratdyn.errors import RatdynError
from ratdyn.exceptional import LattesSpec, flexible_lattes
from ratdyn.spectra import multiplier_factors
from ratdyn.sphere import build_map

X = sympy.Symbol("x")


def _trace(y, q):
    """Tr of the class of `y` in Q[x]/(q): the trace of multiplication by
    y on the basis 1, x, ..., x^(deg q - 1)."""
    return sum((y * sympy.Poly(X**j, X)).rem(q).coeff_monomial(X**j) for j in range(q.degree()))


def index_sum(f, n):
    """(I_n, number of skipped (q, m) pairs) from the exact spectra of f."""
    total, skipped = sympy.Rational(0), 0
    for k in sympy.divisors(n):
        h = sympy.Poly(1 - X ** (n // k), X, domain="QQ")
        for q, m in multiplier_factors(f, k).factors:
            q = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(q)],
                           X, domain="QQ")
            if sympy.gcd(q, h).degree() > 0:
                skipped += 1
                continue
            total += m * _trace(sympy.invert(h, q), q)
    return total, skipped


@pytest.mark.parametrize(
    "f, periods",
    [
        (parse_map("z^2-1"), 4),
        (parse_map("(z^2-2)/(z^2+3)"), 4),
        (parse_map("(2+5*z^3)/(3*z+z^2)"), 3),
        (parse_map("1/(z^2-1)"), 3),
        (parse_map("z^3-2*z+1"), 3),
        (flexible_lattes(LattesSpec(Fraction(-1), Fraction(0), 2)), 3),
        (parse_map("(3+z+2*z^2-4*z^3)/(1-z+4*z^2-4*z^3)"), 3),
    ],
    ids=["z^2-1", "(z^2-2)/(z^2+3)", "(2+5z^3)/(3z+z^2)", "1/(z^2-1)", "z^3-2z+1",
         "lattes(-1,0,2)", "cubic"],
)
def test_the_spectra_satisfy_the_holomorphic_index_formula(f, periods):
    for n in range(1, periods + 1):
        assert index_sum(f, n) == (1, 0), n


def test_a_parabolic_fixed_point_is_skipped():
    # z^2 + 1/4 has the double fixed point 1/2 with multiplier 1 and the
    # superattracting fixed point Infinity, whose term 1/(1 - 0) is all
    # that is left
    assert index_sum(parse_map("z^2+1/4"), 1) == (1, 1)


COEFFS = st.lists(st.integers(-3, 3), min_size=3, max_size=4)
# the skipped pairs measured over the maps drawn below (derandomized)
MAX_SKIPPED = 35


def test_random_integer_maps_satisfy_the_holomorphic_index_formula():
    # degree 2 at periods 1..3 and degree 3 at periods 1..2; a pair with a
    # root-of-unity multiplier is skipped and counted, every other (f, n)
    # gives I_n = 1 exactly
    maps, skipped = set(), []

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(COEFFS, COEFFS)
    def check(num, den):
        try:
            f = build_map(num, den)
        except RatdynError:
            assume(False)
        maps.add((tuple(num), tuple(den)))
        for n in range(1, {2: 4, 3: 3}[f.degree]):
            total, skips = index_sum(f, n)
            assert skips or total == 1, (num, den, n)
            skipped.append(skips)

    check()
    assert len(maps) >= 200
    assert sum(skipped) <= MAX_SKIPPED
