"""Rational roots by one small prime and Hensel lifting, and the factoring
of multiplier polynomials built on them.

``factor_spectrum`` peels the rational roots off each squarefree part and
hands only cofactors of degree >= 4 to sympy, so the differential test
below compares both against sympy's ``factor_list`` on integer products
with non-monic leads, zero roots, roots beyond 2^53 and 300-bit
coefficients.
"""

import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, ZZ

import ratdyn
from ratdyn import factor_spectrum
from ratdyn.polys import pmul, poly_to_str, rational_roots

BIG = 2**300


def _sympy_poly(p):
    return Poly(list(reversed(p)), Symbol("z"), domain=ZZ)


def _sympy_factors(p):
    """sympy's monic irreducible factors of an integer polynomial, sorted
    as ``factor_spectrum`` sorts them."""
    _, pairs = _sympy_poly(p).factor_list()
    out = []
    for fac, m in pairs:
        q = [int(c) for c in reversed(fac.all_coeffs())]
        out.append((tuple(Fraction(c, q[-1]) for c in q), m))
    return sorted(out, key=lambda km: (len(km[0]), km[0]))


def test_rational_roots_examples():
    assert rational_roots([-3, 2]) == [Fraction(3, 2)]
    assert rational_roots([0, 1]) == [0]
    # 1 and 4 meet mod 3: the prime search must pass over 3
    assert rational_roots([4, -5, 1]) == [1, 4]
    # roots beyond 2^53, one with denominator 3 dividing the lead
    big = 2**60 + 1
    assert rational_roots(pmul([-big, 1], [2**61, 3])) == [Fraction(-(2**61), 3), big]
    assert rational_roots([1, 0, 1]) == []
    assert rational_roots([-2, 0, 0, 1]) == []


def test_factor_spectrum_splits_a_non_squarefree_input_with_content():
    # 6 (2λ-3) λ^2 (λ^2+1)^3, given with rational coefficients
    p = pmul(pmul([-3, 2], [0, 0, 1]), pmul(pmul([1, 0, 1], [1, 0, 1]), [1, 0, 1]))
    fl = factor_spectrum([Fraction(6 * c, 5) for c in p])
    assert [(poly_to_str(list(q), "λ"), m) for q, m in fl] == [
        ("λ-3/2", 1),
        ("λ", 2),
        ("λ^2+1", 3),
    ]
    assert fl == _sympy_factors(p)


_coeff = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))


@st.composite
def _linear(draw):
    """b z - a: zero, small and beyond-2^53 roots, leads up to 2^64."""
    a = draw(st.one_of(st.just(0), st.integers(-9, 9), st.integers(-BIG, BIG)))
    b = draw(st.one_of(st.integers(1, 6), st.integers(1, 2**64)))
    return [-a, b]


@st.composite
def _factor(draw):
    deg = draw(st.integers(1, 5))
    if deg == 1 or draw(st.booleans()):
        return draw(_linear())
    return draw(st.lists(_coeff, min_size=deg, max_size=deg)) + [
        draw(st.one_of(st.integers(1, 9), st.integers(1, BIG)))
    ]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_factor(), st.integers(1, 2)), min_size=1, max_size=4),
    st.integers(-BIG, BIG).filter(bool),
)
def test_rational_roots_and_factor_spectrum_match_sympy(factors, content):
    p = [content]
    for fac, mult in factors:
        for _ in range(mult):
            p = pmul(p, fac)
    want = _sympy_factors(p)
    assert factor_spectrum(p) == want
    sqf = _sympy_poly(p).sqf_part()
    roots = sorted(-q[0] for q, _m in want if len(q) == 2)
    assert rational_roots([int(c) for c in reversed(sqf.all_coeffs())]) == roots


def test_exceptional_spectra_do_not_import_sympy():
    # the bench's warm-up and its four spectra_exceptional maps at their
    # periods: every multiplier factor is linear, so no sympy
    code = (
        "import io, sys\n"
        "import ratdyn.cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "argv = ['spectrum', '--map', 'z^2-1', '--max-period', '2']\n"
        "assert ratdyn.cli.run(argv, out=out, err=err) == 0, err.getvalue()\n"
        "maps = [(ratdyn.power_map(3, -1), 5), (ratdyn.chebyshev_map(3, 1), 5),\n"
        "        (ratdyn.chebyshev_map(4, -1), 4),\n"
        "        (ratdyn.flexible_lattes(ratdyn.LattesSpec(-1, 0, 2)), 3)]\n"
        "for f, n in maps:\n"
        "    ratdyn.algebraic_spectrum(f, n, cap=2000)\n"
        "print('sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ratdyn.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
