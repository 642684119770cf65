"""Irreducibility over Q proven by factor degrees mod small primes, and the
generic spectra and quadratic fields that it keeps free of sympy.

``polys.proven_irreducible`` intersects the subset sums of the factor
degrees of p mod q over small good primes q; ``factor_spectrum`` hands
sympy only a cofactor of degree >= 4 that it leaves unproven.  The
differential test compares both with sympy's ``factor_list``.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, factorint
from test_rational_roots import _sympy_factors, _sympy_poly

import ratdyn
from ratdyn import factor_spectrum, spectra
from ratdyn.polys import _fq_factor_degrees, pmul, proven_irreducible
from ratdyn.spectra import _squarefree_part


def _fresh(code):
    """stdout of `code` run in a fresh interpreter on this ratdyn."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ratdyn.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


@pytest.mark.parametrize(
    "f,q,degrees",
    [
        ([1, 1, 1], 5, [2]),  # z^2 + z + 1 is irreducible mod 5
        ([4, 0, 1], 5, [1, 1]),  # (z - 1)(z + 1) mod 5
        ([1, 0, 0, 0, 0, 0, 0, 0, 1], 3, [4, 4]),  # z^8 + 1: 3 has order 4 mod 16
        ([2, 1, 0, 0, 0, 0, 1], 3, [6]),
    ],
)
def test_distinct_degree_examples(f, q, degrees):
    assert sorted(_fq_factor_degrees(f, q)) == degrees


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([3, 5, 7, 11]), st.lists(st.integers(0, 10), min_size=1, max_size=9))
def test_distinct_degrees_match_sympy_mod_q(q, tail):
    f = [c % q for c in tail] + [1]
    P = Poly(list(reversed(f)), Symbol("z"), modulus=q)
    if P.gcd(P.diff()).degree() > 0:
        return  # not squarefree mod q
    want = sorted(fac.degree() for fac, _ in P.factor_list()[1])
    assert sorted(_fq_factor_degrees(f, q)) == want


@st.composite
def _products(draw):
    """1-3 integer factors of degree 1-6 with leads up to 9; the second
    factor often repeats the first one's degree."""
    degrees = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    if len(degrees) > 1 and draw(st.booleans()):
        degrees[1] = degrees[0]
    p = [draw(st.sampled_from([-2, -1, 1, 3]))]
    for d in degrees:
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
        p = pmul(p, coeffs + [draw(st.integers(1, 9))])
    return p


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_products())
def test_proof_and_factor_spectrum_match_sympy(p):
    want = _sympy_factors(p)
    assert factor_spectrum(p) == want
    s = [int(c) for c in reversed(_sympy_poly(p).sqf_part().all_coeffs())]
    if proven_irreducible(s):
        assert len(_sympy_factors(s)) == 1


def test_reducible_inputs_that_fool_a_careless_prime_choice_stay_unproven():
    # (z^2 + 3)(z^2 + 12) is z^4 mod 3 and (2 + 2) mod 5: taking z^4 as
    # squarefree at q = 3 would leave {0, 1, 3, 4}, and q = 5 then {0, 4}
    assert not proven_irreducible(pmul([3, 0, 1], [12, 0, 1]))
    assert not proven_irreducible(pmul([1, 1, 1], [1, 0, 1]))


def test_a_lead_divisible_by_the_first_primes_is_passed_over():
    # 15 z^5 - z + 1 drops degree mod 3 and mod 5
    assert proven_irreducible([1, -1, 0, 0, 0, 15])
    assert proven_irreducible([1, 1, 0, 0, 6])


@pytest.mark.parametrize("p", [[1, 0, -10, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0, 1]])
def test_irreducible_polys_that_split_mod_every_prime_go_to_sympy(p, monkeypatch):
    # z^4 - 10 z^2 + 1 (the minimal polynomial of sqrt 2 + sqrt 3) and
    # z^8 + 1 have no irreducible factor of full degree mod any prime
    assert not proven_irreducible(p)
    calls = []

    def factor(s):
        calls.append(s)
        return ratdyn.polys.factor_int_poly(s)

    monkeypatch.setattr(spectra, "factor_int_poly", factor)
    assert factor_spectrum(p) == [(tuple(Fraction(c) for c in p), 1)]
    assert calls == [p]


def test_squarefree_part_matches_factorint():
    big = 1000003  # prime, big enough to leave the trial range as a cofactor
    cases = [
        2, -7, 12, 32, -50, 2 * 3**3 * 5**2, big, big**2 * 7, big * 1000033 * 4,
        -(big**2), 2**61 - 1, (2**31 - 1) * (2**61 - 1) * 9,
    ]
    for n in cases + list(range(-300, 0)) + list(range(1, 300)):
        want = (-1 if n < 0 else 1)
        for p, e in factorint(abs(n)).items():
            want *= p ** (e % 2)
        assert _squarefree_part(n) == want, n


def test_squarefree_part_past_the_trial_bound_keeps_the_square_class():
    # p^2 q with p, q > 2^16: trial division stops at 2^16 and leaves p^2 q,
    # which names the same field Q(sqrt q)
    p, q = 1000003, 1000033
    got = _squarefree_part(-(p * p) * q)
    assert got < 0 and -got % q == 0
    assert math.isqrt(-got // q) ** 2 == -got // q


def test_the_name_of_a_huge_quadratic_field_factors_nothing():
    # the report prints Q(sqrt(D)); sympy's factorint once took 19.4 s here
    out = _fresh(
        "import io, sys, time\n"
        "import ratdyn.cli\n"
        "argv = ['field-check', '--map', 'z^2-1', '--max-period', '1',\n"
        "        '--field', 'quad:' + str((2**127 - 1) * (2**89 - 1))]\n"
        "t = time.perf_counter()\n"
        "code = ratdyn.cli.run(argv, out=io.StringIO(), err=io.StringIO())\n"
        "print(code, time.perf_counter() - t < 2, 'sympy' in sys.modules)\n"
    )
    assert out == ["0", "True", "False"]


def test_a_huge_quadratic_field_factors_nothing():
    # sympy's factorint once spent 21.9 s on this D
    out = _fresh(
        "import sys, time\n"
        "import ratdyn\n"
        "spec = ratdyn.algebraic_spectrum(ratdyn.build_map([-1, 0, 1], [1]), 2)\n"
        "t = time.perf_counter()\n"
        "K = ratdyn.NumberFieldSpec.quadratic((2**127 - 1) * (2**89 - 1))\n"
        "verdict = ratdyn.membership(spec, K).describe()\n"
        "print(time.perf_counter() - t < 1, 'sympy' in sys.modules, verdict)\n"
    )
    assert out == ["True", "False", "FirstViolation(period=1,", "factor=λ^2-2λ-4)"]


def test_generic_spectra_and_quadratic_fields_do_not_import_sympy():
    # the calls of the bench's spectra_generic pass: every multiplier
    # factor of degree >= 4 there is proven irreducible
    out = _fresh(
        "import io, sys\n"
        "import ratdyn, ratdyn.cli\n"
        "fields = [ratdyn.NumberFieldSpec.rationals(), ratdyn.NumberFieldSpec.quadratic(5)]\n"
        "maps = [(ratdyn.build_map([-1, 0, 1], [1]), 7),\n"
        "        (ratdyn.build_map([-2, 0, 1], [3, 0, 1]), 5),\n"
        "        (ratdyn.build_map([1, -2, 0, 1], [1]), 4)]\n"
        "for f, n in maps:\n"
        "    spec = ratdyn.algebraic_spectrum(f, n, cap=2000)\n"
        "    print(*(ratdyn.membership(spec, K).all_in_field for K in fields))\n"
        "for f, _ in maps[::2]:\n"
        "    print(ratdyn.classify(f, max_period=3).kind)\n"
        "argv = ['field-check', '--map', '(z^2-2)/(z^2+3)', '--max-period', '5',\n"
        "        '--field', 'quad:5']\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "print(ratdyn.cli.run(argv, out=out, err=err), 'sympy' in sys.modules)\n"
    )
    assert out == ["False"] * 6 + ["not-exceptional"] * 2 + ["0", "False"]
