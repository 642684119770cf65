"""The certificate of the minimal polynomial runs on lambda as one element.

Unless the orbit's Y_n^2 is a scalar, ``spectra.minimal_polynomial`` lifts
lambda itself, in the z-basis of Q[z]/(q), next to mu, proves the lift
alpha^/E equal to num/den by one exact product and certifies mu on
(alpha^, E).  The reference is ``certificate_reference.py``: the
certificate on the projective pair (num, den), as the route ran before.
"""

from fractions import Fraction

import pytest

from ratdyn import build_map, spectra
from ratdyn.errors import RatdynError
from ratdyn.exceptional import LattesSpec, flexible_lattes
from ratdyn.periodic import dynatomic_numerator
from ratdyn.polys import FpModulus, fp_array, squarefree_decomposition
from ratdyn.spectra import ResidueField, minimal_polynomial, multiplier_element

import certificate_reference as ref

RATIONAL = build_map([-2, 0, 1], [3, 0, 1])  # (z^2-2)/(z^2+3)
# non-monic maps with cycles through poles and Infinity, and the periods
# at which the pair certificate still takes well under a second
NON_MONIC = (
    ("(z^2-2)/(z^2+3)", RATIONAL, 5),
    ("1/(z^2-1)", build_map([1], [-1, 0, 1]), 5),
    ("(2+5z^3)/(3z+z^2)", build_map([2, 0, 0, 5], [0, 3, 1]), 3),
    ("(3+z+2z^2-4z^3)/(1-z+4z^2-4z^3)", build_map([3, 1, 2, -4], [1, -1, 4, -4]), 3),
    ("z(z+3)/(2z+1)", build_map([0, 3, 1], [1, 2]), 5),
    ("lattes(-1,0,2)", flexible_lattes(LattesSpec(-1, 0, 2)), 3),
)


def _recording(into, fn, lifted):
    def run(num, den):
        lifted.append(any(den.c[1:]))
        into.append(fn(num, den))
        return into[-1]

    return run


@pytest.mark.parametrize("name, f, top", NON_MONIC, ids=[n for n, _, _ in NON_MONIC])
def test_the_lambda_lift_matches_the_pair_certificate(monkeypatch, name, f, top):
    new, lifted = spectra.minimal_polynomial, []
    for n in range(1, top + 1):
        got, want = [], []
        monkeypatch.setattr(spectra, "minimal_polynomial", _recording(got, new, lifted))
        pf = spectra.multiplier_factors(f, n, cap=2000)
        monkeypatch.setattr(spectra, "minimal_polynomial", _recording(want, ref.minimal_polynomial, []))
        pf_ref = spectra.multiplier_factors(f, n, cap=2000)
        monkeypatch.setattr(spectra, "minimal_polynomial", new)
        assert got == want, (name, n)
        assert (pf.factors, pf.routes) == (pf_ref.factors, pf_ref.routes), (name, n)
    # Y_n^2 is no scalar on these maps, so lambda itself was lifted
    assert any(lifted)


def test_a_lift_that_is_not_lambda_is_refused(monkeypatch):
    # lambda = w = (2 + w)/(1 + w) in Z[w]/(w^2 - 2).  Feeding the images
    # of w + 1 in place of lambda's lifts alpha = w + 1 and mu = x^2 - 2x -
    # 1, which vanishes at alpha: only the product alpha^ den = E num
    # refuses them, and the lift, stable at every prime, ends in an error
    # rather than a wrong mu.
    fld = ResidueField([-2, 0, 1])
    num, den = fld.elt([2, 1]), fld.elt([1, 1])
    assert minimal_polynomial(num, den) == [Fraction(-2), Fraction(0), Fraction(1)]
    monkeypatch.setattr(
        spectra, "_lambda_mod", lambda num_, den_, p: (FpModulus(num_.field.mod, p), fp_array([1, 1], p))
    )
    with pytest.raises(RatdynError, match="failed its certificate"):
        minimal_polynomial(num, den)


# ----------------------------------------------------------------------
# deterministic guards: operand sizes and prime counts, no timing
# ----------------------------------------------------------------------


def test_the_certificate_runs_on_one_element_over_an_int(monkeypatch):
    # (z^2-2)/(z^2+3) at period 5: the pair certificate ran on num and den
    # of 1,876 and 1,869 bits; lambda in the z-basis needs under half
    seen = []
    real = spectra._certified

    def spy(mu, degree, num, den):
        seen.append((num, den))
        return real(mu, degree, num, den)

    monkeypatch.setattr(spectra, "_certified", spy)
    spectra.multiplier_factors(RATIONAL, 5, cap=2000)
    assert seen and all(type(E) is int for _alpha, E in seen)
    assert max(max(abs(c) for c in alpha.c).bit_length() for alpha, _E in seen) <= 1876 // 2
    assert max(abs(E).bit_length() for _alpha, E in seen) <= 1869 // 2


@pytest.mark.parametrize(
    "f, n",
    [(build_map([-1, 0, 1], [1]), 7), (build_map([1, -2, 0, 1], [1]), 4)],
    ids=["z^2-1@7", "z^3-2z+1@4"],
)
def test_an_integer_mu_is_lifted_to_the_integer_bound_only(monkeypatch, f, n):
    # mu has integer coefficients on polynomial maps: stable residues are
    # the candidate, where Wang's reconstruction needed twice the bits
    # (11 primes on each of these)
    real = spectra._crt_extend
    for s, _k in squarefree_decomposition(dynatomic_numerator(f, n)):
        lifted = []

        def spy(G, M, h, p):
            lifted.append(p)
            return real(G, M, h, p)

        monkeypatch.setattr(spectra, "_crt_extend", spy)
        mu = minimal_polynomial(*multiplier_element(f, n, s))
        monkeypatch.setattr(spectra, "_crt_extend", real)
        assert all(c.denominator == 1 for c in mu)
        assert 0 < len(lifted) <= 8
