"""The certificate of the minimal polynomial runs on lambda as one element.

Unless the orbit's Y_n^2 is a scalar, ``spectra.minimal_polynomial`` lifts
lambda itself, in the z-basis of Q[z]/(q), next to mu, proves the lift
alpha^/E equal to num/den by one exact product and certifies mu on
(alpha^, E).  The reference is ``certificate_reference.py``: the
certificate on the projective pair (num, den), as the route ran before.
The zero test itself evaluates mu by Paterson & Stockmeyer's scheme; its
reference is ``polys.hom_eval``, the plain Horner loop.
"""

import math
import random
from fractions import Fraction

import pytest

from ratdyn import build_map, spectra
from ratdyn.errors import RatdynError
from ratdyn.exceptional import LattesSpec, chebyshev_map, flexible_lattes, power_map
from ratdyn.periodic import dynatomic_numerator
from ratdyn.polys import FpModulus, fp_array, fp_mul, squarefree_decomposition, word_primes
from ratdyn.spectra import FieldElt, ResidueField, minimal_polynomial, multiplier_element
from ratdyn.sphere import hom_eval

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


@pytest.mark.parametrize(
    "f, n",
    [(build_map([-1, 0, 1], [1]), 5), (RATIONAL, 3)],
    ids=["z^2-1@5", "(z^2-2)/(z^2+3)@3"],
)
def test_the_paterson_stockmeyer_value_is_the_scaled_horner_value(f, n):
    # E^(k-1-T) hom_eval(P, alpha, E), k = isqrt(D), T = D mod k: the same
    # zero test, since a nonzero int power is injective on Z[w]/(q~)
    rng = random.Random(n)
    for s, _k in squarefree_decomposition(dynatomic_numerator(f, n)):
        alpha, _den = multiplier_element(f, n, s)
        for D in range(1, 33):
            P = [rng.randint(-99, 99) for _ in range(D)] + [rng.choice((-1, 1)) * rng.randint(1, 99)]
            k = math.isqrt(D)
            for E in (1, 3, -7, 2**40 + 1):
                want = hom_eval(P, alpha, E) * E ** (k - 1 - D % k)
                assert spectra._scaled_value(P, alpha, E) == want, (D, E)


POLYNOMIAL = (
    ("z^2-1", build_map([-1, 0, 1], [1]), 4),
    ("z^3-2z+1", build_map([1, -2, 0, 1], [1]), 3),
    ("3z^2-1", build_map([-1, 0, 3], [1]), 3),
    ("z^2", power_map(2), 3),
    ("T3", chebyshev_map(3), 2),
)


@pytest.mark.parametrize("name, f, top", POLYNOMIAL, ids=[n for n, _, _ in POLYNOMIAL])
def test_a_scalar_denominator_is_inverted_in_f_p(name, f, top):
    # the orbit's Y_n^2 is a scalar on polynomial maps: lambda mod p is num
    # times den_0^-1 mod p, the extended Euclid's value
    primes = word_primes()
    ps = [next(primes) for _ in range(5)]
    for n in range(1, top + 1):
        for s, _k in squarefree_decomposition(dynatomic_numerator(f, n)):
            num, den = multiplier_element(f, n, s)
            assert not any(den.c[1:]), (name, n)
            for p in ps + [q for q in (2, 3) if den.c[0] % q == 0]:
                red = FpModulus(num.field.mod, p)
                inv = red.inverse(fp_array(den.c, p))
                got = spectra._lambda_mod(num, den, p)
                if inv is None:
                    assert den.c[0] % p == 0 and got is None, (name, n, p)
                    continue
                want = red.reduce(fp_mul(fp_array(num.c, p), inv, p))
                assert got[1].tolist() == want.tolist(), (name, n, p)
    if name == "3z^2-1":  # den_0 is a power of 3: the prime 3 is refused
        num, den = multiplier_element(f, 1, dynatomic_numerator(f, 1))
        assert den.c[0] % 3 == 0 and spectra._lambda_mod(num, den, 3) is None


# ----------------------------------------------------------------------
# deterministic guards: operand sizes and prime counts, no timing
# ----------------------------------------------------------------------


def _count_products(monkeypatch):
    """A one-entry list that counts, from now on, the full residue products:
    a FieldElt times a non-constant FieldElt."""
    real_mul, made = FieldElt.__mul__, [0]

    def mul(self, o):
        made[0] += isinstance(o, FieldElt) and any(o.c[1:])
        return real_mul(self, o)

    monkeypatch.setattr(FieldElt, "__mul__", mul)
    return made


def test_the_certificate_makes_about_two_sqrt_deg_mu_products(monkeypatch):
    # z^2-1 at period 7: deg mu = 18, so 3 baby steps and 4 giant steps;
    # hom_eval(P, alpha, E) made 17 full products
    made, per_call, real = _count_products(monkeypatch), [], spectra._certified

    def certified(mu, degree, alpha, E):
        start = made[0]
        ok = real(mu, degree, alpha, E)
        per_call.append(made[0] - start)
        return ok

    monkeypatch.setattr(spectra, "_certified", certified)
    f = build_map([-1, 0, 1], [1])
    mu = minimal_polynomial(*multiplier_element(f, 7, dynatomic_numerator(f, 7)))
    assert len(mu) - 1 == 18
    assert per_call and max(per_call) <= 9


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


def test_no_degree_makes_more_products_than_horner(monkeypatch):
    # below deg 4 (k = 1) the scheme is Horner itself: the exceptional maps'
    # integer multipliers give such small mu on moduli of degree up to 1020
    made = _count_products(monkeypatch)
    f = build_map([-1, 0, 1], [1])
    alpha, _den = multiplier_element(f, 5, dynatomic_numerator(f, 5))
    for D in range(1, 33):
        P = list(range(1, D + 2))
        made[0] = 0
        hom_eval(P, alpha, 3)
        horner, made[0] = made[0], 0
        spectra._scaled_value(P, alpha, 3)
        assert made[0] <= horner, D


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
        assert 0 < len(lifted) <= 6
