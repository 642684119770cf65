"""The generic route: the multiplier of an irreducible dynatomic factor q as
the pair (prod W, Y_n^2) in Q[z]/(q), q as dyn gives it, and its minimal
polynomial found modulo word primes, lifted by CRT and
rational reconstruction and certified exactly.

The reference is ``fraction_reference.py``: the residue field over
``Fraction`` and Krylov elimination over Q, as the route ran before.  The
irreducible factors q are those that ``two_route_reference.py`` sends to
its generic route; the production spectra run the same kernels on the
squarefree parts of dyn (``test_one_route.py``).
"""

import importlib.util
import math
import os
import sys
from fractions import Fraction

import pytest
from sympy import ZZ, Poly, Symbol

from ratdyn import algebraic_spectrum, build_map, spectra
from ratdyn.periodic import dynatomic_numerator
from ratdyn.polys import (
    FpModulus,
    factor_int_poly,
    fp_array,
    fp_mul,
    isquarefree,
    pmul,
    word_primes,
)
from ratdyn.spectra import FieldElt, ResidueField, minimal_polynomial, multiplier_element

import fraction_reference as ref
import two_route_reference as two_route

BASILICA = build_map([-1, 0, 1], [1])
RATIONAL = build_map([-2, 0, 1], [3, 0, 1])  # (z^2-2)/(z^2+3)
CUBIC = build_map([1, -2, 0, 1], [1])  # z^3-2z+1
# the spectra_generic workload of bench/: its maps and their periods
BENCH_MAPS = (("z^2-1", BASILICA, 7), ("(z^2-2)/(z^2+3)", RATIONAL, 5), ("z^3-2*z+1", CUBIC, 4))
WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "bench", "workloads.py")


def _generic_fields(monkeypatch, f, periods):
    """(n, q) for every factor that the two-route reference sends to its
    generic route."""
    seen = []
    real = two_route.multiplier_element

    def record(f_, n, q):
        seen.append((n, list(q)))
        return real(f_, n, q)

    monkeypatch.setattr(two_route, "multiplier_element", record)
    for n in periods:
        two_route.multiplier_factors(f, n, cap=2000)
    monkeypatch.undo()
    return seen


def _primes_first(*small):
    def primes():
        yield from small
        yield from word_primes()

    return primes


def _lifted_primes(monkeypatch):
    lifted = []
    real = spectra._crt_extend

    def spy(G, M, h, p):
        lifted.append(p)
        return real(G, M, h, p)

    monkeypatch.setattr(spectra, "_crt_extend", spy)
    return lifted


def _fractions(x):
    """The coefficients of the element x of Q[z]/(q) as Fractions."""
    return [Fraction(c, x.d) for c in x.c]


def _divides_a_power(d, L):
    """Whether every prime factor of d divides L."""
    while (g := math.gcd(d, L)) > 1:
        d //= g
    return d == 1


# ----------------------------------------------------------------------
# against the Fraction reference
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, leads",
    [(BASILICA, [1, 1, 1]), (RATIONAL, [1, 4, 49, 2041]), (CUBIC, [1, 1, 1, 1])],
    ids=[n for n, _, _ in BENCH_MAPS],
)
def test_every_generic_field_matches_the_fraction_reference(monkeypatch, f, leads):
    # z^2-1 has no generic field at period 2 (one 2-cycle, multiplier 0, on
    # the fast path); the factors of (z^2-2)/(z^2+3) beyond period 1 are not
    # monic, yet their orbits run in Q[z]/(q) itself, from (z, 1), and
    # equal the reference's orbit with no change of basis
    fields = _generic_fields(monkeypatch, f, (1, 2, 3, 4))
    assert [q[-1] for _n, q in fields] == leads
    for n, q in fields:
        num, den = multiplier_element(f, n, q)
        assert num.field.mod == tuple(q)
        wide = ref.FractionField(q)
        lam = ref.multiplier_element(f, n, q)
        assert wide.elt(_fractions(num)) == lam * wide.elt(_fractions(den))
        mu = minimal_polynomial(num, den)
        assert mu == ref.minimal_polynomial(ref.multiplier_element(f, n, q))
        assert all(type(c) is Fraction for c in mu)


def test_a_prime_where_y_n_squared_is_no_unit_is_skipped(monkeypatch):
    # the fixed points of (z^2-2)/(z^2+3): Res(q, Y_1^2) = 5^4, so Y_1^2
    # is a zero divisor mod (q, 5) and a unit mod every other prime
    [(q, _m)] = factor_int_poly(dynatomic_numerator(RATIONAL, 1))[1]
    num, den = multiplier_element(RATIONAL, 1, q)
    units = {p: FpModulus(num.field.mod, p).inverse(fp_array(den.c, p)) is not None
             for p in (2, 3, 5, 7)}
    assert units == {2: True, 3: True, 5: False, 7: True}
    lifted = _lifted_primes(monkeypatch)
    monkeypatch.setattr(spectra, "word_primes", _primes_first(5))
    mu = minimal_polynomial(num, den)
    assert mu == ref.minimal_polynomial(ref.multiplier_element(RATIONAL, 1, q))
    assert lifted and 5 not in lifted


def test_a_prime_where_the_degree_drops_is_overruled(monkeypatch):
    # the same field: mu has degree 3, mu_p has degree 1 at p = 2 and 2 at
    # p = 29; each larger degree restarts the lift
    [(q, _m)] = factor_int_poly(dynatomic_numerator(RATIONAL, 1))[1]
    num, den = multiplier_element(RATIONAL, 1, q)
    degrees = {}
    for p in (2, 29):
        red = FpModulus(num.field.mod, p)
        lam = red.reduce(fp_mul(fp_array(num.c, p), red.inverse(fp_array(den.c, p)), p))
        degrees[p] = len(red.minimal_polynomial(lam)) - 1
    assert degrees == {2: 1, 29: 2}
    lifted = _lifted_primes(monkeypatch)
    monkeypatch.setattr(spectra, "word_primes", _primes_first(2, 29))
    mu = minimal_polynomial(num, den)
    assert len(mu) == 4
    assert mu == ref.minimal_polynomial(ref.multiplier_element(RATIONAL, 1, q))
    assert lifted[:2] == [2, 29]


def test_a_stable_image_of_the_wrong_degree_fails_the_certificate(monkeypatch):
    # lambda = N sqrt(2) with N = 3 * 5 * 7: lambda is 0 mod 3, 5 and 7, so
    # the first three primes agree on mu_p = x.  Only the certificate stops
    # that stable image; the next prime has degree 2 and restarts the lift.
    fld = ResidueField([-2, 0, 1])
    num, den = fld.elt([0, 105]), fld.elt([1])
    certified = []
    real = spectra._certified

    def spy(mu, degree, alpha):
        certified.append((mu, real(mu, degree, alpha)))
        return certified[-1][1]

    monkeypatch.setattr(spectra, "_certified", spy)
    monkeypatch.setattr(spectra, "word_primes", _primes_first(3, 5, 7))
    assert minimal_polynomial(num, den) == [Fraction(-2 * 105**2), Fraction(0), Fraction(1)]
    assert certified[0] == (([0, 1], 1), False)
    assert certified[-1] == (([-2 * 105**2, 0, 1], 1), True)


def test_the_certificate_needs_both_the_root_and_the_degree():
    fld = ResidueField([-2, 0, 1])
    alpha = fld.gen()  # lambda = sqrt(2), mu = x^2 - 2
    assert spectra._certified(([-2, 0, 1], 1), 2, alpha)
    assert not spectra._certified(([-3, 0, 1], 1), 2, alpha)
    # a multiple of mu vanishes at lambda too, but its degree is too large
    assert not spectra._certified((pmul([-2, 0, 1], [-1, 1]), 1), 2, alpha)
    # lambda = sqrt(2)/3, one element over the denominator 3: 9 x^2 - 2 = 0,
    # as P/D with D = 9
    third = fld.elt([0, 1], 3)
    assert (third.c, third.d) == ((0, 1), 3)
    assert spectra._certified(([-2, 0, 9], 9), 2, third)
    assert not spectra._certified(([-2, 0, 1], 1), 2, third)


# ----------------------------------------------------------------------
# no Fraction on the exact kernels
# ----------------------------------------------------------------------


@pytest.mark.parametrize("f, n", [(RATIONAL, 5), (BASILICA, 6)], ids=["(z^2-2)/(z^2+3)@5", "z^2-1@6"])
def test_no_fraction_is_built_on_the_exact_kernels(monkeypatch, f, n):
    # The orbit pair, the modular search with its certificate and the
    # point counts build no Fraction: the only ones are the coefficients
    # minimal_polynomial returns.  Every residue is ints over an int
    # denominator, and on the orbit one that divides a power of the
    # modulus's lead.
    built, active, returned = [], [], []
    new = Fraction.__new__

    def spy_new(cls, *args, **kwargs):
        obj = new(cls, *args, **kwargs)
        if active:
            built.append(obj)
        return obj

    def watch(fn):
        def run(*args, **kwargs):
            active.append(fn)
            try:
                out = fn(*args, **kwargs)
            finally:
                active.pop()
            if fn is minimal_polynomial:
                returned.extend(out)
            return out

        return run

    residues, dens = [], []
    init = FieldElt.__init__

    def spy_init(self, field, c, d=1):
        residues.extend(c)
        dens.append((d, field.lead, active[-1] if active else None))
        init(self, field, c, d)

    monkeypatch.setattr(Fraction, "__new__", spy_new)
    monkeypatch.setattr(FieldElt, "__init__", spy_init)
    for name in ("multiplier_element", "minimal_polynomial", "_point_counts"):
        monkeypatch.setattr(spectra, name, watch(getattr(spectra, name)))
    pf = spectra.multiplier_factors(f, n, cap=2000)
    assert "algebra" in {route for _q, _k, route in pf.routes}
    assert returned and len(built) == len(returned)
    assert all(a is b for a, b in zip(built, returned))
    assert residues and all(type(c) is int for c in residues)
    assert all(type(d) is int and d > 0 for d, _L, _fn in dens)
    orbit = [(d, L) for d, L, fn in dens if fn is multiplier_element]
    assert orbit and all(_divides_a_power(d, L) for d, L in orbit)
    assert (f is BASILICA) == all(d == 1 for d, _L in orbit)


# ----------------------------------------------------------------------
# the bench reference, read only
# ----------------------------------------------------------------------


def _bench_workloads():
    # bench/workloads.py as a module, for its fingerprint and reference
    # reader; registered first, as its dataclasses look their module up
    if "bench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_workloads"] = module
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]


@pytest.mark.parametrize("name, f, top", BENCH_MAPS, ids=[n for n, _, _ in BENCH_MAPS])
def test_generic_spectra_match_the_bench_reference(name, f, top):
    workloads = _bench_workloads()
    want = workloads.load_reference("full")["spectra_generic"][name]["periods"]
    spec = algebraic_spectrum(f, top, cap=2000)
    assert workloads.fingerprint(spec) == want


@pytest.mark.parametrize("name, f, _top", BENCH_MAPS)
def test_isquarefree_agrees_with_sympy(name, f, _top):
    # squarefree dynatomic polynomials take the modular certificate; times
    # the square of a factor, they take the exact fallback
    z = Symbol("z")
    for n in range(1, 5):
        dyn = dynatomic_numerator(f, n)
        _, irr = factor_int_poly(dyn)
        cases = [(dyn, True)] + [(pmul(dyn, pmul(q, q)), False) for q, _ in irr]
        for p, want in cases:
            assert Poly(p[::-1], z, domain=ZZ).is_sqf == want
            assert isquarefree(p) == want, (name, n)
