"""The modular split of the two-route reference and the F_p[z] kernel.

The split (``two_route_reference.py``, the integer fast path that ratdyn
used before the whole-algebra route) finds the factor of the dynatomic
polynomial whose roots have multiplier c as gcd(dyn, prod W - c Y_n^2) mod
word-size primes, combined by CRT and certified exactly.  It runs on the
production residue rings and F_p kernels.  These tests hold the split and
the production spectra against independent references:

* a test-only generic route over ``Fraction`` (sympy factoring, then the
  multiplier element and its Krylov minimal polynomial,
  ``fraction_reference.py``), on small random integer maps;
* a test-only copy of the mpmath route it replaced (Newton refinement of
  the cluster points by ``mp_reference.py`` and a product tree), on the
  T3/T4 clusters;
* exact integer arithmetic and the former pure-Python Euclid, for the
  FFT product, Barrett reduction and gcd over F_p.
"""

import math
import random
from itertools import accumulate, islice

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ratdyn import build_map, spectra
from ratdyn.errors import DegenerateMap, DegreeTooLow, InexactDivision, RatdynError
from ratdyn.exceptional import LattesSpec, chebyshev_map, flexible_lattes
from ratdyn.periodic import (
    cycles_of_period,
    dynatomic_numerator,
    group_cycles,
    periodic_points,
)
from ratdyn.polys import FpModulus, fp_array, fp_gcd, fp_mul, idivexact, pstrip, word_primes

import two_route_reference as two_route
from fraction_reference import generic_factors as _generic_factors
from mp_reference import _mp_refine_periodic

P = next(word_primes())


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def _old_integer_cluster_factor(f, pts, n, c, prime_poly):
    """The replaced route: refine the cluster points in mpmath, multiply out
    prod (z - p) by a product tree, round, then divide and certify."""
    size = sum(math.log10(1.0 + abs(p)) for p in pts) + 40
    dps = max(60, int(size) + 30)
    with mp.workdps(dps):
        polys = [[mp.mpc(1), -_mp_refine_periodic(f, p, n, dps)] for p in pts]
        while len(polys) > 1:
            nxt = []
            for i in range(0, len(polys) - 1, 2):
                a, b = polys[i], polys[i + 1]
                out = [mp.mpc(0)] * (len(a) + len(b) - 1)
                for ia, ca in enumerate(a):
                    for ib, cb in enumerate(b):
                        out[ia + ib] += ca * cb
                nxt.append(out)
            if len(polys) % 2:
                nxt.append(polys[-1])
            polys = nxt
        g_desc = []
        for coef in polys[0]:
            r = mp.nint(coef.real)
            if abs(coef.real - r) > 0.25 or abs(coef.imag) > 0.25:
                return None
            g_desc.append(int(r))
    g = list(reversed(g_desc))
    try:
        idivexact(prime_poly, g)
    except InexactDivision:
        return None
    return g if two_route._certify_integer_multiplier(f, n, g, c) else None


def _numeric_clusters(f, n):
    """{c: finite period-n points with multiplier c}, as the fast path's
    numeric stage proposes them."""
    pts, _ = periodic_points(f, n, tol=1e-9, cap=2000)
    out = {}
    for cyc in group_cycles(f, pts, n, tol=1e-12):
        lam = cyc.multiplier
        c = round(lam.real)
        if abs(lam - c) <= 1e-6 * (1 + abs(lam)):
            out.setdefault(c, []).extend(complex(p.z) for p in cyc.points if not p.is_infinity)
    return {c: pts for c, pts in out.items() if pts}


def _old_gf_gcd(a, b, p):
    """Monic gcd mod p by the former pure-Python Euclid."""
    a = pstrip([c % p for c in a])
    b = pstrip([c % p for c in b])
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        r = list(a)
        for k in range(len(r) - len(bm), -1, -1):
            c = r[k + len(bm) - 1] % p
            if c:
                for i in range(len(bm)):
                    r[k + i] = (r[k + i] - c * bm[i]) % p
        a, b = bm, pstrip(r[: len(bm) - 1])
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


# ----------------------------------------------------------------------
# the production spectra and the reference split
# ----------------------------------------------------------------------

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
def test_split_matches_the_generic_route_on_small_integer_maps(case):
    num, den, n = case
    try:
        f = build_map(num, den)
    except (DegenerateMap, DegreeTooLow):
        assume(False)
    try:
        want = _generic_factors(f, n)
    except RatdynError:
        assume(False)  # parabolic: the dynatomic division is not exact
    assert spectra.multiplier_factors(f, n).factors == want


@pytest.mark.parametrize(
    "f, periods",
    [(chebyshev_map(3), (1, 2, 3, 4)), (chebyshev_map(4), (1, 2, 3, 4))],
    ids=["T3", "T4"],
)
def test_split_gives_the_factor_of_the_replaced_mp_route(f, periods):
    checked = 0
    for n in periods:
        dyn = dynatomic_numerator(f, n, cap=2000)
        for c, pts in sorted(_numeric_clusters(f, n).items()):
            old = _old_integer_cluster_factor(f, pts, n, c, dyn)
            rest, found, rejected = two_route._modular_split(f, n, dyn, {c: len(pts)})
            assert old is not None and rejected == {}
            assert found == {c: old}
            assert rest == idivexact(dyn, old)
            checked += 1
    assert checked >= 2 * len(periods) - 1


def test_a_wrong_multiplier_is_rejected():
    f = chebyshev_map(4)
    for n in (2, 3):
        dyn = dynatomic_numerator(f, n)
        for c, pts in _numeric_clusters(f, n).items():
            rest, found, rejected = two_route._modular_split(f, n, dyn, {c + 1: len(pts)})
            assert (rest, found) == (dyn, {})
            assert rejected == {c + 1: "gcd degree never matched"}


def test_a_prime_with_the_wrong_gcd_degree_is_skipped(monkeypatch):
    # T3's fixed points 0 and +-2 have multipliers -3 and 9, equal mod 3:
    # there each gcd takes all three roots, so that prime may not be
    # lifted, and the factors must still come out right
    f = chebyshev_map(3)
    dyn = dynatomic_numerator(f, 1)
    gcds, lifted = [], []
    real_gcd, real_crt = two_route.fp_gcd, two_route._crt_extend

    def gcd_spy(a, b, p):
        h = real_gcd(a, b, p)
        gcds.append((p, len(h) - 1))
        return h

    def crt_spy(G, M, h, p):
        lifted.append(p)
        return real_crt(G, M, h, p)

    def primes():
        yield 3
        yield from word_primes()

    monkeypatch.setattr(two_route, "fp_gcd", gcd_spy)
    monkeypatch.setattr(two_route, "_crt_extend", crt_spy)
    monkeypatch.setattr(two_route, "word_primes", primes)
    rest, found, rejected = two_route._modular_split(f, 1, dyn, {-3: 1, 9: 2})
    assert found == {-3: [0, 1], 9: [-4, 0, 1]}
    assert (rest, rejected) == ([1], {})
    assert gcds[:2] == [(3, 3), (3, 3)]
    assert lifted and 3 not in lifted


def test_exceptional_maps_take_only_the_fast_route():
    lattes = flexible_lattes(LattesSpec(-1, 0, 2))
    assert [dynatomic_numerator(lattes, n)[-1] for n in (1, 2, 3)] == [3, 5, 21]
    for f, top in ((lattes, 3), (chebyshev_map(3), 4)):
        for n in range(1, top + 1):
            pf = two_route.multiplier_factors(f, n, cap=2000)
            assert pf.rejected == []
            assert {route for _q, _k, route in pf.routes} == {"fast"}
            assert sum(k for _q, k, _r in pf.routes) == pf.point_count


def test_a_float_cycle_through_infinity_has_a_multiplier():
    # f(Infinity) = 1 and f(1) = Infinity, and the solver returns 1 as a
    # float: the cycle's multiplier mixes the exact step at Infinity with a
    # float one, which raised TypeError (Qi times a non-integral complex).
    # Its dynatomic polynomial is not monic, so the split now meets it.
    f = build_map([3, 1, 2, -4], [1, -1, 4, -4])
    assert dynatomic_numerator(f, 2)[-1] != 1
    (lam,) = [c.multiplier for c in cycles_of_period(f, 2)[0]
              if any(p.is_infinity for p in c.points)]
    assert abs(lam + 1.25) < 1e-9
    assert spectra.multiplier_factors(f, 2).factors == _generic_factors(f, 2)


# ----------------------------------------------------------------------
# the F_p[z] kernel against exact arithmetic
# ----------------------------------------------------------------------


def test_word_primes_are_the_largest_primes_below_2_30():
    from sympy import prevprime

    want, q = [], 2**30
    for _ in range(40):
        q = prevprime(q)
        want.append(q)
    assert list(islice(word_primes(), 40)) == want


@pytest.mark.parametrize("length", [1, 2, 3, 64, 65, 257, 4096])
def test_product_is_exact_at_the_extremes(length):
    # all coefficients p - 1: the largest limb convolutions the kernel
    # meets, on both sides of the switch from direct convolution to FFT
    a = np.full(length, P - 1, dtype=np.int64)
    want = [(min(k, length - 1, 2 * length - 2 - k) + 1) * (P - 1) ** 2 % P
            for k in range(2 * length - 1)]
    assert fp_mul(a, a, P).tolist() == want
    # unequal lengths: (a b)_k = (p - 1) (b_(k-length+1) + ... + b_k)
    b = np.arange(1, 2 * length + 1, dtype=np.int64) * (P // (2 * length))
    sums = [0] + list(accumulate(b.tolist()))
    want = [(P - 1) * (sums[min(k, 2 * length - 1) + 1] - sums[max(0, k - length + 1)]) % P
            for k in range(3 * length - 1)]
    assert fp_mul(a, b, P).tolist() == want
    assert fp_mul(b, a, P).tolist() == want


def test_barrett_reduction_and_gcd_match_exact_arithmetic():
    rng = random.Random(5)
    for _ in range(12):
        m = rng.randint(1, 120)
        f = [rng.randint(-(10**40), 10**40) for _ in range(m)] + [rng.choice([1, -3, 7])]
        mod = FpModulus(f, P)
        a = [rng.randrange(P) for _ in range(max(2 * m - 1, 2))]
        inv_lead = pow(f[-1], -1, P)
        r = [c % P for c in a]
        for k in range(len(r) - 1, m - 1, -1):  # long division by monic f mod P
            t = r[k] * inv_lead % P
            for i, c in enumerate(f):
                r[k - m + i] = (r[k - m + i] - t * c) % P
        assert mod.reduce(fp_array(a, P)).tolist() == pstrip(r[:m])
        g = [rng.randint(-50, 50) for _ in range(rng.randint(1, 20))] + [1]
        u = [rng.randint(-50, 50) for _ in range(rng.randint(0, 30))] + [1]
        v = [rng.randint(-50, 50) for _ in range(rng.randint(0, 30))] + [1]
        x, y = _int_mul(g, u), _int_mul(g, v)
        assert fp_gcd(fp_array(x, P), fp_array(y, P), P).tolist() == _old_gf_gcd(x, y, P)


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
