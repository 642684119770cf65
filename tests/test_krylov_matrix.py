"""Krylov minimal polynomials mod p by one multiplication matrix.

``FpModulus.minimal_polynomial`` takes its first powers as products
reduced by Barrett and, from ``polys._matrix_step_from(m)`` on, each power
as one exact :func:`polys.fp_vecmat` with the multiplication matrix of a.
mu_p is unique, so every case must equal the product loop of
``certificate_reference.krylov_minimal_polynomial`` with the switch where
the package puts it, never taken, and taken at the first power.  The limb
product is exact up to m = 2^13 - 1 rows and refuses more; the Barrett
series is built only by a reduction that needs it; and the lift and the
point counts of one squarefree part share each prime's lambda.
"""

import random
from functools import cached_property

import numpy as np
import pytest

from ratdyn import algebraic_spectrum, build_map, polys, spectra
from ratdyn.exceptional import LattesSpec, chebyshev_map, flexible_lattes, power_map
from ratdyn.periodic import dynatomic_numerator
from ratdyn.polys import FpModulus, fp_array, fp_vecmat, squarefree_decomposition, word_primes

import certificate_reference as ref

P = next(word_primes())  # the largest word prime, 2^30 - 35
BASILICA = build_map([-1, 0, 1], [1])
CUBIC = build_map([1, -2, 0, 1], [1])
RATIONAL = build_map([-2, 0, 1], [3, 0, 1])  # (z^2-2)/(z^2+3): Y_n^2 not a scalar
RULES = {
    "package": polys._matrix_step_from,
    "products only": lambda m: m + 2,
    "matrix from power 1": lambda m: 1,
}


def _random_case(m, seed):
    rng = random.Random(seed)
    f = [rng.randint(-(10**12), 10**12) for _ in range(m)] + [rng.choice([1, -3, 7])]
    return f, fp_array([rng.randrange(P) for _ in range(m)], P)


def _orbit_case(f, n):
    (s, _k), = squarefree_decomposition(dynatomic_numerator(f, n, cap=2000))
    red, lam = spectra._lambda_mod(*spectra.multiplier_element(f, n, s), P)
    return list(red.f), lam


CASES = {
    "m = 1": ([-5, 3], fp_array([4], P)),
    "a = 0": (_random_case(8, 1)[0], fp_array([], P)),
    "scalar a": (_random_case(8, 2)[0], fp_array([12345], P)),
    "deg mu = m": _random_case(40, 3),
    "m >= 257": _random_case(260, 4),
}
ORBITS = {
    "T4 period 4": (chebyshev_map(4), 4, 240, 2),
    "T4 period 5": (chebyshev_map(4), 5, 1020, 2),
    "z^2-1 period 7": (BASILICA, 7, 126, 18),
    "z^3-2z+1 period 4": (CUBIC, 4, 72, 18),
}


@pytest.mark.parametrize("rule", RULES, ids=list(RULES))
@pytest.mark.parametrize("name", list(CASES) + list(ORBITS))
def test_the_matrix_step_matches_the_product_loop(monkeypatch, name, rule):
    if name in CASES:
        f, a = CASES[name]
        m, degree = len(f) - 1, {"a = 0": 1, "scalar a": 1}.get(name, len(f) - 1)
    else:
        g, n, m, degree = ORBITS[name]
        f, a = _orbit_case(g, n)
    want = ref.krylov_minimal_polynomial(FpModulus(f, P), a).tolist()
    monkeypatch.setattr(polys, "_matrix_step_from", RULES[rule])
    built = []
    monkeypatch.setattr(
        FpModulus, "multiplication_matrix", _spy(FpModulus.multiplication_matrix, built)
    )
    red = FpModulus(f, P)
    assert red.m == m and len(want) - 1 == degree, name
    assert red.minimal_polynomial(a).tolist() == want, (name, rule)
    # the switch reads only m and the power count: below it, no matrix
    assert bool(built) == (degree >= RULES[rule](m)), (name, rule)


def _spy(fn, calls):
    def spy(*args):
        calls.append(args)
        return fn(*args)

    return spy


def test_the_limb_product_is_exact_at_the_bound_and_refuses_past_it():
    # every entry p - 1: the 10-bit limbs of p - 1 are 988, 1023, 1023, so
    # the float sums reach 8191 * 1023 * (p - 1) > 2^52.99, just below 2^53
    rows = (1 << 13) - 1
    v = np.full(rows, P - 1, dtype=np.int64)
    mat = np.full((rows, 3), float(P - 1))
    want = rows * (P - 1) * (P - 1) % P
    assert fp_vecmat(v, mat, P).tolist() == [want] * 3
    rng = np.random.default_rng(7)
    v = rng.integers(P - 2**20, P, rows)
    cols = rng.integers(P - 2**20, P, (rows, 2))
    want = [sum(x * y for x, y in zip(v.tolist(), col)) % P for col in cols.T.tolist()]
    assert fp_vecmat(v, cols.astype(np.float64), P).tolist() == want
    with pytest.raises(ValueError):
        fp_vecmat(np.full(rows + 1, P - 1, dtype=np.int64), np.zeros((rows + 1, 1)), P)


def _series_spy(monkeypatch):
    """A list that gets the degree m of each modulus whose Barrett series
    is built from now on."""
    built, series = [], FpModulus.__dict__["rinv"].func

    def rinv(self):
        built.append(self.m)
        return series(self)

    prop = cached_property(rinv)
    prop.__set_name__(FpModulus, "rinv")
    monkeypatch.setattr(FpModulus, "rinv", prop)
    return built


def _krylov_spy(monkeypatch):
    """A list that gets (f, p, a, mu_p) of each Krylov run from now on."""
    runs, krylov = [], FpModulus.minimal_polynomial

    def spy(self, a):
        runs.append((list(self.f), self.p, a.copy(), krylov(self, a)))
        return runs[-1][-1]

    monkeypatch.setattr(FpModulus, "minimal_polynomial", spy)
    return runs


@pytest.mark.parametrize(
    "name, f, top, builds",
    [
        ("z^2", power_map(2, 1), 4, False),
        ("z^2-1", BASILICA, 5, False),
        ("(z^2-2)/(z^2+3)", RATIONAL, 3, True),
    ],
)
def test_the_barrett_series_is_built_only_when_a_reduction_needs_it(
    monkeypatch, name, f, top, builds
):
    built, runs = _series_spy(monkeypatch), _krylov_spy(monkeypatch)
    algebraic_spectrum(f, top)
    assert bool(built) == builds, (name, built)
    monkeypatch.undo()
    for g, p, a, mu in runs:
        assert ref.krylov_minimal_polynomial(FpModulus(g, p), a).tolist() == mu.tolist()


SHARED = {  # each has a squarefree part whose mu splits, so the counts run
    "lattes(-1,0,2)": (flexible_lattes(LattesSpec(-1, 0, 2)), 3),
    "1/(z^2-1)": (build_map([1], [-1, 0, 1]), 3),
    "z^3-2z+1": (CUBIC, 3),
    "T3": (chebyshev_map(3), 3),
}


@pytest.mark.parametrize("name", SHARED)
def test_the_lift_and_the_point_counts_share_each_prime(monkeypatch, name):
    f, top = SHARED[name]
    made, init = [], FpModulus.__init__

    def spy(self, g, p):
        made.append((tuple(g), p))
        init(self, g, p)

    monkeypatch.setattr(FpModulus, "__init__", spy)
    for n in range(1, top + 1):
        made.clear()
        spectra.multiplier_factors(f, n)
        assert made and len(set(made)) == len(made), n
