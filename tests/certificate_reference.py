"""Test-only reference for the certificate of the minimal polynomial: the
projective pair (num, den) itself, as ratdyn ran it before lambda was lifted
as one element.

The modular search shares the production reduction, CRT and Wang
reconstruction from ``ratdyn.spectra``, but nothing of lambda is lifted and
no integer candidate is taken from stable residues: mu = P/D is
reconstructed until two more primes agree, then certified by
hom_eval(P, num, den) == 0 in Q[z]/(q), on the orbit's num and den
themselves, each ints over a denominator that divides a power of the lead
of q.  Its Krylov step,
:func:`krylov_minimal_polynomial`, is the product loop that
``FpModulus.minimal_polynomial`` ran before its multiplication matrix: every
power a product reduced by Barrett.
"""

from fractions import Fraction

import numpy as np

from ratdyn.errors import RatdynError
from ratdyn.polys import fp_mul, word_primes
from ratdyn.spectra import (
    _crt_extend,
    _lambda_mod,
    _rational_reconstruction,
    _reduces_to,
)
from ratdyn.sphere import hom_eval


def minimal_polynomial(num, den) -> list[Fraction]:
    """Monic minimal polynomial over Q of lambda = num/den in Q[z]/(q),
    certified on (num, den)."""
    degree, G, M, mu, agree, failed, misses = -1, [], 1, None, 0, None, 0
    for p in word_primes():
        at_p = _lambda_mod(num, den, p)
        if at_p is None:
            misses += 1
            if misses == 20:
                raise RatdynError("Y_n^2 is not a unit modulo 20 word primes")
            continue
        red, lam = at_p
        mu_p = krylov_minimal_polynomial(red, lam)
        if len(mu_p) - 1 < degree:
            continue
        if len(mu_p) - 1 > degree:
            degree, G, M, mu = len(mu_p) - 1, [0] * len(mu_p), 1, None
        agree = agree + 1 if mu is not None and _reduces_to(mu, mu_p, p) else 0
        G, M, _ = _crt_extend(G, M, mu_p, p)
        if not agree:
            mu = _rational_reconstruction(G, M)
        elif agree >= 2 and mu != failed:
            P, D = mu
            if len(P) - 1 == degree and hom_eval(P, num, den).is_zero():
                return [Fraction(c, D) for c in P]
            failed = mu


def krylov_minimal_polynomial(red, a):
    """Monic minimal polynomial over F_p of a in F_p[z]/(red.f), ascending:
    Krylov elimination on 1, a, a^2, ..., each power the product of the
    last with a, reduced by ``red.reduce``."""
    p, m = red.p, red.m
    rows, pivots, power = [], [], np.ones(1, dtype=np.int64)
    for k in range(m + 1):
        v = np.zeros(2 * m + 1, dtype=np.int64)
        v[: len(power)], v[m + k] = power, 1
        for row, piv in zip(rows, pivots):
            if v[piv]:
                v = (v - int(v[piv]) * row) % p
        nz = np.flatnonzero(v[:m])
        if not nz.size:
            return v[m : m + k + 1]
        rows.append(v * pow(int(v[nz[0]]), -1, p) % p)
        pivots.append(nz[0])
        power = red.reduce(fp_mul(power, a, p))
