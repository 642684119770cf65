"""Test-only reference: the 60-digit periodic orbits that ratdyn's
homoclinic sequence was verified with before it moved to double-precision
multiple shooting.

``_mp_refine_periodic`` Newton-refines a period-n point by single shooting
in mpmath, switching between the z and 1/z charts at |z| = 1;
``_mp_orbit_exponent`` runs the orbit forward from a finite point and
returns its multiplier, n chi and residual |F^n(w) - w|.  A map with
rational coefficients enters through its integer pair, exact at any
precision.  ``test_modular_split`` also uses the refinement.
"""

import mpmath as mp

from ratdyn.polys import hom_eval, ppad
from ratdyn.scalars import Qi
from ratdyn.sphere import RationalMap


def _mp_qi(c: Qi) -> mp.mpc:
    re = mp.mpf(c.re.numerator) / mp.mpf(c.re.denominator)
    im = mp.mpf(c.im.numerator) / mp.mpf(c.im.denominator)
    return mp.mpc(re, im)


def _mp_charts(f: RationalMap):
    """{in_z: (A, B, A', B')}: f's homogeneous coefficient lists as mpc at
    the working precision, for the z chart (True) and the 1/z chart (False).
    Rational maps use the integer pair, which is exact at any precision;
    float coefficients are taken as given (mpc inputs keep their digits)."""
    if f.int_pair is not None:
        A, B = ([mp.mpc(c) for c in p] for p in f.int_pair)
    else:
        def conv(x):
            return _mp_qi(Qi.coerce(x)) if f.exact else mp.mpc(x)

        A, B = ([conv(x) for x in ppad(p, f.degree + 1, 0)] for p in (f.num, f.den))

    def dpoly(p):
        return [k * p[k] for k in range(1, len(p))]

    Ar, Br = A[::-1], B[::-1]
    return {True: (A, B, dpoly(A), dpoly(B)), False: (Ar, Br, dpoly(Ar), dpoly(Br))}


def _mp_step(charts, u, in_z: bool, z_chart):
    """f at the chart point u (the z chart if in_z, else the 1/z chart):
    (image, derivative between the charts, image chart), where the image
    lands in the z chart iff z_chart(P, Q) for its homogeneous (P, Q)."""
    A, B, dA, dB = charts[in_z]
    P, Q = hom_eval(A, u, 1), hom_eval(B, u, 1)
    dP, dQ = hom_eval(dA, u, 1), hom_eval(dB, u, 1)
    if z_chart(P, Q):
        return P / Q, (dP * Q - P * dQ) / (Q * Q), True
    return Q / P, (dQ * P - Q * dP) / (P * P), False


def _mp_refine_periodic(f: RationalMap, z0: complex, n: int, dps: int):
    """Newton-refine a period-n point in mpmath, chart-switching at |z|=1."""
    with mp.workdps(dps):
        charts = _mp_charts(f)

        def ratio(z):
            in_z = abs(z) <= 1
            u = z if in_z else 1 / z
            D = mp.mpc(1) if in_z else -(u * u)
            for _ in range(n):
                u, s, in_z = _mp_step(charts, u, in_z, lambda P, Q: abs(P) <= abs(Q))
                D = D * s
            val = u if in_z else 1 / u
            dval = D if in_z else -D / (u * u)
            return (val - z) / (dval - 1)

        z = mp.mpc(z0)
        for _ in range(dps.bit_length() + 8):
            step = ratio(z)
            z = z - step
            if abs(step) < mp.mpf(10) ** (-dps + 5):
                break
        return z


def _mp_orbit_exponent(F: RationalMap, w, n: int, dps: int = 40):
    """(multiplier, n chi, residual) of the period-n orbit through the finite
    point w, as mp numbers.  The orbit stays in the z chart and moves to the
    1/z chart only at Infinity; the residual |F^n(w) - w| is inf when F^n(w)
    is Infinity."""
    with mp.workdps(dps):
        charts = _mp_charts(F)
        z, in_z = mp.mpc(w), True
        lam = mp.mpc(1)
        log_norm = mp.mpf(0)
        for _ in range(n):
            z, deriv, in_z = _mp_step(charts, z, in_z, lambda P, Q: Q != 0)
            lam *= deriv
            log_norm += mp.log(abs(deriv))
        residual = abs(z - mp.mpc(w)) if in_z else mp.inf
        return lam, log_norm, residual
