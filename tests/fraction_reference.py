"""Test-only reference for the generic route: the multiplier element and its
Krylov minimal polynomial over ``Fraction``.

This is the route ratdyn used before the multi-modular search: the residue
field Q[z]/(q) with q made monic over Q, the homogeneous orbit of (z, 1)
under the map's integer pair, lambda = prod W * (Y_n^2)^(-1) by the
extended Euclid algorithm over Q, and the first linear dependency among
1, lambda, lambda^2, ... by elimination over Q.  It shares no arithmetic
with the production route beyond ``polys.hom_eval`` and the pmul / pdivmod
loops of ``polys``.
"""

from fractions import Fraction

from ratdyn.periodic import dynatomic_numerator, infinity_exact_period
from ratdyn.periodic import multiplier as cycle_multiplier
from ratdyn.polys import factor_int_poly, pdeg, pderiv, pdivmod, pmul, ppad, pscale, pstrip, psub
from ratdyn.sphere import hom_eval


class FractionField:
    """Q[z]/(q), the modulus made monic over Q."""

    def __init__(self, modulus):
        lead = Fraction(modulus[-1])
        self.mod = tuple(Fraction(c) / lead for c in modulus)
        self.degree = len(self.mod) - 1

    def elt(self, coeffs):
        out, g, m = [Fraction(c) for c in coeffs], self.mod, self.degree
        for k in range(len(out) - 1 - m, -1, -1):
            c = out[k + m]
            if c:
                for i in range(m):
                    out[k + i] -= c * g[i]
        return FractionElt(self, tuple(ppad(out[:m], m, Fraction(0))))


class FractionElt:
    def __init__(self, field, c):
        self.field, self.c = field, c

    def __add__(self, o):
        return FractionElt(self.field, tuple(a + b for a, b in zip(self.c, o.c)))

    def __mul__(self, o):
        if not isinstance(o, FractionElt):
            return FractionElt(self.field, tuple(a * o for a in self.c))
        return self.field.elt(pmul(list(self.c), list(o.c)))

    __rmul__ = __mul__

    def __eq__(self, o):
        return self.c == o.c

    def inverse(self):
        # extended Euclid against the modulus
        a, b = list(self.field.mod), pstrip(list(self.c))
        s0, s1 = [], [Fraction(1)]
        while True:
            q, r = pdivmod(a, b)
            if not r:
                break
            s0, s1 = s1, psub(s0, pmul(q, s1))
            a, b = b, r
        assert pdeg(b) == 0, "element not invertible"
        return self.field.elt(pscale(s1, 1 / b[-1]))


def multiplier_element(f, n, q, pair=None):
    """lambda = prod W(X_j, Y_j) / Y_n^2 in Q[z]/(q), orbit of (z, 1) under
    `pair` (default: the map's integer pair)."""
    fld = FractionField(q)
    A, B = pair or f.int_pair
    d = len(A) - 1
    W = ppad(psub(pmul(pderiv(A), B), pmul(A, pderiv(B))), 2 * d - 1)
    X, Y, acc = fld.elt([0, 1]), fld.elt([1]), fld.elt([1])
    for _ in range(n):
        acc = acc * hom_eval(W, X, Y)
        X, Y = hom_eval(A, X, Y), hom_eval(B, X, Y)
    return acc * (Y * Y).inverse()


def minimal_polynomial(elem):
    """Monic minimal polynomial over Q by Krylov elimination."""
    m = elem.field.degree
    rows, pivots, power = [], [], elem.field.elt([1])
    for k in range(m + 1):
        vec, comb = list(power.c), [Fraction(0)] * k + [Fraction(1)]
        for (rv, rc), piv in zip(rows, pivots):
            t = vec[piv]
            if t:
                vec = [v - t * r for v, r in zip(vec, rv)]
                comb = [c - t * r for c, r in zip(comb, rc + [0] * (k + 1 - len(rc)))]
        piv = next((i for i, v in enumerate(vec) if v), None)
        if piv is None:
            return comb
        t = vec[piv]
        rows.append(([v / t for v in vec], [c / t for c in comb]))
        pivots.append(piv)
        power = power * elem
    raise AssertionError("no dependency within the field degree")


def generic_factors(f, n):
    """P_n's factor list from the reference alone: every irreducible factor
    of the whole dynatomic polynomial through its residue field."""
    factors = {}

    def add(fac, mult):
        key = tuple(fac)
        factors[key] = factors.get(key, 0) + mult

    inf_period, inf_orbit = infinity_exact_period(f, n)
    if inf_period == n:
        lam = cycle_multiplier(f, inf_orbit)
        add((-lam.re, 1), 1)
    dyn = dynatomic_numerator(f, n)
    if pdeg(dyn) >= 1:
        for q, mult in factor_int_poly(dyn)[1]:
            mu = minimal_polynomial(multiplier_element(f, n, q))
            add(mu, mult * pdeg(q) // pdeg(mu))
    return sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))
