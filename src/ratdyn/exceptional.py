"""Constructors and a classifier for the exceptional rational maps:
power maps, Chebyshev maps and Lattès maps.

The classifier combines the canonical orbifold signature of a
postcritically finite map with exact multiplier data, in this order:
every map takes one exact walk over the multiplier factors of periods
1..max_period, which alone can declare it not exceptional (the float
signature cannot tell a tiny exact perturbation of z^d or T_d from the map
itself); otherwise the signature names the kind, and a Lattès signature
reads its flexible/rigid split from that same walk.  A map is only
declared not exceptional on an exact certificate (a
multiplier factor that cannot sit inside the integers of Q or of any
single imaginary quadratic field; Milnor, *On Lattès maps*, 2006);
inconclusive evidence yields Undetermined, never a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MapParseError, RatdynError, SingularCurve
from .polys import pmul, poly_to_str, pscale, psub
from .sphere import (
    ProjPoint,
    RationalMap,
    build_map,
    chordal,
    postcritical_truncation,
)

# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def power_map(d: int, sign: int = 1) -> RationalMap:
    """z -> z^d (sign +1) or z -> z^(-d) (sign -1), exact."""
    if d < 2:
        raise MapParseError("power map needs d >= 2")
    mono = [0] * d + [1]
    if sign >= 0:
        return build_map(mono, [1])
    return build_map([1], mono)


def chebyshev_polynomial(d: int) -> list[int]:
    """Monic integer T_d with T_d(z + 1/z) = z^d + z^(-d), ascending
    coefficients, via T_0 = 2, T_1 = w, T_(k+1) = w T_k - T_(k-1)."""
    if d < 0:
        raise MapParseError("need d >= 0")
    t0, t1 = [2], [0, 1]
    if d == 0:
        return t0
    for _ in range(d - 1):
        t0, t1 = t1, psub([0] + t1, t0)
    return t1


def chebyshev_map(d: int, sign: int = 1) -> RationalMap:
    """+T_d or -T_d as an exact polynomial map."""
    if d < 2:
        raise MapParseError("Chebyshev map needs d >= 2")
    T = chebyshev_polynomial(d)
    if sign < 0:
        T = [-c for c in T]
    return build_map(T, [1])


@dataclass(frozen=True)
class LattesSpec:
    """Curve y^2 = x^3 + a x + b with integer multiplier m >= 2 (degree m^2)."""

    a: Fraction
    b: Fraction
    m: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))


def _division_polys(a: Fraction, b: Fraction, count: int) -> list[list[Fraction]]:
    """g_0, ..., g_(count-1): the division polynomials of y^2 = E(x) =
    x^3 + a x + b as psi_n = y^[n even] g_n, so every g_n lies in Q[x] and
    y^2 = E enters only as E^2 in the odd recurrence:

        g_(2k+1) = g_(k+2) g_k^3 - g_(k-1) g_(k+1)^3, with E^2 on the
                   first term for even k and on the second for odd k,
        g_(2k) = g_k (g_(k+2) g_(k-1)^2 - g_(k-2) g_(k+1)^2) / 2."""
    E2 = pmul([b, a, 0, 1], [b, a, 0, 1])
    g = [[], [Fraction(1)], [Fraction(2)], [-a * a, 12 * b, 6 * a, 0, Fraction(3)],
         pscale([-8 * b * b - a**3, -4 * a * b, -5 * a * a, 20 * b, 5 * a, 0, 1], 4)]
    for n in range(5, count):
        k = n // 2
        if n % 2:
            t1 = pmul(g[k + 2], pmul(g[k], pmul(g[k], g[k])))
            t2 = pmul(g[k - 1], pmul(g[k + 1], pmul(g[k + 1], g[k + 1])))
            t1, t2 = (pmul(E2, t1), t2) if k % 2 == 0 else (t1, pmul(E2, t2))
            g.append(psub(t1, t2))
        else:
            inner = psub(pmul(g[k + 2], pmul(g[k - 1], g[k - 1])),
                         pmul(g[k - 2], pmul(g[k + 1], g[k + 1])))
            g.append(pscale(pmul(g[k], inner), Fraction(1, 2)))
    return g


def flexible_lattes(spec: LattesSpec) -> RationalMap:
    """The map induced on x-coordinates by multiplication by m on
    y^2 = E(x) = x^3 + a x + b:  x(mP) = x - psi_(m-1) psi_(m+1) / psi_m^2,
    that is x - g_(m-1) g_(m+1) / (E g_m^2) for even m and
    x - E g_(m-1) g_(m+1) / g_m^2 for odd m."""
    a, b, m = spec.a, spec.b, spec.m
    if m < 2:
        raise MapParseError("multiplier m must be >= 2")
    if 4 * a**3 + 27 * b**2 == 0:
        raise SingularCurve(f"discriminant vanishes for a={a}, b={b}")
    g, E = _division_polys(a, b, m + 2), [b, a, 0, 1]
    num, den = pmul(g[m - 1], g[m + 1]), pmul(g[m], g[m])
    num, den = (num, pmul(E, den)) if m % 2 == 0 else (pmul(E, num), den)
    f = build_map(psub([0] + den, num), den)  # x den - num
    if f.degree != m * m:
        raise RatdynError(f"expected degree {m * m}, got {f.degree}")
    return f


def cm_lattes_fixture() -> RationalMap:
    """Numeric degree-2 Lattès test fixture from the curve y^2 = x^3 - x
    with complex multiplication: f(z) = -i (z^2 - 1)/(2z).

    Validated by the curve-arithmetic semiconjugacy oracle in the tests;
    kept in the float realization on purpose (its multipliers are Gaussian,
    not rational, so the exact-spectra pipeline does not apply)."""
    return build_map([1j, 0, -1j], [0, 2], exact=False)


# ----------------------------------------------------------------------
# orbifold signature
# ----------------------------------------------------------------------

WEIGHT_CAP = 64  # genuine orbifold weights here are <= 6 or infinity


@dataclass(frozen=True)
class OrbifoldSignature:
    """Multiset of ramification weights (ints >= 2, math.inf for cusps);
    ``points`` pairs each weight with the postcritical point carrying it."""

    weights: tuple
    points: tuple = field(default=(), compare=False, repr=False)

    def key(self) -> tuple:
        return tuple(sorted((float(w) for w in self.weights)))

    def __str__(self):
        names = ["inf" if w == math.inf else str(w) for w in sorted(
            self.weights, key=float
        )]
        return "(" + ",".join(names) + ")"


_LATTES_SIGNATURES = {
    (2.0, 2.0, 2.0, 2.0),
    (3.0, 3.0, 3.0),
    (2.0, 4.0, 4.0),
    (2.0, 3.0, 6.0),
}


def _orbifold_weights(f: RationalMap, depth: int, tol: float):
    """(representatives, nu) for the canonical orbifold, or None if the
    postcritical truncation does not close.

    nu(p) is the lcm of the local degrees deg_c(f^k) over all critical
    chains f^k(c) = p; a critical point inside a cycle forces weight
    infinity (detected via the WEIGHT_CAP)."""
    trunc = postcritical_truncation(f, depth, tol)
    if not trunc.closed:
        return None
    crit = trunc.critical
    reps: list[ProjPoint] = []

    def rep_index(p: ProjPoint) -> int:
        for i, q in enumerate(reps):
            if chordal(p, q) <= 10 * tol:
                return i
        reps.append(p)
        return len(reps) - 1

    def local_degree(p: ProjPoint) -> int:
        for q, m in crit:
            if chordal(p, q) <= 10 * tol:
                return m + 1
        return 1

    nu: dict[int, float] = {}
    max_steps = 4 * (len(trunc.points) + 2)
    for c, mult in crit:
        acc: float = mult + 1
        x = f.evaluate_float(c)
        for _ in range(max_steps):
            i = rep_index(x)
            cur = nu.get(i, 1)
            new = _lcm_w(cur, acc)
            if new == cur and acc > 1:
                break  # stable along this chain
            nu[i] = new
            acc = acc * local_degree(x)
            if acc > WEIGHT_CAP:
                acc = math.inf
            x = f.evaluate_float(x)
    return reps, nu


def orbifold_signature(
    f: RationalMap, depth: int = 48, tol: float = 1e-8
) -> OrbifoldSignature | None:
    """Canonical orbifold weights of a PCF map, None when the postcritical
    truncation does not close (NotPCF at this depth/tolerance)."""
    got = _orbifold_weights(f, depth, tol)
    if got is None:
        return None
    reps, nu = got
    points = tuple((reps[i], w) for i, w in nu.items() if w > 1)
    return OrbifoldSignature(weights=tuple(w for _, w in points), points=points)


def _lcm_w(a, b):
    if a == math.inf or b == math.inf:
        return math.inf
    l = a * b // math.gcd(int(a), int(b))
    return math.inf if l > WEIGHT_CAP else l


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------


@dataclass
class ExceptionalClass:
    """Decision: power | chebyshev | lattes-flexible | lattes-rigid |
    not-exceptional | undetermined, with the evidence trace."""

    kind: str
    sign: str | None = None
    degree: int | None = None
    reason: str = ""
    evidence: dict = field(default_factory=dict)

    def __str__(self):
        if self.kind in ("power", "chebyshev"):
            return f"{self.kind}({self.sign}, {self.degree})"
        return self.kind + (f": {self.reason}" if self.reason else "")


def _exact_field_violation(f: RationalMap, max_period: int, cap=None):
    """(violation, linear): the one exact walk of the classifier.

    ``violation`` is an exact certificate (n, q, why) that the multipliers
    cannot all lie in Z or in the integers of one imaginary quadratic field,
    or None.  Without one, ``linear`` says whether every factor up to
    max_period was linear (every multiplier a rational integer); otherwise
    every factor is linear or an integral quadratic of one imaginary field.
    Periods are factored one at a time, up to the first violation; an error
    at a period (the exact cap included) or a parabolic period ends the walk
    with (None, None), so a violation at a lower period stands."""
    from .spectra import multiplier_factors

    d0, linear = None, True
    for n in range(1, max_period + 1):
        try:
            factors = multiplier_factors(f, n, cap=cap).factors
        except RatdynError:
            return None, None
        if any(m % n for _q, m in factors):
            return None, None  # not whole cycles (parabolic degeneracy)
        for q, _m in factors:
            degq = len(q) - 1
            if any(c.denominator != 1 for c in q):
                return (n, q, "factor is not an algebraic integer"), None
            if degq >= 3:
                return (n, q, "irreducible factor of degree >= 3"), None
            if degq == 2:
                linear = False
                disc = int(q[1] * q[1] - 4 * q[0])
                if disc > 0:
                    return (n, q, "real quadratic multiplier"), None
                # Q(sqrt d0) = Q(sqrt disc) iff d0 disc is a square
                d0 = disc if d0 is None else d0
                if math.isqrt(d0 * disc) ** 2 != d0 * disc:
                    return (n, q, "multipliers span two imaginary quadratic fields"), None
    return None, linear


def classify(
    f: RationalMap,
    max_period: int = 3,
    depth: int = 48,
    tol: float = 1e-8,
    cap: int | None = None,
    seed: int = 0,
) -> ExceptionalClass:
    """Signature-plus-spectra decision tree.  Every map first takes the one
    exact walk (:func:`_exact_field_violation`): a factor outside Z and the
    integers of every imaginary quadratic field -> not-exceptional, whatever
    the float signature says (it cannot tell z^3 + 3e-20 z from z^3).
    Otherwise the signature names the kind: (inf, inf) -> power and
    (2, 2, inf) -> chebyshev; the four Lattès signatures -> lattes-flexible
    when the walk found every factor linear, lattes-rigid when it found an
    imaginary quadratic one, and numeric multipliers decide where the walk
    has no evidence; anything else -> undetermined.
    """
    sig = orbifold_signature(f, depth=depth, tol=tol)
    key = sig.key() if sig is not None else None
    evidence: dict = {"signature": str(sig) if sig else "NotPCF"}
    viol, linear = _exact_field_violation(f, max_period, cap=cap)
    if viol is not None:
        n, q, why = viol
        evidence["violation"] = {
            "period": n,
            "factor": poly_to_str(list(q), "λ"),
            "why": why,
        }
        return ExceptionalClass(
            "not-exceptional",
            degree=f.degree,
            reason=f"period-{n} factor violates every candidate field",
            evidence=evidence,
        )
    if key == (math.inf, math.inf):
        s = _fix_or_swap_sign(f, sig, math.inf, tol)
        return ExceptionalClass("power", sign=s, degree=f.degree, evidence=evidence)
    if key == (2.0, 2.0, math.inf):
        s = "+" if f.degree % 2 == 0 else _fix_or_swap_sign(f, sig, 2, tol)
        return ExceptionalClass("chebyshev", sign=s, degree=f.degree, evidence=evidence)
    if key in _LATTES_SIGNATURES:
        return _classify_lattes(f, max_period, evidence, linear, seed=seed)
    reason = (
        "postcritical set did not close within depth"
        if sig is None
        else f"unrecognized signature {sig}"
    )
    return ExceptionalClass(
        "undetermined", degree=f.degree, reason=reason, evidence=evidence
    )


def _fix_or_swap_sign(f: RationalMap, sig, weight, tol: float) -> str:
    """'+' when f fixes the two weight-`weight` orbifold points of sig, '-'
    when it swaps them (conjugation-invariant)."""
    pts = [p for p, w in sig.points if w == weight]
    if len(pts) != 2:
        return "+"
    a, b = pts
    fa = f.evaluate(a)
    if chordal(fa, a) <= 100 * tol:
        return "+"
    if chordal(fa, b) <= 100 * tol:
        return "-"
    return "+"


def _classify_lattes(f, max_period, evidence, linear, seed=0) -> ExceptionalClass:
    """The flexible/rigid split of a Lattès signature, read from the exact
    walk's ``linear`` (no violation found), else from numeric multipliers."""
    if linear is not None:
        evidence["integrality"] = "AllRationalIntegers" if linear else "AllAlgebraicIntegers"
        kind = "lattes-flexible" if linear else "lattes-rigid"
        return ExceptionalClass(kind, degree=f.degree, evidence=evidence)
    if f.exact:
        evidence["spectra"] = "unavailable: exact cap, Q(i) coefficients or a parabolic period"
    # no exact evidence: numeric multipliers decide rigid vs undetermined
    from .periodic import cycles_of_period

    gaussian_like = True
    nonreal = False
    try:
        for n in range(1, max_period + 1):
            cycles, _ = cycles_of_period(f, n, seed=seed)
            for c in cycles:
                lam = c.multiplier
                if abs(lam.real - round(lam.real)) > 1e-6 * (1 + abs(lam)) or abs(
                    lam.imag - round(lam.imag)
                ) > 1e-6 * (1 + abs(lam)):
                    gaussian_like = False
                if abs(lam.imag) > 1e-6 * (1 + abs(lam)):
                    nonreal = True
    except RatdynError:
        gaussian_like = False
    evidence["numeric-multipliers"] = {
        "gaussian_like": gaussian_like,
        "nonreal": nonreal,
    }
    if gaussian_like and nonreal:
        return ExceptionalClass(
            "lattes-rigid",
            degree=f.degree,
            reason="numeric multipliers are non-real quadratic integers",
            evidence=evidence,
        )
    return ExceptionalClass(
        "undetermined",
        degree=f.degree,
        reason="Lattès signature; exact coefficients needed for the "
        "flexible/rigid split",
        evidence=evidence,
    )
