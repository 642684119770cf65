"""Test-only reference: exact spectra by the two routes ratdyn used before
the whole-algebra minimal polynomial.

* The integer fast path: the numeric cycles (in doubles) propose each
  integer multiplier c and how many finite period-n points carry it; the
  factor g_c = gcd(dyn, prod W - c Y_n^2) is found in F_p[z] at word
  primes, lifted by CRT up to the Mignotte bound, and certified by exact
  division plus the residue identity prod W = c Y_n^2 in Q[z]/(g).
* The generic route: whatever remains is factored over Z (sympy), and each
  irreducible factor q contributes the minimal polynomial of its
  multiplier in Q[z]/(q).

It shares Q[z]/(q), the F_p kernels, ``minimal_polynomial`` and the CRT
step with the production route, and F_p[z]/(g) (``PrimeResidueRing``) with
``galois_reference``; the split in z, the numeric proposal and the
per-cluster certificate are its own.  The names it uses from
``ratdyn`` are bound here, so tests can monkeypatch them on this module.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from ratdyn import config
from ratdyn.errors import InexactDivision, RatdynError, SpectrumNotRational
from ratdyn.periodic import (
    dynatomic_numerator,
    group_cycles,
    infinity_exact_period,
    multiplier as cycle_multiplier,
    periodic_points,
)
from ratdyn.polys import (
    factor_int_poly,
    fp_gcd,
    idivexact,
    iprimitive,
    isquarefree,
    pdeg,
    word_primes,
)
from ratdyn.scalars import Qi
from ratdyn.spectra import (
    ResidueField,
    _crt_extend,
    minimal_polynomial,
    multiplier_element,
)

from galois_reference import PrimeResidueRing


@dataclass
class TwoRoutePeriod:
    """One period's factors (point-level multiplicity), as the old
    ``PeriodFactors``: ``routes`` as (factor, points, "fast" | "generic"),
    ``rejected`` as (multiplier, points, reason) for the turned-down
    numeric proposals."""

    factors: list
    point_count: int
    routes: list = field(default_factory=list)
    rejected: list = field(default_factory=list)


def _certify_integer_multiplier(f, n, g, c) -> bool:
    """Exact check that every root of g has multiplier exactly c:
    prod W(X_j, Y_j) == c * Y_n^2 in Q[z]/(g), ints over int denominators."""
    acc, y2 = ResidueField(g).multiplier_orbit(f.int_pair, n)
    return acc == y2 * c


def _modular_split(f, n, dyn, sizes):
    """Split the squarefree primitive dyn along proposed integer multipliers.

    The roots of dyn with multiplier c are those of g_c = gcd(dyn, prod W -
    c Y_n^2).  Per prime p, one homogeneous orbit in F_p[z]/(rest) gives
    both residues and fp_gcd gives g_c mod p, where rest is dyn without the
    factors certified so far.  A prime whose gcd degree differs from the
    numeric cluster size sizes[c] is skipped, and three such primes end the
    proposal.  The images, scaled to lc(dyn), are combined by CRT until they
    stop changing or reach the Mignotte bound; the primitive part must then
    divide rest exactly and pass the residue certificate.

    Returns (rest, {c: g_c}, {c: reason}).
    """
    lead = dyn[-1]
    norm_bits = abs(lead).bit_length() + (sum(a * a for a in dyn).bit_length() + 1) // 2 + 1
    lifts = {c: ([0] * (k + 1), 1, 0) for c, k in sizes.items()}  # (G, M, misses)
    rest = dyn
    found, rejected = {}, {}
    for p in word_primes():
        if not lifts:
            break
        if lead % p == 0:
            continue
        ring = PrimeResidueRing(rest, p)
        acc, y2 = ring.multiplier_orbit(f.int_pair, n)
        for c, (G, M, misses) in list(lifts.items()):
            h = fp_gcd(ring.red.f, (acc + y2 * -c).c, p)
            if len(h) != len(G):
                lifts[c] = (G, M, misses + 1)
                if misses + 1 == 3:
                    del lifts[c]
                    rejected[c] = ("gcd degree never matched" if M == 1
                                   else "gcd degree mismatched at 3 primes")
                continue
            G, M, stable = _crt_extend(G, M, h * (lead % p) % p, p)
            lifts[c] = (G, M, misses)
            at_bound = M.bit_length() > sizes[c] + norm_bits
            if not (stable or at_bound):
                continue
            g = iprimitive(G)[0]
            try:
                cofactor = idivexact(rest, g)
            except InexactDivision:
                cofactor = None
            if cofactor is not None and _certify_integer_multiplier(f, n, g, c):
                rest = cofactor
                found[c] = g
                del lifts[c]
            elif at_bound:
                del lifts[c]
                rejected[c] = "certificate failed at Mignotte bound"
    return rest, found, rejected


def _fast_path_split(f, n, dyn, add_factor, rejected, seed, cap):
    """Peel off certified integer-multiplier factors; returns the cofactor.
    The numeric stage only proposes each integer multiplier c and how many
    finite period-n points carry it."""
    try:
        pts, _rep = periodic_points(
            f, n, tol=1e-9, seed=seed, cap=max(config.NUMERIC_DEGREE_CAP, cap + 2)
        )
        cycles = group_cycles(f, pts, n, tol=1e-12)
    except RatdynError as exc:
        rejected.append((None, pdeg(dyn), f"numeric stage failed: {exc}"))
        return dyn
    sizes = {}
    for cyc in cycles:
        lam = cyc.multiplier
        c = round(lam.real)
        tol = 1e-6 * (1 + abs(lam))
        if abs(lam.real - c) > tol or abs(lam.imag) > tol:
            continue
        finite = sum(not p.is_infinity for p in cyc.points)
        if finite:
            sizes[int(c)] = sizes.get(int(c), 0) + finite
    remaining, found, why = _modular_split(f, n, dyn, dict(sorted(sizes.items())))
    for c, g in sorted(found.items()):
        add_factor((Fraction(-c), Fraction(1)), pdeg(g), "fast")
    rejected.extend((c, sizes[c], why[c]) for c in sorted(why))
    return remaining


def multiplier_factors(f, n, cap=None, seed=0) -> TwoRoutePeriod:
    """The irreducible factorization of P_n over Q by the two old routes."""
    if not f.exact or f.int_pair is None:
        raise SpectrumNotRational("exact spectra need a map over Q")
    cap = cap if cap is not None else config.EXACT_DEGREE_CAP
    dyn = dynatomic_numerator(f, n, cap=max(cap, f.degree**n + 2))
    factors, routes, rejected = {}, [], []

    def add_factor(fac, points, route):
        key = tuple(Fraction(c) for c in fac)
        factors[key] = factors.get(key, 0) + points // (len(key) - 1)
        routes.append((key, points, route))

    total = pdeg(dyn) if dyn else 0
    inf_period, inf_orbit = infinity_exact_period(f, n)
    if inf_period == n:
        lam = cycle_multiplier(f, inf_orbit)
        assert isinstance(lam, Qi) and lam.is_real()
        add_factor((-lam.re, Fraction(1)), 1, "fast")
        total += 1
    remaining = dyn
    if pdeg(remaining) >= 1 and isquarefree(remaining):
        remaining = _fast_path_split(f, n, remaining, add_factor, rejected, seed, cap)
    if pdeg(remaining) >= 1:
        for q, mult in factor_int_poly(remaining)[1]:
            mu = minimal_polynomial(*multiplier_element(f, n, q))
            add_factor(mu, mult * pdeg(q), "generic")
    out = sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))
    assert sum(m * (len(k) - 1) for k, m in out) == total
    return TwoRoutePeriod(out, total, routes, rejected)
