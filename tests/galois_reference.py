"""Test-only reference: Galois sets and point counts as ratdyn computed them
before both moved onto the certified residue rings.

* ``galois_orbit_sets`` decides how f acts on the irreducible factors of
  dyn by floats: the image of one numeric root of each factor is matched
  to the nearest numeric root of any factor, the matches are merged by a
  union-find, and the Infinity cycle joins the set holding a point within
  chordal distance 1e-8 of one of its finite points.
* ``point_counts`` runs the multiplier orbit a second time, modulo a word
  prime, in F_p[z]/(s) (``PrimeResidueRing``), and counts the roots of s
  behind each factor q by deg gcd(s, Hom(q)(prod W, Y_n^2)) there.

``PrimeResidueRing`` also serves ``two_route_reference``'s modular split.
"""

from fractions import Fraction

import numpy as np

from ratdyn import config
from ratdyn.errors import DegreeCapExceeded, RatdynError
from ratdyn.periodic import dynatomic_numerator, infinity_exact_period
from ratdyn.polys import (
    FpModulus,
    factor_int_poly,
    fp_array,
    fp_gcd,
    fp_mul,
    fp_strip,
    pdeg,
    poly_to_str,
    word_primes,
)
from ratdyn.roots import solve_poly
from ratdyn.spectra import GaloisPeriodicSet, ResidueField, _ensure_exact_rational
from ratdyn.sphere import INF, ProjPoint, chordal, hom_eval


class PrimeResidueRing(ResidueField):
    """F_p[z]/(g), p not dividing lc(g), with g made monic mod p (lead 1),
    so :meth:`ResidueField.multiplier_orbit` runs mod p from (z, 1).
    Elements hold numpy int64 residues; products use the kernels of polys."""

    def __init__(self, modulus, p: int):
        self.p, self.lead = p, 1
        self.red = FpModulus(modulus, p)
        self.degree = self.red.m

    def elt(self, coeffs) -> "FpElt":
        return FpElt(self, self.red.reduce(fp_array(coeffs, self.p)))


class FpElt:
    __slots__ = ("ring", "c")

    def __init__(self, ring: PrimeResidueRing, c):
        self.ring = ring
        self.c = c

    def __add__(self, o):
        a, b = (self.c, o.c) if len(self.c) >= len(o.c) else (o.c, self.c)
        out = a.copy()
        out[: len(b)] += b
        return FpElt(self.ring, fp_strip(out % self.ring.p))

    def __mul__(self, o):
        ring = self.ring
        if isinstance(o, FpElt):
            return FpElt(ring, ring.red.reduce(fp_mul(self.c, o.c, ring.p)))
        return FpElt(ring, fp_strip(self.c * (o % ring.p) % ring.p))

    __rmul__ = __mul__


def point_counts(f, n: int, s: list[int], qs: list[list[int]]) -> list[int]:
    """How many roots of the squarefree s have their multiplier among the
    roots of each primitive q in qs, by one multiplier orbit in F_p[z]/(s)
    at the first word prime where the gcd degrees sum to deg s."""
    m = pdeg(s)
    if len(qs) == 1:
        return [m]
    skipped = 0
    for p in word_primes():
        if s[-1] % p == 0:
            continue
        ring = PrimeResidueRing(s, p)
        acc, y2 = ring.multiplier_orbit(f.int_pair, n)
        counts = [len(fp_gcd(ring.red.f, hom_eval(q, acc, y2).c, p)) - 1 for q in qs]
        if sum(counts) == m:
            return counts
        skipped += 1
        if skipped == 20:
            raise RatdynError("point counts over-counted at 20 word primes")


def galois_orbit_sets(f, n: int, cap=None, seed: int = 0) -> list[GaloisPeriodicSet]:
    """The exact-period-n points split into Galois-stable sets by float
    matching of factor images, a union-find and a chordal Infinity test."""
    _ensure_exact_rational(f)
    cap = cap if cap is not None else config.EXACT_DEGREE_CAP
    d = f.degree
    if d**n + 1 > cap:
        raise DegreeCapExceeded(f"d^n + 1 = {d ** n + 1} exceeds exact cap {cap}")
    dyn_int = dynatomic_numerator(f, n, cap=max(cap, d**n + 2))
    groups: list[dict] = []
    if pdeg(dyn_int) >= 1:
        _, irr = factor_int_poly(dyn_int)
        fac_roots = []
        for q, mult in irr:
            roots = solve_poly(np.array([float(c) for c in q], dtype=complex), seed=seed)
            fac_roots.append((q, mult, [complex(r) for r in roots]))

        def owner(z: complex) -> int:
            best, bi = None, -1
            for i, (_q, _m, roots) in enumerate(fac_roots):
                dd = min(abs(z - r) for r in roots)
                if best is None or dd < best:
                    best, bi = dd, i
            return bi

        parent = list(range(len(fac_roots)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i, j):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

        for i, (_q, _m, roots) in enumerate(fac_roots):
            img = f.evaluate(ProjPoint.finite(roots[0]))
            if img.is_infinity:
                continue
            union(i, owner(complex(img.z)))
        clusters: dict[int, list[int]] = {}
        for i in range(len(fac_roots)):
            clusters.setdefault(find(i), []).append(i)
        for _root_i, members in sorted(clusters.items()):
            tags, pts, count = [], [], 0
            for i in members:
                q, _mult, roots = fac_roots[i]
                lead = Fraction(q[-1])
                tags.append(poly_to_str([Fraction(c) / lead for c in q], "z"))
                pts.extend(ProjPoint.finite(r) for r in roots)
                count += pdeg(q)
            groups.append({"tags": tags, "points": pts, "count": count})
    inf_period, inf_orbit = infinity_exact_period(f, n)
    if inf_period == n:
        finite = [p for p in inf_orbit if not p.is_infinity]
        target = next(
            (g for g in groups
             if any(chordal(p, q) < 1e-8 for p in finite for q in g["points"])),
            None,
        )
        if target is None:
            groups.append({"tags": ["(infinity cycle)"], "points": [INF], "count": 1})
        else:
            target["points"].append(INF)
            target["count"] += 1
            target["tags"].append("(infinity)")
    return [
        GaloisPeriodicSet(
            period=n,
            factor_tags=g["tags"],
            points=g["points"],
            cycle_count=g["count"] // n if g["count"] % n == 0 else 0,
            point_count=g["count"],
        )
        for g in groups
    ]
