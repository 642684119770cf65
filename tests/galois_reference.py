"""Test-only reference: point counts as ratdyn computed them before they
moved onto the certified residue rings.

``point_counts`` runs the multiplier orbit a second time, modulo a word
prime, in F_p[z]/(s) (``PrimeResidueRing``), and counts the roots of s
behind each factor q by deg gcd(s, Hom(q)(prod W, Y_n^2)) there.

``PrimeResidueRing`` also serves ``two_route_reference``'s modular split.
"""

from ratdyn.errors import RatdynError
from ratdyn.polys import FpModulus, fp_array, fp_gcd, fp_mul, fp_strip, pdeg, word_primes
from ratdyn.spectra import ResidueField
from ratdyn.sphere import hom_eval


class PrimeResidueRing(ResidueField):
    """F_p[z]/(g), p not dividing lc(g), with g made monic mod p, so
    :meth:`ResidueField.multiplier_orbit` runs mod p from (z, 1).
    Elements hold numpy int64 residues; products use the kernels of polys."""

    def __init__(self, modulus, p: int):
        self.p = p
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
