"""Dense univariate polynomial kit.

Four coefficient domains, all ascending [a0, a1, ...]:

* plain ints for all exact work on maps with rational coefficients: a
  rational map is scaled once to a primitive integer pair
  (``RationalMap.int_pair``), and composition, dynatomic division,
  squarefree decomposition and factorization stay in Z[z]:
  :func:`ipmul` multiplies long integer polynomials by Kronecker
  substitution, :func:`rational_roots` finds rational roots by one small
  prime and Hensel lifting, :func:`proven_irreducible` proves
  irreducibility by factor degrees mod small primes (distinct-degree
  factorization on plain int lists over F_q), and sympy factors the rest;
* Qi for maps with genuine Gaussian-rational coefficients, and Fraction
  for the monic rational factors that the spectra report;
* complex floats (handled mostly in :mod:`ratdyn.roots` with numpy);
* residues mod a prime p < 2^30 as numpy int64 arrays, for the modular
  minimal polynomials and point counts of the exact spectra:
  :func:`fp_mul` multiplies by a float FFT on 15-bit limbs,
  :class:`FpModulus` reduces by Barrett's method (its inverse series is
  built at the first reduction that needs one), inverts by the extended
  Euclid algorithm and finds minimal polynomials by Krylov elimination,
  taking all but the first few powers as one product with the
  multiplication matrix (:func:`fp_vecmat`, exact on 10-bit limbs for m <
  2^13), and :func:`fp_gcd` is Euclid with one vector update per
  elimination step.

:func:`hom_eval` is the one Horner loop: it evaluates a homogeneous form
at (X, Y), and a polynomial p at x as ``hom_eval(p, x, 1)``.  X and Y may
be int, Fraction, Qi or complex (Python or numpy, scalars or arrays),
residue-field elements (``spectra.FieldElt``) or :class:`Poly`, which wraps
a coefficient list as a ring element, so that the same loop composes and
substitutes polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd as _igcd, isqrt
from operator import mul

import numpy as np

from .errors import InexactDivision
from .scalars import Qi

# ----------------------------------------------------------------------
# generic field polynomials (ascending coefficient lists)
# ----------------------------------------------------------------------


def pstrip(p):
    """Drop trailing zero coefficients (zero poly -> [])."""
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return list(p[:n])


def pdeg(p) -> int:
    """Degree, -1 for the zero polynomial."""
    return len(pstrip(p)) - 1


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return pstrip(out)


def psub(a, b):
    return padd(a, [-c for c in b])


def pscale(a, c):
    return pstrip([c * x for x in a])


def pmul(a, b):
    a, b = pstrip(a), pstrip(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
    return pstrip(out)


def hom_eval(coeffs, X, Y, partials: bool = False):
    """Sum c[i] X^i Y^(d-i), d = len(coeffs) - 1, by Horner in X; with
    ``partials`` the triple (value, d/dX, d/dY).

    Only ``+`` and ``*`` are used (ints enter as factors only), so one loop
    serves numpy arrays, exact scalars and ring elements alike: int
    coefficients over ``FieldElt`` or int :class:`Poly` arguments keep every
    result in Z, and :class:`Poly` arguments compose or substitute
    polynomials (``f^n`` in ``periodic.compose_hom``, Moebius conjugation
    in ``sphere.conjugate``).  Float operation order is fixed: Y^k is built
    by repeated ``* Y`` starting from 1, and each derivative weight
    multiplies its coefficient before the power of Y.
    """
    d = len(coeffs) - 1
    val, Yp = coeffs[d], 1
    if partials:
        vx, vy = d * coeffs[d], 0
    for i in range(d - 1, -1, -1):
        Yn = Yp * Y
        val = val * X + coeffs[i] * Yn
        if partials:
            if i > 0:
                # degree d-1 form: exactly d-1 Horner multiplies (i = d-1..1)
                vx = vx * X + i * coeffs[i] * Yn
            vy = vy * X + (d - i) * coeffs[i] * Yp
        Yp = Yn
    return (val, vx, vy) if partials else val


class Poly:
    """A polynomial as a ring element: ``+`` is :func:`padd`, ``*`` is
    :func:`pmul`, and a scalar factor ``c`` (on either side) is
    ``pscale(p, c)``, i.e. ``c * a_i`` coefficient by coefficient.  The
    coefficients keep their type (int, Qi, complex)."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = pstrip(c)

    def __add__(self, o):
        return Poly(padd(self.c, o.c))

    def __mul__(self, o):
        if isinstance(o, Poly):
            return Poly(pmul(self.c, o.c))
        return Poly(pscale(self.c, o))

    __rmul__ = __mul__


def pderiv(p):
    return pstrip([i * c for i, c in enumerate(p)][1:])


def pdivmod(a, b):
    """Division over a field (coefficients must support true division)."""
    a, b = pstrip(a), pstrip(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        top = r[k + len(b) - 1]
        if top:
            c = top / lb
            q[k] = c
            for i, cb in enumerate(b):
                r[k + i] = r[k + i] - c * cb
    return pstrip(q), pstrip(r[: len(b) - 1])


def pexactdiv(a, b):
    q, r = pdivmod(a, b)
    if r:
        raise InexactDivision("polynomial division left a remainder")
    return q


def pgcd(a, b):
    """Monic gcd over a field (Euclid). Fine at construction-time degrees."""
    a, b = pstrip(a), pstrip(b)
    while b:
        _, r = pdivmod(a, b)
        a, b = b, r
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def ppad(p, length: int, zero=0):
    """p as a list of exactly `length` coefficients, padded with `zero`."""
    return list(p) + [zero] * (length - len(p))


# ----------------------------------------------------------------------
# integer polynomials
# ----------------------------------------------------------------------


def iprimitive(p):
    """Primitive part with positive leading coefficient; returns (prim, content)."""
    p = pstrip(p)
    if not p:
        return [], 0
    g = _igcd(*p) if p[-1] > 0 else -_igcd(*p)
    return [c // g for c in p], g


def idivexact(a, b):
    """Exact division in Z[z]; raises InexactDivision otherwise."""
    a, b = pstrip(list(a)), pstrip(list(b))
    if not b:
        raise ZeroDivisionError
    if not a:
        return []
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise InexactDivision("degree too small for exact division")
    lb = b[-1]
    q = [0] * (da - db + 1)
    r = list(a)
    for k in range(da - db, -1, -1):
        top = r[k + db]
        if top % lb:
            raise InexactDivision("leading coefficient does not divide")
        c = top // lb
        q[k] = c
        if c:
            for i, cb in enumerate(b):
                r[k + i] -= c * cb
    if any(r):
        raise InexactDivision("nonzero remainder")
    return pstrip(q)


def ipmul(a, b):
    """a * b in Z[z] by Kronecker substitution: each factor is packed into
    one int with a slot of 8 k bits per coefficient, the two are multiplied
    once (Karatsuba inside CPython), and the signed slots are read back.  A
    slot holds twice the coefficient bound len * max|a_i| * max|b_j|, so the
    offset 2^(8k-1) in every slot makes each slot a plain base-2^(8k) digit.
    Short factors take the schoolbook :func:`pmul`."""
    a, b = pstrip(a), pstrip(b)
    if min(len(a), len(b)) < 16:
        return pmul(a, b)
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    k, n = bound.bit_length() // 8 + 1, len(a) + len(b) - 1
    zero = bytes(k)

    def pack(p):
        pos = b"".join(c.to_bytes(k, "little") if c > 0 else zero for c in p)
        neg = b"".join((-c).to_bytes(k, "little") if c < 0 else zero for c in p)
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    half = 1 << (8 * k - 1)
    offset = int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")
    raw = (pack(a) * pack(b) + offset).to_bytes(n * k, "little")
    return pstrip([int.from_bytes(raw[i : i + k], "little") - half for i in range(0, n * k, k)])


def isquarefree(p) -> bool:
    """Squarefree test in Z[z]: a trivial gcd(p, p') at a good word prime
    certifies it; otherwise sympy decides exactly."""
    p = pstrip(p)
    if pdeg(p) <= 1:
        return True
    q = next(q for q in word_primes() if p[-1] % q)
    # a gcd mod q can only overestimate, so a nontrivial one is inconclusive
    return len(fp_gcd(fp_array(p, q), fp_array(pderiv(p), q), q)) == 1 or _sympy_int_poly(p).is_sqf


def squarefree_decomposition(p):
    """[(s_k, k), ...] with p = c * prod s_k^k over Z, the s_k squarefree,
    pairwise coprime, primitive with positive lead: p itself when
    :func:`isquarefree` certifies it, else sympy's decomposition."""
    if isquarefree(p):
        return [(iprimitive(p)[0], 1)]
    _, pairs = _sympy_int_poly(pstrip(p)).sqf_list()
    return [([int(c) for c in reversed(s.all_coeffs())], int(k)) for s, k in pairs]


def _sympy_int_poly(p):
    from sympy import Poly, Symbol, ZZ

    return Poly([int(c) for c in reversed(p)], Symbol("z"), domain=ZZ)


def factor_int_poly(p):
    """Irreducible factorization in Z[z] via sympy.

    Returns (content, [(factor_ascending_ints, multiplicity), ...]) with
    primitive positive-lead factors.
    """
    content, pairs = _sympy_int_poly(pstrip(p)).factor_list()
    return int(content), [([int(c) for c in reversed(f.all_coeffs())], int(m)) for f, m in pairs]


def rational_roots(p):
    """The rational roots, ascending, of a squarefree polynomial in Z[z].

    At the first of :func:`_good_primes` q, each rational root a/b is a
    distinct simple root mod q.  Every root mod q is Newton lifted until
    q^k > 4 max|p_i|, at least 2 |lc| times Cauchy's root bound; b divides
    lc = lc(p), so lc a/b is then the balanced residue of lc r, and a/b is
    kept when p(a/b) = 0 exactly (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 15)."""
    p = pstrip(p)
    lc, dp, q = p[-1], pderiv(p), next(_good_primes(p))
    roots, mod = [r for r in range(q) if hom_eval(p, r, 1) % q == 0], q
    while mod <= 4 * max(map(abs, p)):
        mod *= mod
        roots = [(r - hom_eval(p, r, 1) * pow(hom_eval(dp, r, 1), -1, mod)) % mod
                 for r in roots]
    out = [Fraction(a - mod if 2 * a > mod else a, lc) for a in (lc * r % mod for r in roots)]
    return sorted(r for r in out if hom_eval(p, r, 1) == 0)


def proven_irreducible(p) -> bool:
    """True when a squarefree p in Z[z] of degree n >= 1 is proven
    irreducible over Q by the degrees of its factors mod small primes;
    False means unproven, not reducible (Musser, J. ACM 25, 1978).

    Soundness.  At each q of :func:`_good_primes`, q does not divide lc(p)
    and p mod q is squarefree.  A factor g of p over Z (Gauss's lemma) has
    a lead dividing lc(p), so g mod q keeps the degree of g, and it divides
    p mod q; by unique factorization in F_q[z] it is the product of some of
    the distinct irreducible factors of p mod q, whose degrees
    :func:`_fq_factor_degrees` finds.  So deg g is a subset sum of those
    degrees at every such q, and once the intersection of the subset-sum
    sets (bit masks) is {0, n}, p has no factor of degree 1..n-1.

    Polynomials whose Galois group has no n-cycle, such as z^4 - 10 z^2 + 1,
    split mod every prime and are never proven; the search gives up after 3
    usable primes in a row leave the set unchanged, or after 20."""
    full, allowed, usable, still = 1 | 1 << (len(p) - 1), (1 << len(p)) - 1, 0, 0
    for q in _good_primes(p):
        sums = 1
        for d in _fq_factor_degrees(p, q):
            sums |= sums << d
        usable, still = usable + 1, still + 1 if allowed & sums == allowed else 0
        allowed &= sums
        if allowed == full or usable == 20 or still == 3:
            return allowed == full


def _good_primes(p):
    """The odd primes q, ascending, that do not divide lc(p) and keep p
    squarefree mod q (a constant gcd(p, p') over F_q): all but finitely
    many when p in Z[z] is squarefree."""
    dp = pderiv(p)
    for q in range(3, 1 << 30, 2):
        if (all(q % r for r in range(3, isqrt(q) + 1, 2)) and p[-1] % q
                and len(_fq_gcd(_fq_strip(p, q), _fq_strip(dp, q), q)) == 1):
            yield q


def _fq_strip(a, q: int):
    """An integer polynomial as a list over F_q, trailing zeros dropped."""
    a = [c % q for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _fq_gcd(a, b, q: int):
    """A gcd of two lists from :func:`_fq_strip` by Euclid (not monic)."""
    while b:
        r, lb, inv = list(a), len(b), pow(b[-1], -1, q)
        for k in range(len(r) - lb, -1, -1):
            c = r[k + lb - 1] * inv % q
            r[k : k + lb] = [x - c * y for x, y in zip(r[k : k + lb], b)]
        a, b = b, _fq_strip(r[: lb - 1], q)
    return a


def _fq_factor_degrees(p, q: int):
    """The degrees of the irreducible factors over F_q of p in Z[z], of
    degree n >= 1, squarefree mod q and with q not dividing lc(p):
    distinct-degree factorization on plain int lists.  The rows of the
    Frobenius matrix are z^(q j) mod p, so h = z^(q^i) mod p costs one
    vector-matrix product from z^(q^(i-1)), and deg gcd(p, h - z) is the
    sum of d N_d over the d dividing i, N_d factors having degree d (von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 14)."""
    inv, n = pow(p[-1], -1, q), len(p) - 1
    f = [c * inv % q for c in p]
    rows, h = [], [1] + [0] * (n - 1)
    for k in range(q * (n - 1) + 1):
        if k % q == 0:
            rows.append(h)
        top, h = h[-1], [0] + h[:-1]
        h = [(a - top * b) % q for a, b in zip(h, f)]
    cols, found, h, i = list(zip(*rows)), [], [0, 1] + [0] * (n - 2), 0
    while 2 * (i + 1) <= n - sum(found):
        i += 1
        h = [sum(map(mul, h, col)) % q for col in cols]
        roots = len(_fq_gcd(f, _fq_strip([h[0], h[1] - 1] + h[2:], q), q)) - 1
        found += [i] * ((roots - sum(d for d in found if i % d == 0)) // i)
    return found + [n - sum(found)] * (sum(found) < n)


def int_poly_irreducible(p) -> bool:
    """Whether p in Z[z] is irreducible over Q: at degree 2 iff its
    discriminant is not a square; above, when squarefree, by
    :func:`proven_irreducible` or else by sympy."""
    p = pstrip(p)
    if pdeg(p) == 2:
        disc = p[1] * p[1] - 4 * p[0] * p[2]
        return disc < 0 or isqrt(disc) ** 2 != disc
    return pdeg(p) >= 1 and isquarefree(p) and (
        proven_irreducible(p) or len(factor_int_poly(p)[1]) == 1)


# ----------------------------------------------------------------------
# polynomials over F_p: numpy int64 arrays, p a prime below 2^30
# ----------------------------------------------------------------------


def word_primes():
    """The primes below 2^30 in descending order (Miller-Rabin with the
    bases 2, 3, 5, 7, which is deterministic below 3.2e9)."""
    n = 2**30 - 1
    while True:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                break
        else:
            yield n
        n -= 2


def fp_strip(a):
    nz = np.flatnonzero(a)
    return a[: nz[-1] + 1] if nz.size else a[:0]


def fp_array(p, prime: int):
    """An integer polynomial reduced mod prime."""
    return fp_strip(np.array([c % prime for c in p], dtype=np.int64))


def fp_mul(a, b, p: int):
    """a * b over F_p on 15-bit limbs: direct int64 convolutions when a
    factor is short, else a float FFT.  Each limb convolution has entries
    below 2 L 2^30 (L = len(a) + len(b) - 1), so up to L = 2^13 the FFT's
    rounding error stays under 0.01 and np.rint is exact."""
    if not len(a) or not len(b):
        return a[:0]
    if len(a) == 1 or len(b) == 1:
        (s,), v = (a, b) if len(a) == 1 else (b, a)
        return v * int(s) % p
    (a0, a1), (b0, b1) = (a & 0x7FFF, a >> 15), (b & 0x7FFF, b >> 15)
    if min(len(a), len(b)) <= 64:
        conv = np.convolve
        c = np.stack([conv(a0, b0), conv(a0, b1) + conv(a1, b0), conv(a1, b1)]) % p
    else:
        L = len(a) + len(b) - 1
        N = 1 << (L - 1).bit_length()
        (f0, f1), (g0, g1) = np.fft.rfft([a0, a1], N), np.fft.rfft([b0, b1], N)
        prods = np.stack([f0 * g0, f0 * g1 + f1 * g0, f1 * g1])
        c = np.rint(np.fft.irfft(prods, N)[:, :L]).astype(np.int64) % p
    return (c[0] + (c[1] << 15) + c[2] * (2**30 % p)) % p


_LIMB_SHIFTS = np.array([[0], [10], [20]])


def fp_vecmat(v, mat, p: int):
    """v mat over F_p, for residues v (int64) and a float64 matrix of
    residues with at least len(v) rows.  v is split into three 10-bit
    limbs, so every float sum of the one matrix product is an integer below
    len(v) 2^40 < 2^53 and exact in any summation order; longer v raises."""
    if len(v) >= 1 << 13:
        raise ValueError(f"{len(v)} rows overflow the exact float sums")
    limbs = (v >> _LIMB_SHIFTS & 0x3FF).astype(np.float64)
    c = (limbs @ mat[: len(v)]).astype(np.int64) % p
    return (c << _LIMB_SHIFTS).sum(axis=0) % p


def fp_gcd(a, b, p: int):
    """Monic gcd over F_p by Euclid; each elimination step is one vector
    update, so a gcd of degree-m inputs costs O(m) numpy operations."""
    a, b = fp_strip(a % p), fp_strip(b % p)
    while len(b):
        b = b * pow(int(b[-1]), -1, p) % p
        r, lb = a.copy(), len(b)
        for k in range(len(r) - lb, -1, -1):
            c = int(r[k + lb - 1])
            if c:
                r[k : k + lb] = (r[k : k + lb] - c * b) % p
        a, b = b, fp_strip(r[: lb - 1])
    return a * pow(int(a[-1]), -1, p) % p if len(a) else a


def _matrix_step_from(m: int) -> int:
    """The first power that :meth:`FpModulus.minimal_polynomial` takes by
    the multiplication matrix of a modulus of degree m.  Building it costs
    about as much as one or two products below m = 128 (and taken from
    power 2 it spares the Barrett series), and about m / 40 products above.
    So the products spent before it match its cost (ski rental), and deg
    mu <= 3 at m >= 128 never builds it."""
    return max(2, m // 32)


class FpModulus:
    """Arithmetic modulo an integer polynomial f over F_p (p must not
    divide lc f), f made monic mod p.  A remainder of a product costs two
    more products (Barrett; von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 9) with :attr:`rinv`, built lazily: a modulus that never
    reduces a product longer than m never pays for it.  Minimal polynomials
    take most powers by the multiplication matrix instead, one
    :func:`fp_vecmat` each, exact on 10-bit limbs for m < 2^13."""

    def __init__(self, f, p: int):
        f = fp_array(f, p)
        self.p, self.m = p, len(f) - 1
        self.f = f * pow(int(f[-1]), -1, p) % p

    @cached_property
    def rinv(self):
        """The inverse power series of the reversal of f to m - 1 terms, by
        Newton iteration."""
        p, rev, inv, t = self.p, self.f[::-1], np.ones(1, dtype=np.int64), 1
        while t < self.m - 1:
            t = min(2 * t, self.m - 1)
            e = -fp_mul(rev[:t], inv, p)[:t] % p
            e[0] = (e[0] + 2) % p
            inv = fp_mul(inv, e, p)[:t]
        return inv

    def reduce(self, a):
        """a mod f, for len(a) <= max(2m - 1, 2)."""
        k = len(a) - self.m
        if k <= 0:
            return a
        q = fp_mul(a[::-1][:k], self.rinv[:k], self.p)[:k][::-1]
        return fp_strip((a[: self.m] - fp_mul(q, self.f, self.p)[: self.m]) % self.p)

    def inverse(self, a):
        """a^(-1) mod f by the extended Euclid algorithm, or None when
        gcd(a, f) is not 1 over F_p.  Each elimination step is one vector
        update, as in :func:`fp_gcd`."""
        p = self.p
        r0, r1 = self.f, fp_strip(a % p)
        s0, s1 = r1[:0], np.ones(1, dtype=np.int64)
        while len(r1):
            inv, r, lb = pow(int(r1[-1]), -1, p), r0.copy(), len(r1)
            q = np.zeros(len(r) - lb + 1, dtype=np.int64)
            for k in range(len(r) - lb, -1, -1):
                c = int(r[k + lb - 1]) * inv % p
                if c:
                    q[k] = c
                    r[k : k + lb] = (r[k : k + lb] - c * r1) % p
            t = fp_mul(q, s1, p)
            s = np.zeros(max(len(s0), len(t)), dtype=np.int64)
            s[: len(s0)] += s0
            s[: len(t)] -= t
            r0, r1, s0, s1 = r1, fp_strip(r[: lb - 1]), s1, fp_strip(s % p)
        return s0 * pow(int(r0[0]), -1, p) % p if len(r0) == 1 else None

    def multiplication_matrix(self, a):
        """The m x m matrix of multiplication by a (len(a) <= m) in
        F_p[w]/(f), as float64: row i is w^i a mod f, each row the last
        shifted up by one with its top coefficient times f subtracted."""
        p, m, f = self.p, self.m, self.f[: self.m]
        mat = np.zeros((m, m), dtype=np.int64)
        mat[0, : len(a)] = a
        for prev, row in zip(mat, mat[1:]):
            row[1:] = prev[:-1]
            row -= prev[-1] * f
            row %= p
        return mat.astype(np.float64)

    def minimal_polynomial(self, a):
        """Monic minimal polynomial over F_p of a in F_p[z]/(f), ascending:
        Krylov elimination on 1, a, a^2, ..., which stops at the first power
        that depends on the earlier ones.  Each row carries the combination
        of powers it stands for, so the dependency is read off directly.

        The first powers are products reduced by Barrett; from power
        :func:`_matrix_step_from` on, each is one exact :func:`fp_vecmat`
        with the multiplication matrix of a, built once.  At m >= 2^13 that
        step raises rather than round."""
        p, m, switch = self.p, self.m, _matrix_step_from(self.m)
        rows, pivots, power, mat = [], [], np.ones(1, dtype=np.int64), None
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
            if k + 1 < switch:
                power = self.reduce(fp_mul(power, a, p))
                continue
            if mat is None:
                mat = self.multiplication_matrix(a)
            power = fp_vecmat(power, mat, p)


# ----------------------------------------------------------------------
# Fraction <-> integer bridges
# ----------------------------------------------------------------------


def fractions_to_int_primitive(p):
    """Clear denominators of a Fraction poly: returns (int_poly, scale) with
    poly == scale * int_poly and int_poly primitive (positive lead)."""
    p = pstrip([Fraction(c) for c in p])
    if not p:
        return [], Fraction(0)
    den = 1
    for c in p:
        den = den * c.denominator // _igcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    prim, content = iprimitive(ints)
    return prim, Fraction(content, den)


def qi_poly_to_fractions(p):
    out = []
    for c in p:
        q = Qi.coerce(c)
        if not q.is_real():
            raise ValueError("polynomial has nonreal Gaussian coefficients")
        out.append(q.re)
    return pstrip(out)


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------


def poly_to_str(p, var: str = "z") -> str:
    """Human formatting like 'λ^2-2λ-4' (ascending input)."""
    p = pstrip(list(p))
    if not p:
        return "0"
    terms = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        frac = c if isinstance(c, Fraction) else Fraction(c)
        neg = frac < 0
        mag = -frac if neg else frac
        if k == 0:
            body = str(mag)
        else:
            vp = var if k == 1 else f"{var}^{k}"
            body = vp if mag == 1 else f"{mag}{vp}"
        if not terms:
            terms.append(("-" if neg else "") + body)
        else:
            terms.append(("-" if neg else "+") + body)
    return "".join(terms)
