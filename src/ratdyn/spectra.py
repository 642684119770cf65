"""Exact multiplier spectra over Q and number-field membership certificates.

The multiplier polynomial P_n of a map with rational coefficients is the
monic rational polynomial whose roots are the multipliers of all exact
period-n points (each cycle's multiplier appearing n times; Infinity, when
of exact period n, contributes one more root).  All exact
work runs on the map's primitive integer pair (``RationalMap.int_pair``):
the dynatomic polynomial dyn is a primitive polynomial in Z[z], and P_n
comes from one route, with no factoring in z and no numerics.  For each
part s of the squarefree decomposition dyn = prod s_k^k:

* the multiplier lambda of the roots of s is one element of the algebra
  Q[z]/(s), lambda Y_n^2 = prod W along the homogeneous orbit of (z, 1);
* its minimal polynomial mu over Q (the product of the distinct
  irreducible multiplier polynomials, of degree at most deg s / n) is found
  modulo word primes (Krylov elimination over F_p, all but the first
  few powers taken by one multiplication matrix), lifted by CRT and
  rational reconstruction (or read off as integers once the residues stop
  changing), and certified exactly at the first agreeing prime on lambda as
  one element alpha, lifted alongside mu: one product checks alpha Y_n^2 =
  prod W, and about 2 sqrt(deg mu) check mu(alpha) = 0 (Paterson &
  Stockmeyer);
* mu is factored over Q by :func:`factor_spectrum`: rational roots by one
  small prime and Hensel lifting, and a cofactor of degree >= 4 proven
  irreducible by its factor degrees mod small primes; sympy sees only a
  cofactor left unproven (one whose Galois group has no n-cycle);
* one word prime counts the roots of s behind each factor mu_i: lambda
  mod p, the lift's own at that prime (memoized per ring), gives the
  count bound deg gcd(s, mu_i(lambda)) in F_p[z]; the prime is accepted
  only when the bounds sum to deg s, which proves every count.  The counts
  are then scaled by the exponent k.

No exact step builds a Fraction: an element of Q[z]/(s) is ints over one
int denominator.  Every multiplier comes from one homogeneous orbit loop,
:meth:`ResidueField.multiplier_orbit`, so cycles through poles or Infinity
need no special conjugation.  Infinity itself is the root 0 of the pair
swapped and reversed, (B(Y, X), A(Y, X)): its multiplier is the same loop
in Q[z]/(z) = Q.  Each period's :class:`PeriodFactors` records the route of
every factor ("infinity" or "algebra") and how many points it carries.

Membership of the multipliers in a number field K is exact for every K:
the square class of the discriminant decides over quadratic fields, with
no factoring, and sympy's factoring over K decides beyond.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import config
from .errors import (
    DegreeCapExceeded,
    InexactDivision,
    RatdynError,
    SpectrumNotRational,
)
from .periodic import dynatomic_numerator, infinity_exact_period
from .polys import (
    FpModulus,
    factor_int_poly,
    fp_array,
    fp_gcd,
    fp_mul,
    fractions_to_int_primitive,
    hom_eval,
    idivexact,
    int_poly_irreducible,
    ipmul,
    pdeg,
    pderiv,
    pmul,
    ppad,
    pstrip,
    psub,
    poly_to_str,
    proven_irreducible,
    rational_roots,
    squarefree_decomposition,
    word_primes,
)
from .sphere import RationalMap

# ----------------------------------------------------------------------
# the residue ring Q[z]/(q)
# ----------------------------------------------------------------------


class ResidueField:
    """Q[z]/(q) for an integer polynomial q of degree m and lead L (a
    number field when q is irreducible).  :meth:`elt` reduces by exact
    pseudo-division (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R): each step
    scales what is left, and the denominator, by L / gcd(L, c), c the top
    coefficient, so no step leaves Z, and sums and products of int
    polynomials have denominators that divide powers of L (1 if q is monic)."""

    def __init__(self, modulus):
        self.mod = tuple(pstrip(list(modulus)))
        self.degree, self.lead = len(self.mod) - 1, self.mod[-1]
        self.at_prime = {}  # (num, den, p) -> _lambda_mod(num, den, p)

    def elt(self, coeffs, d: int = 1) -> "FieldElt":
        """The residue of the polynomial coeffs / d (d a nonzero int)."""
        out, q, m, L = list(coeffs), self.mod, self.degree, self.lead
        for k in range(len(out) - 1 - m, -1, -1):
            c = out[k + m]
            if c:
                if L != 1:
                    g = math.gcd(c, L)
                    c, a = c // g, L // g
                    if a != 1:
                        out, d = [a * x for x in out[: k + m]], d * a
                out[k : k + m] = [x - c * y for x, y in zip(out[k : k + m], q)]
        out = ppad(out[:m], m)
        if d != 1:
            g = math.gcd(d, *out) if d > 0 else -math.gcd(d, *out)
            out, d = [x // g for x in out], d // g
        return FieldElt(self, tuple(out), d)

    def gen(self):
        return self.elt([0, 1])

    def multiplier_orbit(self, pair, n: int):
        """(prod_j W(X_j, Y_j), Y_n^2) along the homogeneous orbit (X_j,
        Y_j) of (z, 1), z a root of the modulus, under the integer pair (A,
        B), W = A'B - AB'.  det J(X, Y) = d W(X, Y) and the Y-chart scalings
        telescope, so every root has multiplier lambda with lambda Y_n^2 =
        prod W, orbits through Infinity and derivative poles included."""
        A, B = pair
        d = len(A) - 1
        W = ppad(psub(pmul(pderiv(A), B), pmul(A, pderiv(B))), 2 * d - 1)
        X, Y, acc = self.gen(), self.elt([1]), 1
        for _ in range(n):
            acc = acc * hom_eval(W, X, Y)
            X, Y = hom_eval(A, X, Y), hom_eval(B, X, Y)
        return acc, Y * Y


class FieldElt:
    """c / d in Q[z]/(q): `degree` int coefficients c over an int d > 0
    prime to their content, so equal elements have equal (c, d)."""

    __slots__ = ("field", "c", "d")

    def __init__(self, field: ResidueField, c: tuple, d: int = 1):
        self.field, self.c, self.d = field, c, d

    def is_zero(self) -> bool:
        return not any(self.c)

    def __add__(self, o):
        if not isinstance(o, FieldElt):
            return FieldElt(self.field, (self.c[0] + o * self.d,) + self.c[1:], self.d)
        if self.d == o.d == 1:
            return FieldElt(self.field, tuple(a + b for a, b in zip(self.c, o.c)))
        d = math.lcm(self.d, o.d)
        u, v = d // self.d, d // o.d
        return self.field.elt([u * a + v * b for a, b in zip(self.c, o.c)], d)

    def __mul__(self, o):
        if isinstance(o, FieldElt):
            return self.field.elt(ipmul(self.c, o.c), self.d * o.d)
        if self.d == 1:
            return FieldElt(self.field, tuple(a * o for a in self.c))
        return self.field.elt([a * o for a in self.c], self.d)

    __radd__, __rmul__ = __add__, __mul__

    def __eq__(self, o):
        return self.c == o.c and self.d == o.d

    def __repr__(self):
        return f"FieldElt({list(self.c)}, {self.d})"


# ----------------------------------------------------------------------
# the multiplier in Q[z]/(q) and its minimal polynomial: word primes,
# CRT, rational reconstruction and an exact certificate
# ----------------------------------------------------------------------


def multiplier_element(f: RationalMap, n: int, q) -> tuple[FieldElt, FieldElt]:
    """The multiplier lambda of the period-n points annihilated by q, as the
    pair (prod W, Y_n^2) in Q[z]/(q) with lambda Y_n^2 = prod W:
    ResidueField.multiplier_orbit run on the map's integer pair."""
    return ResidueField(q).multiplier_orbit(f.int_pair, n)


def minimal_polynomial(num: FieldElt, den: FieldElt) -> list[Fraction]:
    """Monic minimal polynomial over Q of lambda = num/den in Q[z]/(q),
    found modulo word primes and certified exactly.  q need not be
    irreducible: on a squarefree q the result is the product of the
    distinct minimal polynomials of lambda at the roots of q.

    At each word prime p at which _lambda_mod gives lambda mod p, mu_p is
    its minimal polynomial.  Unless den is a scalar, lambda itself, with
    far fewer bits than num and den, is lifted with mu.  Images of the
    largest degree seen are kept (a larger one restarts the lift) and
    combined by one CRT step per prime; residues that a step leaves
    unchanged are the candidate as integers, else rational reconstruction
    gives it (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5;
    Monagan, ISSAC 2004).  The first agreeing prime (one that leaves the
    residues unchanged agrees) sends it to :func:`_certified`, on alpha =
    num over the scalar den or the lift sum a_i z^i, equal to lambda by the
    exact product alpha den = num, as den = Y_n^2 is a unit in Q[z]/(q)
    (every root is a finite point with f^n(z) = z).  A candidate that fails
    yet agrees at 20 primes is an error."""
    fld, scalar = num.field, not any(den.c[1:])
    degree, G, M, cand, agree, failed, misses = -1, [], 1, None, 0, None, 0
    for p in word_primes():
        at_p = _lambda_mod(num, den, p)
        if at_p is None:
            misses += 1
            if misses == 20:
                raise RatdynError("Y_n^2 is not a unit modulo 20 word primes")
            continue
        red, lam = at_p
        mu_p = red.minimal_polynomial(lam)
        if len(mu_p) - 1 < degree:
            continue
        image = [int(c) for c in mu_p]
        if not scalar:
            image += ppad([int(c) for c in lam], fld.degree)
        if len(mu_p) - 1 > degree:
            degree, G, M, cand = len(mu_p) - 1, [0] * len(image), 1, None
        agree = agree + 1 if cand is not None and _reduces_to(cand, image, p) else 0
        G, M, stable = _crt_extend(G, M, image, p)
        if stable and cand != (G, 1):
            cand, agree = (G, 1), 1
        elif not agree:
            cand = _rational_reconstruction(G, M)
        if agree and cand != failed:
            (P, D), k = cand, degree + 1
            if scalar:
                alpha = fld.elt([c * den.d for c in num.c], num.d * den.c[0])
            else:
                alpha = fld.elt(P[k:], D)
            if (scalar or alpha * den == num) and _certified((P[:k], D), degree, alpha):
                return [Fraction(c, D) for c in P[:k]]
            failed = cand
        elif agree == 20:
            raise RatdynError("a lift stable at 20 word primes failed its certificate")


def _lambda_mod(num: FieldElt, den: FieldElt, p: int):
    """(F_p[z]/(q) as an FpModulus, lambda = num/den mod p in it), or None
    when p divides the lead L of q or den is not a unit mod (q, p).  The
    denominators of num and den divide powers of L.  Memoized on the ring:
    the lift and the point counts of one squarefree part build each prime's
    modulus, inverse and product once."""
    memo, key = num.field.at_prime, (num.c, num.d, den.c, den.d, p)
    if key not in memo:
        memo[key] = inv = None
        if num.field.lead % p:
            red = FpModulus(num.field.mod, p)
            if any(den.c[1:]):
                inv = red.inverse(fp_array(den.c, p))
            elif den.c[0] % p:
                inv = fp_array([pow(den.c[0], -1, p)], p)
        if inv is not None:
            inv = inv * (den.d * pow(num.d, -1, p) % p) % p
            memo[key] = (red, red.reduce(fp_mul(fp_array(num.c, p), inv, p)))
    return memo[key]


def _reduces_to(mu, mu_p, p: int) -> bool:
    """Whether mu = P/D (integer P, D > 0) is mu_p mod p."""
    P, D = mu
    return all((c - D * int(h)) % p == 0 for c, h in zip(P, mu_p))


def _crt_extend(G: list[int], M: int, h, p: int):
    """(G', M p, stable): the balanced residues mod M p (in (-M p/2, M p/2])
    that are G mod M and h mod p; stable when h already agreed with G."""
    inv, Mp = pow(M, -1, p), M * p
    t = [(int(hi) - g) * inv % p for hi, g in zip(h, G)]
    G = [g + M * ti for g, ti in zip(G, t)]
    return [x - Mp if 2 * x > Mp else x for x in G], Mp, not any(t)


def _rational_reconstruction(G: list[int], M: int):
    """(P, D) with P/D = G mod M coefficientwise, every numerator and
    denominator at most sqrt(M/2) (Wang's algorithm), or None while some
    coefficient has no such reconstruction."""
    bound, out = math.isqrt(M // 2), []
    for a in G:
        r0, r1, s0, s1 = M, a % M, 0, 1
        while r1 > bound:
            t = r0 // r1
            r0, r1, s0, s1 = r1, r0 - t * r1, s1, s0 - t * s1
        if abs(s1) > bound or math.gcd(r1, s1) != 1:
            return None
        out.append((r1, s1) if s1 > 0 else (-r1, -s1))
    D = math.lcm(*(s for _, s in out))
    return [r * (D // s) for r, s in out], D


def _certified(mu, degree: int, alpha) -> bool:
    """The proof that mu = P/D is the minimal polynomial mu_min of lambda =
    alpha in Q[z]/(q): the exact zero test P(lambda) = 0 gives mu_min | mu.
    At every prime p used, p does not divide the lead L of q, so q / L is
    monic over Z_(p), Z_(p)[z]/(q) is a free Z_(p)-module of finite rank,
    and num, den (over powers of L) lie in it, den a unit, being one mod p.
    So lambda lies in it, integral over Z_(p), and mu_min, a monic factor
    over Q of its monic characteristic polynomial, has coefficients in
    Z_(p) (Gauss's lemma).  So mu_p divides mu_min mod p; hence deg mu ==
    deg mu_p (= degree) <= deg mu_min, and mu = mu_min.  Nothing here needs
    q irreducible; alpha = lambda is proved by :func:`minimal_polynomial`."""
    P, _ = mu
    return len(P) - 1 == degree and _value(P, alpha).is_zero()


def _value(P, alpha):
    """sum_i P_i alpha^i, D = deg P, k = isqrt(D), in about 2 sqrt(D)
    products: alpha^2..alpha^k, each block of k terms an int combination of
    them, hom_eval in alpha^k over the blocks (Paterson & Stockmeyer)."""
    k = math.isqrt(len(P) - 1)
    powers = [1, alpha]
    for _ in range(k - 1):
        powers.append(powers[-1] * alpha)
    terms = [c * powers[i % k] for i, c in enumerate(P)]
    blocks = [sum(terms[a + 1 : a + k], terms[a]) for a in range(0, len(P), k)]
    return hom_eval(blocks, powers[k], 1)


# ----------------------------------------------------------------------
# points per factor: one gcd in F_p[z]/(s) for each factor of mu
# ----------------------------------------------------------------------


def _point_counts(num: FieldElt, den: FieldElt, qs: list[list[int]]) -> list[int]:
    """How many roots of the squarefree s have their multiplier among the
    roots of each q in qs, the distinct irreducible factors (primitive, over
    Z) of the certified minimal polynomial of lambda = num/den in Q[z]/(s).

    Every root's multiplier is a root of exactly one q, so the counts k_q
    sum to deg s.  Let g_q be the monic factor over Q of s whose roots are
    the k_q roots counted for q.  At a prime p where :func:`_lambda_mod`
    gives lambda_p, p does not divide the lead L of s, so g_q, a factor of
    the monic s / L, lies in Z_(p)[z] (Gauss's lemma) and divides there a
    representative of q(lambda), which vanishes at its roots; so g_q mod p
    divides s and q(lambda_p).  Hence k_q <= deg gcd(s, q(lambda_p)) over
    F_p, and a prime at which these degrees sum to deg s proves every
    count; a prime where distinct multipliers meet mod p over-counts and is
    skipped."""
    m = num.field.degree
    if len(qs) == 1:
        return [m]
    misses = 0
    for p in word_primes():
        at_p = _lambda_mod(num, den, p)
        if at_p is not None:
            red, lam = at_p
            counts = [len(fp_gcd(red.f, _fp_value(red, q, lam), p)) - 1 for q in qs]
            if sum(counts) == m:
                return counts
        misses += 1
        if misses == 20:
            raise RatdynError("point counts over-counted at 20 word primes")


def _fp_value(red: FpModulus, q, a):
    """q(a) in F_p[z]/(red.f), for an integer polynomial q, by Horner."""
    out = a[:0]
    for c in reversed(q):
        out = ppad([int(x) for x in red.reduce(fp_mul(out, a, red.p))], 1)
        out[0] += c
        out = fp_array(out, red.p)
    return out


# ----------------------------------------------------------------------
# the multiplier polynomial and spectrum assembly
# ----------------------------------------------------------------------


@dataclass
class PeriodFactors:
    """Factored multiplier data for one period (point-level multiplicity).

    ``routes`` says where each contribution to ``factors`` came from, as
    (factor, points, route): "infinity" for the exactly computed cycle of
    Infinity, "algebra" for a factor of the minimal polynomial of lambda on
    a squarefree part of dyn, with the points behind it.
    """

    period: int
    factors: list[tuple[tuple[Fraction, ...], int]]
    point_count: int
    routes: list[tuple[tuple[Fraction, ...], int, str]] = field(default_factory=list)

    def poly(self) -> list[Fraction]:
        out = [Fraction(1)]
        for fac, mult in self.factors:
            for _ in range(mult):
                out = pmul(out, list(fac))
        return out


def _ensure_exact_rational(f: RationalMap):
    if not f.exact:
        raise SpectrumNotRational("exact spectra need exact map coefficients")
    if f.int_pair is None:
        raise SpectrumNotRational("polynomial has nonreal Gaussian coefficients")


def multiplier_factors(
    f: RationalMap, n: int, cap: int | None = None, seed: int = 0
) -> PeriodFactors:
    """Irreducible factorization of the multiplier polynomial P_n over Q.

    ``seed`` is unused: exact spectra involve no numerics.  It is kept so
    that one seed can be passed to every layer."""
    _ensure_exact_rational(f)
    cap = cap if cap is not None else config.EXACT_DEGREE_CAP
    d = f.degree
    if d**n + 1 > cap:
        raise DegreeCapExceeded(f"d^n + 1 = {d ** n + 1} exceeds exact cap {cap}")
    dyn = dynatomic_numerator(f, n, cap=max(cap, d**n + 2))
    routes: list[tuple[tuple[Fraction, ...], int, str]] = []
    total_points = max(pdeg(dyn), 0)
    if infinity_exact_period(f, n)[0] == n:
        # Infinity of (A, B) is 0 of (B(Y, X), A(Y, X)); z is monic: over 1
        A, B = f.int_pair
        num, den = ResidueField([0, 1]).multiplier_orbit((B[::-1], A[::-1]), n)
        routes.append(((-Fraction(num.c[0], den.c[0]), Fraction(1)), 1, "infinity"))
        total_points += 1
    for s, k in squarefree_decomposition(dyn) if pdeg(dyn) >= 1 else []:
        num, den = multiplier_element(f, n, s)
        keys = [q for q, _ in factor_spectrum(minimal_polynomial(num, den))]
        counts = _point_counts(num, den, [fractions_to_int_primitive(q)[0] for q in keys])
        routes += [(q, k * count, "algebra") for q, count in zip(keys, counts)]
    factors: dict[tuple[Fraction, ...], int] = {}
    for key, points, _route in routes:
        factors[key] = factors.get(key, 0) + points // (len(key) - 1)
    pf = PeriodFactors(n, sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0])),
                       total_points, routes)
    got = sum(m * (len(k) - 1) for k, m in pf.factors)
    if got != total_points:
        raise RatdynError(f"multiplier bookkeeping lost roots: {got} != {total_points}")
    return pf


def multiplier_polynomial(f: RationalMap, n: int) -> list[Fraction]:
    """P_n(lambda), monic over Q; roots are the multipliers of exact
    period-n points with multiplicity (one root per point)."""
    return multiplier_factors(f, n).poly()


def factor_spectrum(poly) -> list[tuple[tuple[Fraction, ...], int]]:
    """Complete factorization over Q of a rational polynomial into monic
    irreducible factors with multiplicities, sorted by degree.  On each part
    s^k of the squarefree decomposition, the rational roots of s
    (:func:`polys.rational_roots`) give the linear factors, divided out
    exactly; a cofactor of degree 2 or 3 is then irreducible, one of degree
    >= 4 is irreducible when :func:`polys.proven_irreducible` proves it,
    and only an unproven one is factored by sympy."""
    p_int, _ = fractions_to_int_primitive([Fraction(c) for c in poly])
    out = []
    for s, k in squarefree_decomposition(p_int) if pdeg(p_int) >= 1 else []:
        for r in rational_roots(s):
            s = idivexact(s, [-r.numerator, r.denominator])
            out.append(((-r, Fraction(1)), k))
        if pdeg(s) >= 2:
            irr = [(s, 1)] if pdeg(s) < 4 or proven_irreducible(s) else factor_int_poly(s)[1]
            out += [(tuple(Fraction(c, q[-1]) for c in q), k * m) for q, m in irr]
    return sorted(out, key=lambda km: (len(km[0]), km[0]))


# ----------------------------------------------------------------------
# spectrum container
# ----------------------------------------------------------------------


@dataclass
class AlgebraicSpectrum:
    """Per-period multiplier data: monic irreducible rational factors with
    cycle-level multiplicities; provenance is exact.  ``period_factors``
    keeps each period's point-level record with its routes."""

    degree: int
    periods: dict[int, list[tuple[tuple[Fraction, ...], int]]] = field(
        default_factory=dict
    )
    period_factors: dict[int, PeriodFactors] = field(default_factory=dict)


def algebraic_spectrum(
    f: RationalMap,
    max_period: int,
    cap: int | None = None,
    seed: int = 0,
) -> AlgebraicSpectrum:
    """Exact spectrum for periods 1..max_period (cycle-level multiplicity:
    each period's point-level multiplicities divide by n).  ``seed`` is
    unused, as in :func:`multiplier_factors`."""
    spec = AlgebraicSpectrum(degree=f.degree)
    for n in range(1, max_period + 1):
        pf = multiplier_factors(f, n, cap=cap, seed=seed)
        cycle_level = []
        for q, m in pf.factors:
            if m % n != 0:
                raise InexactDivision(
                    f"period-{n} factor multiplicity {m} not divisible by n "
                    "(parabolic degeneracy)"
                )
            cycle_level.append((q, m // n))
        spec.periods[n] = cycle_level
        spec.period_factors[n] = pf
    return spec


# ----------------------------------------------------------------------
# number fields and verdicts
# ----------------------------------------------------------------------


def _squarefree_part(n: int) -> int:
    """n != 0, with its sign, divided by the square of every prime up to
    2^16 and by the cofactor r that trial division leaves when r is a
    square.  Trial division stops once q^3 > r, when r is 1, a prime, a
    product of two primes or a square, and the result is the squarefree
    part of n; or once q > 2^16, when r may keep a square factor and the
    result is only in the square class of n, which names the same field
    Q(sqrt n)."""
    out, r, q = -1 if n < 0 else 1, abs(n), 2
    while q**3 <= r and q <= 1 << 16:
        while r % (q * q) == 0:
            r //= q * q
        if r % q == 0:
            out, r = out * q, r // q
        q += 1
    return out * (1 if math.isqrt(r) ** 2 == r else r)


class NumberFieldSpec:
    """Target field K by a monic irreducible integer polynomial; degree 1 is
    Q, degree 2 decides membership by the square class of its discriminant
    ``disc``, and larger degrees factor over ``sympy_field``."""

    def __init__(self, poly_int):
        p = [int(c) for c in pstrip(list(poly_int))]
        if not p or p[-1] != 1:
            raise RatdynError("defining polynomial must be monic with integer coefficients")
        if pdeg(p) < 1:
            raise RatdynError("defining polynomial must have degree >= 1")
        if pdeg(p) > 1 and not int_poly_irreducible(p):
            raise RatdynError("defining polynomial is reducible over Q")
        self.poly = tuple(p)
        self.degree = pdeg(p)
        self.disc = p[1] * p[1] - 4 * p[0] if self.degree == 2 else None
        self.imaginary_quadratic = self.degree == 2 and self.disc < 0

    @functools.cached_property
    def D(self):
        """D with K = Q(sqrt D), in the square class of ``disc``
        (:func:`_squarefree_part`); None unless K is quadratic."""
        return None if self.disc is None else _squarefree_part(self.disc)

    @functools.cached_property
    def sympy_field(self):
        """K as sympy's algebraic field Q(theta), theta a root of the
        defining polynomial."""
        from sympy import QQ, CRootOf, Poly, Symbol

        return QQ.algebraic_field(CRootOf(Poly(self.poly[::-1], Symbol("x")), 0))

    @staticmethod
    def rationals() -> "NumberFieldSpec":
        return NumberFieldSpec([0, 1])

    @staticmethod
    def quadratic(D: int) -> "NumberFieldSpec":
        D = int(D)
        if D in (0, 1):
            raise RatdynError("quadratic field needs D not in {0, 1}")
        return NumberFieldSpec([-D, 0, 1])

    def describe(self) -> str:
        if self.degree == 1:
            return "Q"
        if self.degree == 2:
            return f"Q(sqrt({self.D}))"
        return f"Q[x]/({poly_to_str(list(self.poly), 'x')})"


@dataclass
class FactorVerdict:
    period: int
    factor: tuple[Fraction, ...]
    ok: bool
    reason: str = ""


@dataclass
class MembershipVerdict:
    all_in_field: bool
    first_violation: tuple[int, tuple[Fraction, ...]] | None
    per_factor: list[FactorVerdict]

    def describe(self) -> str:
        if self.all_in_field:
            return "AllInK"
        n, fac = self.first_violation
        return f"FirstViolation(period={n}, factor={poly_to_str(list(fac), 'λ')})"


def _factor_in_field(q: tuple[Fraction, ...], K: NumberFieldSpec) -> FactorVerdict:
    """Whether the irreducible factor q has a root in K: exact for every K.
    A root in K needs deg q | deg K; over a quadratic field the discriminant
    decides, over larger fields a linear factor of q over K (sympy)."""
    degq = len(q) - 1
    if degq == 1:
        return FactorVerdict(0, q, True, reason="rational root")
    if degq > K.degree:
        return FactorVerdict(0, q, False, reason="degree exceeds field degree")
    if K.degree % degq:
        return FactorVerdict(0, q, False, reason="degree does not divide field degree")
    if K.degree == 2:
        # disc/disc(K) is a square iff a b disc(K) is, for disc = a/b
        disc = q[1] * q[1] - 4 * q[0]
        ab = disc.numerator * disc.denominator * K.disc
        ok = ab >= 0 and math.isqrt(ab) ** 2 == ab
        return FactorVerdict(0, q, ok, reason=f"disc/disc(K) = {disc}/{K.disc} square test")
    return FactorVerdict(0, q, _has_root_in(q, K), reason="linear factor over K")


def _has_root_in(q, K: NumberFieldSpec) -> bool:
    """Whether q factors over K with a linear factor (sympy's algebraic
    factoring; Trager, SYMSAC 1976)."""
    from sympy import QQ, Poly, Symbol

    coeffs = [QQ(c.numerator, c.denominator) for c in reversed(q)]
    _, factors = Poly(coeffs, Symbol("lam"), domain=K.sympy_field).factor_list()
    return any(fac.degree() == 1 for fac, _ in factors)


def membership(spectrum: AlgebraicSpectrum, K: NumberFieldSpec) -> MembershipVerdict:
    """AllInK iff every irreducible factor has a root in K (exact for every
    K)."""
    per = []
    for n in sorted(spectrum.periods):
        for q, _m in spectrum.periods[n]:
            per.append(_factor_in_field(q, K))
            per[-1].period = n
    first = next(((v.period, v.factor) for v in per if not v.ok), None)
    return MembershipVerdict(all_in_field=first is None, first_violation=first, per_factor=per)


@dataclass
class IntegralityVerdict:
    all_algebraic_integers: bool
    all_rational_integers: bool
    first_violation: tuple[int, tuple[Fraction, ...]] | None

    def describe(self) -> str:
        if self.all_rational_integers:
            return "AllRationalIntegers"
        if self.all_algebraic_integers:
            return "AllAlgebraicIntegers"
        n, fac = self.first_violation
        return f"FirstViolation(period={n}, factor={poly_to_str(list(fac), 'λ')})"


def integrality(spectrum: AlgebraicSpectrum) -> IntegralityVerdict:
    """Monic-integer-coefficient test per factor; rational integers need
    all factors linear with integer roots."""
    facs = [(n, q) for n in sorted(spectrum.periods) for q, _m in spectrum.periods[n]]
    alg = all(c.denominator == 1 for _, q in facs for c in q)
    bad = [(n, q) for n, q in facs if len(q) > 2 or any(c.denominator != 1 for c in q)]
    return IntegralityVerdict(alg, not bad, bad[0] if bad else None)
