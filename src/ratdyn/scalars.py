"""Exact scalars: Gaussian rationals (rational real and imaginary parts).

Maps with coefficients in Q or Q(i) get exact arithmetic; everything else
falls back to complex floats.  Both realizations support the same operations
(exactness aside), so higher modules are written once against this surface.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

ScalarLike = Union["Qi", Fraction, int, float, complex]


class Qi:
    """Gaussian rational a + b*i with Fraction components, always reduced."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- constructors -------------------------------------------------
    @staticmethod
    def coerce(x: ScalarLike) -> "Qi":
        if isinstance(x, Qi):
            return x
        if isinstance(x, (int, Fraction)):
            return Qi(x, 0)
        if isinstance(x, float):
            if not float(x).is_integer():
                raise TypeError(f"non-integral float {x!r} is not exact; use Fraction")
            return Qi(int(x), 0)
        if isinstance(x, complex):
            if not (x.real.is_integer() and x.imag.is_integer()):
                raise TypeError(f"non-integral complex {x!r} is not exact")
            return Qi(int(x.real), int(x.imag))
        raise TypeError(f"cannot coerce {type(x).__name__} to Qi")

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ----------------------------------------------------
    # ``+`` and ``*`` leave operands that are not scalars (polynomial ring
    # elements) to the other operand's reflected method
    def __add__(self, o):
        if not isinstance(o, _SCALARS):
            return NotImplemented
        o = Qi.coerce(o)
        return Qi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = Qi.coerce(o)
        return Qi(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return Qi.coerce(o) - self

    def __neg__(self):
        return Qi(-self.re, -self.im)

    def __mul__(self, o):
        if not isinstance(o, _SCALARS):
            return NotImplemented
        o = Qi.coerce(o)
        return Qi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Qi.coerce(o)
        n2 = o.re * o.re + o.im * o.im
        if not n2:
            raise ZeroDivisionError("division by zero Qi")
        return Qi((self.re * o.re + self.im * o.im) / n2,
                  (self.im * o.re - self.re * o.im) / n2)

    def __rtruediv__(self, o):
        return Qi.coerce(o) / self

    def __pow__(self, k: int):
        if k < 0:
            return Qi(1) / self ** (-k)
        out = Qi(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "Qi":
        return Qi(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    # -- conversions ---------------------------------------------------
    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __complex__(self):
        return self.to_complex()

    def __eq__(self, o):
        try:
            o = Qi.coerce(o)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"Qi({self.re})"
        return f"Qi({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_SCALARS = (Qi, int, Fraction, float, complex)


def qi_from_string(text: str) -> Qi:
    """Parse 'p/q' or 'a/b+c/di' style exact scalars (CLI wire format)."""
    t = text.strip().replace(" ", "")
    if t.endswith("i") or t.endswith("j"):
        body = t[:-1]
        # split into real+imag on the last +/- that is not a leading sign
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/*e":
                re_part, im_part = body[:k], body[k:]
                im_part = im_part if im_part not in ("+", "-") else im_part + "1"
                return Qi(Fraction(re_part), Fraction(im_part))
        body = body if body not in ("", "+", "-") else body + "1"
        return Qi(0, Fraction(body))
    return Qi(Fraction(t), 0)
