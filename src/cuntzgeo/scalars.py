"""Exact Gaussian-rational scalars.

Every coefficient in the package is a ``GScalar``: a complex number
``re + im*i`` whose parts are :class:`fractions.Fraction` values.  All
arithmetic is exact; floats are rejected at construction time so no rounding
can creep in anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _frac(x: int | Fraction) -> Fraction:
    """Coerce an exact rational to Fraction, rejecting floats outright."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class GScalar:
    """A Gaussian rational ``re + im*i``.

    Immutable and hashable.  ``Fraction`` keeps both parts reduced with a
    positive denominator, so structural equality is exact value equality.
    """

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: "int | Fraction | GScalar" = 0, im: int | Fraction = 0) -> "GScalar":
        if isinstance(re, GScalar):
            if im:
                raise ValueError("cannot add an imaginary part to a GScalar")
            return re
        return GScalar(_frac(re), _frac(im))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "GScalar | None":
        if isinstance(other, GScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return GScalar(_frac(other), Fraction(0))
        return None

    def __add__(self, other: object) -> "GScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: object) -> "GScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GScalar(o.re - self.re, o.im - self.im)

    def __neg__(self) -> "GScalar":
        return GScalar(-self.re, -self.im)

    def __mul__(self, other: object) -> "GScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GScalar(self.re * o.re - self.im * o.im,
                       self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "GScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GScalar")
        return GScalar((self.re * o.re + self.im * o.im) / norm,
                       (self.im * o.re - self.re * o.im) / norm)

    def __rtruediv__(self, other: object) -> "GScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def conjugate(self) -> "GScalar":
        return GScalar(self.re, -self.im)

    def scale(self, c: "GScalar") -> "GScalar":
        # same protocol as the module elements, so scalars can ride through
        # generic code (e.g. the linear solver) unchanged
        return self * c

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __repr__(self) -> str:
        return f"GScalar({self.re}, {self.im})"


ZERO = GScalar(Fraction(0), Fraction(0))
ONE = GScalar(Fraction(1), Fraction(0))
MINUS_ONE = GScalar(Fraction(-1), Fraction(0))
I = GScalar(Fraction(0), Fraction(1))


def rational(p: int, q: int = 1) -> GScalar:
    """Shorthand for the real scalar ``p/q``."""
    return GScalar(Fraction(p, q), Fraction(0))
