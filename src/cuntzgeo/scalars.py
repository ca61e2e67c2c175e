"""Exact Gaussian-rational scalars.

Every coefficient in the package is a ``GScalar``: a complex number
``re + im*i`` whose parts are :class:`fractions.Fraction` values.  All
arithmetic is exact.

An exact scalar is an int that is not a bool, a ``Fraction`` or a
``GScalar``; ``_frac`` decides it for the rational parts.  On anything else
(floats, bools) ``GScalar.of`` raises ``TypeError`` and ``GScalar._coerce``
returns ``None``, so the arithmetic of scalars, elements, forms and tensors
refuses it.

Most coefficients of the algebra and the calculus are real, so ``+``, ``-``,
unary ``-`` and ``*`` take a real fast path: when both operands have a zero
imaginary part they skip the imaginary arithmetic.  The fast path gives the
value of the full complex formula, and both parts of every result are
``Fraction`` values (a real result shares one ``Fraction(0)``), so results
are structurally identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# the imaginary part of every real result the arithmetic makes
_ZERO_PART = Fraction(0)


def _frac(x: object) -> Fraction | None:
    """x as a Fraction when it is an exact rational (an int that is not a
    bool, or a Fraction), else None."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    return None


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
        r, i = _frac(re), _frac(im)
        if r is None or i is None:
            raise TypeError(f"not an exact rational: {re if r is None else im!r}")
        return GScalar(r, i)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "GScalar | None":
        if isinstance(other, GScalar):
            return other
        re = _frac(other)
        return None if re is None else GScalar(re, _ZERO_PART)

    def __add__(self, other: object) -> "GScalar":
        o = other if type(other) is GScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GScalar(self.re + o.re, _ZERO_PART)
        return GScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GScalar":
        o = other if type(other) is GScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GScalar(self.re - o.re, _ZERO_PART)
        return GScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: object) -> "GScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "GScalar":
        if not self.im:
            return GScalar(-self.re, _ZERO_PART)
        return GScalar(-self.re, -self.im)

    def __mul__(self, other: object) -> "GScalar":
        o = other if type(other) is GScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        if not b and not d:
            return GScalar(a * c, _ZERO_PART)
        return GScalar(a * c - b * d, a * d + b * c)

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

    def conjugate(self) -> "GScalar":
        return GScalar(self.re, -self.im)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def __repr__(self) -> str:
        return f"GScalar({self.re}, {self.im})"


ZERO = GScalar(_ZERO_PART, _ZERO_PART)
ONE = GScalar(Fraction(1), _ZERO_PART)
MINUS_ONE = GScalar(Fraction(-1), _ZERO_PART)
I = GScalar(Fraction(0), Fraction(1))


def rational(p: int, q: int = 1) -> GScalar:
    """Shorthand for the real scalar ``p/q``."""
    return GScalar(Fraction(p, q), _ZERO_PART)
