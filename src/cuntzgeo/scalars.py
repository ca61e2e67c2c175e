"""Exact Gaussian-rational scalars.

Every coefficient in the package is a ``GScalar``: the reduced triple of
ints ``(a, b, d)`` that stands for ``(a + b*i)/d``, with ``d > 0`` and
``gcd(a, b, d) = 1`` (Henrici's normalisation of rational arithmetic, Knuth,
TAOCP vol. 2, §4.5.1, applied to both parts over one denominator).  All
arithmetic is exact.  ``_norm`` is the one constructor that reduces: ``+``,
``-``, ``*`` and ``/`` each end in one ``_norm``, and so do the geometry
chain and the parser, which build triples from their own integers.  Unary
``-``, ``conjugate`` and ``_coerce`` make triples that are reduced already
and build them without it.  A real scalar is just ``b = 0``; no operation
takes a separate real path.

The reduced triple is unique, so ``==`` and ``hash`` are the tuple's own,
and a ``GScalar`` equals its plain triple.  ``re`` and ``im`` give the two
parts as ``Fraction`` values.  Scalars are not ordered: ``<``, ``<=``,
``>`` and ``>=`` raise ``TypeError``.

An exact scalar is an int that is not a bool, a ``Fraction`` or a
``GScalar``; ``_frac`` decides it for the rational parts.  On anything else
(floats, bools, strings) ``GScalar(re, im)``, ``GScalar.of`` and
``rational`` raise ``TypeError`` and ``GScalar._coerce`` returns ``None``,
so the arithmetic of scalars, elements, forms and tensors refuses it.
"""

from __future__ import annotations

__all__ = [
    "GScalar",
    "rational",
]

from fractions import Fraction
from math import gcd

_new = tuple.__new__


def _frac(x: object) -> tuple[int, int] | None:
    """(numerator, denominator) of x when it is an exact rational (an int
    that is not a bool, or a Fraction), else None."""
    if isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool)):
        return x.numerator, x.denominator
    return None


def _norm(a: int, b: int, d: int) -> "GScalar":
    """The scalar (a + b*i)/d for ints a, b and d > 0, reduced."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _new(GScalar, (a, b, d))


class GScalar(tuple):
    """A Gaussian rational ``(a + b*i)/d``, stored as the reduced triple
    ``(a, b, d)``.

    ``GScalar(re, im)`` takes two exact rationals.  Immutable and hashable;
    the triple is unique, so structural equality is exact value equality.
    """

    __slots__ = ()

    def __new__(cls, re: "int | Fraction" = 0, im: "int | Fraction" = 0) -> "GScalar":
        r, i = _frac(re), _frac(im)
        if r is None or i is None:
            raise TypeError(f"not an exact rational: {re if r is None else im!r}")
        (p, q), (s, t) = r, i
        return _norm(p * t, s * q, q * t)

    @staticmethod
    def of(re: "int | Fraction | GScalar" = 0, im: int | Fraction = 0) -> "GScalar":
        if isinstance(re, GScalar):
            if im:
                raise ValueError("cannot add an imaginary part to a GScalar")
            return re
        return GScalar(re, im)

    def __reduce__(self):
        return _norm, tuple(self)

    @property
    def re(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self[1], self[2])

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "GScalar | None":
        if isinstance(other, GScalar):
            return other
        r = _frac(other)
        return None if r is None else _new(GScalar, (r[0], 0, r[1]))

    def __add__(self, other: object) -> "GScalar":
        o = other if type(other) is GScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self, o
        return _norm(a * f + c * d, b * f + e * d, d * f)

    def __radd__(self, other: object) -> "GScalar":
        o = self._coerce(other)
        if o is None:
            if isinstance(other, tuple):
                # else tuple.__add__ would concatenate the two triples
                raise TypeError("unsupported operand type(s) for +: "
                                f"{type(other).__name__!r} and 'GScalar'")
            return NotImplemented
        return self + o

    def __sub__(self, other: object) -> "GScalar":
        o = other if type(other) is GScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self, o
        return _norm(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other: object) -> "GScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "GScalar":
        a, b, d = self
        return _new(GScalar, (-a, -b, d))

    def __mul__(self, other: object) -> "GScalar":
        o = other if type(other) is GScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self, o
        return _norm(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "GScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self, o
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero GScalar")
        # (a + bi)/d * f (c - ei)/(c² + e²)
        return _norm(f * (a * c + b * e), f * (b * c - a * e), d * n)

    def conjugate(self) -> "GScalar":
        a, b, d = self
        return _new(GScalar, (a, -b, d))

    def _unordered(self, other: object):
        raise TypeError("GScalar values are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self[0] or self[1])

    def is_zero(self) -> bool:
        return not self

    def __repr__(self) -> str:
        return f"GScalar({self.re}, {self.im})"


ZERO = _norm(0, 0, 1)
ONE = _norm(1, 0, 1)
MINUS_ONE = _norm(-1, 0, 1)
I = _norm(0, 1, 1)


def rational(p: "int | Fraction", q: "int | Fraction" = 1) -> GScalar:
    """Shorthand for the real scalar ``p/q`` of two exact rationals."""
    return GScalar(p) / GScalar(q)
