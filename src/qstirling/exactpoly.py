"""Sparse exact polynomials in t, u, v and truncated power series.

Coefficients are Python ints or fractions.Fraction values; nothing is
ever rounded. Zero coefficients are never stored, so equality is plain
coefficient-wise dict comparison. All values are immutable in spirit:
every operation returns a fresh object.
"""

from fractions import Fraction
from itertools import chain
from operator import index


def _norm(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _integers(values, message):
    """tuple(values), each read by operator.index: a float or a str is a
    ValueError with the message, never truncated or left to a TypeError."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(message) from None


def _decimal(c):
    """str(c) of an int or a Fraction, at any size: past
    sys.get_int_max_str_digits() digits (4,300 by default) str() refuses
    an int, and decimal.Decimal writes its digits instead."""
    try:
        return str(c)
    except ValueError:
        from decimal import Decimal  # only here: most ints are short

        num, den = c.as_integer_ratio()
        text = str(Decimal(num))
        return text if den == 1 else "%s/%s" % (text, Decimal(den))


def _grade(key):
    return (key[0] + key[1] + key[2], key[0], key[1], key[2])


def _power(base, e, one):
    """base ** e by square-and-multiply, starting from the unit `one`."""
    (e,) = _integers((e,), "the exponent must be an integer")
    if e < 0:
        raise ValueError("negative power")
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


class PolyTUV:
    """Polynomial in the three variables t, u, v.

    Terms live in a dict keyed by the exponent triple (e_t, e_u, e_v).
    The canonical term order used for printing and JSON is graded
    lexicographic on that triple.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # the one place where terms merge, in one pass: each term is a
        # pair ((e_t, e_u, e_v), c), the exponents integers (read through
        # operator.index, so 0.5 or 1.9 is refused, not truncated) and c
        # an int or a Fraction
        data = {}
        if terms is not None:
            try:
                items = iter(terms.items() if isinstance(terms, dict) else terms)
            except TypeError:
                raise ValueError("terms must be ((e_t, e_u, e_v), c) pairs") from None
            for term in items:
                try:
                    (et, eu, ev), c = term
                except (TypeError, ValueError):
                    raise ValueError("terms must be ((e_t, e_u, e_v), c) pairs") from None
                try:
                    key = (index(et), index(eu), index(ev))
                except TypeError:
                    raise ValueError("exponents must be integers") from None
                if min(key) < 0:
                    raise ValueError("exponents must be non-negative")
                if not isinstance(c, (int, Fraction)):
                    raise ValueError("coefficients must be ints or Fractions")
                c = _norm(data.get(key, 0) + c)
                if c:
                    data[key] = c
                else:
                    data.pop(key, None)
        self.terms = data

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0, 0): c})

    @classmethod
    def one(cls):
        return cls({(0, 0, 0): 1})

    @classmethod
    def monomial(cls, et, eu, ev):
        return cls({(et, eu, ev): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, PolyTUV):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == PolyTUV.constant(other).terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyTUV.constant(other)
        if not isinstance(other, PolyTUV):
            return NotImplemented
        return PolyTUV(chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, PolyTUV)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyTUV.constant(other)
        if not isinstance(other, PolyTUV):
            return NotImplemented
        return PolyTUV(
            ((a1 + b1, a2 + b2, a3 + b3), c * d)
            for (a1, a2, a3), c in self.terms.items()
            for (b1, b2, b3), d in other.terms.items()
        )

    __rmul__ = __mul__

    def __pow__(self, e):
        return _power(self, e, PolyTUV.one())

    def value_at(self, t, u, v):
        """Evaluate exactly at the given point of ints or Fractions."""
        if not all(isinstance(x, (int, Fraction)) for x in (t, u, v)):
            raise ValueError("the point must be ints or Fractions")
        total = 0
        for (et, eu, ev), c in self.terms.items():
            total += c * t**et * u**eu * v**ev
        return _norm(total)

    def t_coefficients(self):
        """Coefficient list in t after setting u = v = 1."""
        if not self.terms:
            return [0]
        top = max(key[0] for key in self.terms)
        out = [0] * (top + 1)
        for (et, _, _), c in self.terms.items():
            out[et] = _norm(out[et] + c)
        return out

    def is_integral(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _grade(item[0]))

    def pretty(self):
        if not self.terms:
            return "0"
        parts = []
        for (et, eu, ev), c in self.sorted_terms():
            factors = []
            if c != 1 or (et, eu, ev) == (0, 0, 0):
                factors.append(_decimal(c))
            for name, e in (("t", et), ("u", eu), ("v", ev)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json_obj(self):
        """Canonical JSON form: term list in graded-lex order.

        Coefficients are decimal strings so that arbitrarily large
        integers survive any JSON reader.
        """
        if not self.is_integral():
            raise ValueError("polynomial has non-integer coefficients")
        return [
            {"t": et, "u": eu, "v": ev, "c": _decimal(c)}
            for (et, eu, ev), c in self.sorted_terms()
        ]

    def __repr__(self):
        return "PolyTUV(%s)" % self.pretty()


class SeriesT:
    """Power series in one formal variable, truncated at a fixed order.

    Coefficients must be ints, Fractions, or PolyTUV values (anything
    else, a float included, is a ValueError); arithmetic never leaves
    the truncation order. Index k holds the coefficient of the k-th power.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        try:
            coeffs = list(coeffs)
        except TypeError:
            raise ValueError("the coefficients must be an iterable") from None
        if not all(isinstance(c, (int, Fraction, PolyTUV)) for c in coeffs):
            raise ValueError("coefficients must be ints, Fractions or PolyTUV values")
        if order is None:
            order = len(coeffs) - 1
        (order,) = _integers((order,), "the order must be an integer")
        if order < 0:
            raise ValueError("order must be non-negative")
        coeffs = coeffs[: order + 1]
        coeffs += [0] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, c, order):
        return cls([c], order)

    def coefficient(self, k):
        (k,) = _integers((k,), "the index must be an integer")
        if not 0 <= k <= self.order:
            raise IndexError("coefficient beyond truncation order")
        return self.coeffs[k]

    def _match(self, other):
        if isinstance(other, SeriesT):
            if other.order != self.order:
                raise ValueError("series orders differ")
            return other
        return SeriesT.constant(other, self.order)

    def __add__(self, other):
        other = self._match(other)
        return SeriesT(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        return SeriesT(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __rsub__(self, other):
        other = self._match(other)
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PolyTUV)):
            return SeriesT([c * other for c in self.coeffs], self.order)
        other = self._match(other)
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if isinstance(a, int) and a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if isinstance(b, int) and b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return SeriesT(out, self.order)

    __rmul__ = __mul__

    def __pow__(self, e):
        return _power(self, e, SeriesT.constant(1, self.order))

    def __eq__(self, other):
        if not isinstance(other, SeriesT):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self):
        return "SeriesT(order=%d, %r)" % (self.order, self.coeffs)
