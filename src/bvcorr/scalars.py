"""Exact scalars: rationals and truncated series in the formal Planck constant.

Every coefficient in the library is a Fraction.  HPoly is an exact truncated
series in the formal parameter h with finitely many terms; negative exponents
are allowed, for the h^-1 terms of the flat coordinates and the correlation
generating function.  Values built from exact data are exact (infinite
truncation order); values assembled from an h-adic series carry the finite
order through which their coefficients are known.  Binary operations track
the surviving precision (multiplication by h^k shifts it by k), equality
compares the common window, and exact division by h^k lowers a finite order
by k; it never yields a negative exponent.  Combination is the sparse
linear combination with such coefficients that HVector, PolyElement and
TSeries share: their canonical form is decided there once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

DEFAULT_H_ORDER = 6
INF_TRUNC = 10**9

_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def _rat(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class NotDivisibleError(ArithmeticError):
    """Raised when an exact division by a power of h fails.

    Carries the lowest exponent whose coefficient obstructs the division.
    """

    def __init__(self, offending_exponent: int, message: str = ""):
        self.offending_exponent = offending_exponent
        super().__init__(
            message or f"not divisible: nonzero coefficient at h^{offending_exponent}"
        )


class HPoly:
    """Truncated series in h with Fraction coefficients and tracked precision.

    Exponents may be negative.  `trunc` is the largest exponent whose
    coefficient is known; INF_TRUNC marks exact values.  Exponents above a
    finite trunc are discarded.
    """

    __slots__ = ("c", "trunc")

    def __init__(self, coeffs=None, trunc: int | None = None):
        t = INF_TRUNC if trunc is None else trunc
        self.trunc = t
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                if k > t:
                    continue
                v = _rat(v)
                if v != 0:
                    c[k] = v
        self.c = c

    # -- constructors -------------
    @classmethod
    def _of(cls, c: dict, trunc: int) -> "HPoly":
        """Wrap nonzero coefficients at exponents <= trunc without checks."""
        out = cls.__new__(cls)
        out.trunc = trunc
        out.c = c
        return out

    @classmethod
    def const(cls, v) -> "HPoly":
        return cls({0: _rat(v)})

    @classmethod
    def zero(cls, trunc: int | None = None) -> "HPoly":
        return cls({}, trunc=trunc)

    @classmethod
    def h(cls, power: int = 1) -> "HPoly":
        return cls({power: Fraction(1)})

    @classmethod
    def neg_h(cls, power: int, sign: int = 1) -> "HPoly":
        """sign * (-h)^power for a nonzero integer sign (+-1 or a multiplicity).

        The power may be negative: (-h)^-k is the inverse of (-h)^k.
        """
        c = sign if power % 2 == 0 else -sign
        return cls._of(
            {power: _ONE if c == 1 else _MINUS_ONE if c == -1 else Fraction(c)},
            INF_TRUNC,
        )

    @classmethod
    def promote(cls, v) -> "HPoly":
        if isinstance(v, HPoly):
            return v
        return cls.const(v)

    # -- queries -------------
    def coeff(self, k: int) -> Fraction:
        return self.c.get(k, Fraction(0))

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        """Largest stored exponent (-1 when zero)."""
        return max(self.c) if self.c else -1

    def low(self) -> int:
        return min(self.c) if self.c else 0

    def cap(self, t: int) -> "HPoly":
        """Restrict the known window to order t."""
        if t >= self.trunc:
            return self
        return HPoly(self.c, trunc=t)

    # -- arithmetic -------------
    def _combine(self, other, sign: int) -> "HPoly":
        # a sum of two is a two-pair dot with exact +-1 weights
        other = HPoly.promote(other)
        return HPoly.dot(((self, _ONE_H), (other, _ONE_H if sign > 0 else _MINUS_ONE_H)))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return HPoly.promote(other) - self

    def __neg__(self):
        return HPoly._of({k: -v for k, v in self.c.items()}, self.trunc)

    def __mul__(self, other):
        if not isinstance(other, HPoly):
            v = _rat(other)
            other = HPoly._of({0: v} if v else {}, INF_TRUNC)
        return _times(self, other)

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs) -> "HPoly":
        """The sum of a * b over an iterable of (a, b) HPoly pairs.

        `*` is its one-pair case (through `_times`) and `+`, `-` its
        two-pair case.  The sum fills one coefficient table: the window is
        the least of the products' windows, and zeros are dropped once at
        the end, so a cancelled sum keeps its window.  The empty sum is an
        exact zero.  Each exponent sums in integers, a numerator over the
        lcm of its terms' denominators, and becomes one Fraction at the
        end, so the denominator does not grow with the number of terms.
        """
        acc = {}
        t = INF_TRUNC
        for x, y in pairs:
            a, ta, b, tb = x.c, x.trunc, y.c, y.trunc
            if ta < INF_TRUNC or tb < INF_TRUNC:
                w = _product_window(a, ta, b, tb)
                if w < t:
                    t = w
            for i, u in a.items():
                un, ud = u.as_integer_ratio()
                for j, v in b.items():
                    k = i + j
                    vn, vd = v.as_integer_ratio()
                    n, d = un * vn, ud * vd
                    cell = acc.get(k)
                    if cell is None:
                        acc[k] = [n, d]
                    elif cell[1] == d:
                        cell[0] += n
                    else:
                        # bring both to the lcm of the denominators
                        e = cell[1]
                        g = gcd(e, d)
                        cell[0] = cell[0] * (d // g) + n * (e // g)
                        cell[1] = e // g * d
        c = {}
        for k, (n, d) in acc.items():
            if n and k <= t:
                c[k] = Fraction(n) if d == 1 else Fraction(n, d)
        return HPoly._of(c, t)

    def __eq__(self, other):
        if not isinstance(other, HPoly):
            try:
                other = HPoly.promote(other)
            except TypeError:
                return NotImplemented
        t = min(self.trunc, other.trunc)
        a = {k: v for k, v in self.c.items() if k <= t}
        b = {k: v for k, v in other.c.items() if k <= t}
        return a == b

    def h_divide(self, k: int) -> "HPoly":
        """Exact division by h^k; a finite precision window shrinks by k.

        Any exponent below k is an obstruction, so the quotient never has a
        negative exponent; multiply by HPoly.h(-k) to shift instead.
        """
        bad = [e for e in self.c if e < k]
        if bad:
            raise NotDivisibleError(min(bad))
        if k == 0:
            return self
        t = self.trunc if self.trunc >= INF_TRUNC else self.trunc - k
        if t < 0:
            raise NotDivisibleError(
                0, f"insufficient precision to divide by h^{k}"
            )
        return HPoly._of({e - k: v for e, v in self.c.items() if e - k <= t}, t)

    def neg_h_divide(self, k: int) -> "HPoly":
        """Exact division by (-h)^k."""
        out = self.h_divide(k)
        return out if k % 2 == 0 else -out

    def classical_part(self, j: int) -> "HPoly":
        """The h^j coefficient as an exact constant."""
        return HPoly.const(self.coeff(j))

    def __repr__(self):
        return f"HPoly({_fmt_coeffs(self.c)})"

    def __str__(self):
        return _fmt_coeffs(self.c)


_ONE_H, _MINUS_ONE_H = HPoly.neg_h(0), HPoly.neg_h(0, -1)


def _product_window(a: dict, ta: int, b: dict, tb: int) -> int:
    """The known window of the product of coefficients a and b, known
    through orders ta and tb.

    Each finite window grows by the other factor's h-adic valuation (min
    key; a zero factor has maximal valuation); an exact factor leaves no
    finite window of its own.
    """
    return min(
        ta + (min(b) if b else INF_TRUNC) if ta < INF_TRUNC else INF_TRUNC,
        tb + (min(a) if a else INF_TRUNC) if tb < INF_TRUNC else INF_TRUNC,
        INF_TRUNC,
    )


def _times(x: HPoly, y: HPoly) -> HPoly:
    """x * y, equal to HPoly.dot(((x, y),)).

    When one factor is a single exact term s h^j, the product shifts the
    other factor's exponents by j and its window by j (the window formula
    with an exact factor of valuation j), and scales by s: no integer
    cells, no new Fraction for s = +-1, and the other factor itself for
    s h^j = 1.  The product of nonzero series is nonzero and the shifted
    exponents stay inside the shifted window, so nothing is filtered.  An
    HPoly is never changed in place, so sharing it is safe.  Every other
    product is a one-pair dot, which keeps the window formula in one home.
    """
    if y.trunc >= INF_TRUNC and len(y.c) == 1:
        term, other = y.c, x
    elif x.trunc >= INF_TRUNC and len(x.c) == 1:
        term, other = x.c, y
    else:
        return HPoly.dot(((x, y),))
    ((j, s),) = term.items()
    t = other.trunc
    if t < INF_TRUNC:
        t = min(t + j, INF_TRUNC)
    if s == 1:
        if j == 0:
            return other
        c = {i + j: u for i, u in other.c.items()}
    elif s == -1:
        c = {i + j: -u for i, u in other.c.items()}
    else:
        c = {i + j: u * s for i, u in other.c.items()}
    return HPoly._of(c, t)


def collect_pairs(terms: dict, coords: dict, weight: HPoly) -> None:
    """Add weight * coords to `terms`, a linear combination kept as
    {key: [(coefficient, weight), ...]} until `sum_pairs` closes it."""
    for key, c in coords.items():
        terms.setdefault(key, []).append((c, weight))


def sum_pairs(terms: dict) -> dict:
    """Close each {key: [(a, b), ...]} entry by one HPoly.dot; zeros drop.

    Equal to the left fold of the terms unless a partial sum of a key
    cancels: the fold drops that key's window, this keeps the least one.
    A key with one pair is one product.
    """
    out = {}
    for key, pairs in terms.items():
        total = _times(*pairs[0]) if len(pairs) == 1 else HPoly.dot(pairs)
        if total.c:
            out[key] = total
    return out


class Combination:
    """A finite linear combination: `terms` maps keys to coefficients.

    The canonical form is decided here once: every stored coefficient is
    nonzero, a key whose coefficient cancels is dropped, and a missing key
    compares as an exact zero.  Every coefficient is an HPoly.  `scale`
    multiplies each coefficient on the right.  A subclass supplies
    `_like(terms)`, a value of its own shape over canonical terms.
    """

    __slots__ = ("terms",)

    def _like(self, terms: dict):
        raise NotImplementedError

    def _add_at(self, key, value) -> None:
        """Add a nonzero value at one key in place; a cancelled key drops."""
        cur = self.terms.get(key)
        new = value if cur is None else cur + value
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    # -- linear algebra -------------
    def _combine(self, other, sign: int):
        # both sides hold nonzero coefficients: merge, dropping cancellations
        terms = dict(self.terms)
        for key, v in other.terms.items():
            cur = terms.get(key)
            if cur is None:
                terms[key] = v if sign > 0 else -v
            else:
                new = cur._combine(v, sign)
                if new.is_zero():
                    del terms[key]
                else:
                    terms[key] = new
        return self._like(terms)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def collect(self, terms: dict, weight: HPoly) -> None:
        """Add weight * self to the linear combination `terms` (sum_pairs)."""
        collect_pairs(terms, self.terms, weight)

    def scale(self, coef):
        coef = HPoly.promote(coef)
        if coef.is_zero():
            return self._like({})
        # nonzero series have nonzero products (the lowest terms multiply)
        return self._like({k: v * coef for k, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, HPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self.terms, other.terms
        zero = HPoly.zero()
        return all(a.get(k, zero) == b.get(k, zero) for k in a.keys() | b.keys())

    def is_zero(self) -> bool:
        return not self.terms

    # -- h-windows of HPoly coefficients -------------
    def h_degree(self) -> int:
        return max((v.degree() for v in self.terms.values()), default=-1)

    def classical_part(self, j: int):
        """The h^j coefficients, as an h-independent value."""
        return self._like(
            {k: HPoly.const(v.c[j]) for k, v in self.terms.items() if j in v.c}
        )

    def cap_trunc(self, t: int):
        """Restrict every coefficient's window to order t; zeros drop."""
        terms = {}
        for k, v in self.terms.items():
            v = v.cap(t)
            if v.c:
                terms[k] = v
        return self._like(terms)

    def h_divide(self, k: int):
        return self._like({key: v.h_divide(k) for key, v in self.terms.items()})

    def neg_h_divide(self, k: int):
        out = self.h_divide(k)
        return out if k % 2 == 0 else -out


def _fmt_coeffs(c: dict) -> str:
    if not c:
        return "0"
    bits = []
    for k in sorted(c):
        v = c[k]
        if k == 0:
            bits.append(str(v))
        else:
            pow_str = "h" if k == 1 else f"h^{k}"
            if v == 1:
                bits.append(pow_str)
            elif v == -1:
                bits.append(f"-{pow_str}")
            else:
                bits.append(f"{v}*{pow_str}")
    out = " + ".join(bits)
    return out.replace("+ -", "- ")


def rat_str(v: Fraction) -> str:
    """Serialize a rational as "p/q" (or "p" for integers)."""
    return str(v)
