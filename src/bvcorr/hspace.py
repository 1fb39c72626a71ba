"""Vectors over a finite cohomology basis and symmetric operator families.

HVector is a sparse vector with HPoly coordinates.  SymMap stores a
graded-symmetric multilinear map on basis tuples (values in C or in H);
PairSymMap stores maps on S^(n-2)H (x) S^2H, the carrier shape of the
level-one families.  Every table takes one flat index tuple; a PairSymMap
key carries the pair as its last two entries.  Keys are stored in canonical
form (sorted, for a PairSymMap sorted within the front and within the pair);
lookups on other orderings canonicalize with the Koszul sign, or by a plain
sort on a table whose ghosts are all even.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .partitions import sort_sign
from .scalars import HPoly, collect_pairs


class HVector:
    """Sparse element of H[[h]] over a fixed basis index set."""

    __slots__ = ("c",)

    def __init__(self, coords=None):
        self.c = {}
        if coords:
            for i, v in coords.items():
                v = HPoly.promote(v)
                if not v.is_zero():
                    self.c[i] = v

    @classmethod
    def basis(cls, i: int) -> "HVector":
        return cls({i: 1})

    @classmethod
    def zero(cls) -> "HVector":
        return cls()

    def coeff(self, i: int) -> HPoly:
        return self.c.get(i, HPoly.zero())

    @classmethod
    def _of(cls, coords: dict) -> "HVector":
        """Wrap a dict of nonzero coordinates without re-checking them."""
        out = cls.__new__(cls)
        out.c = coords
        return out

    def is_zero(self) -> bool:
        return not self.c

    def _merge(self, other, sign: int) -> "HVector":
        c = dict(self.c)
        for i, v in other.c.items():
            w = c.get(i)
            if w is None:
                c[i] = v if sign > 0 else -v
            else:
                w = w._combine(v, sign)
                if w.c:
                    c[i] = w
                else:
                    del c[i]
        return HVector._of(c)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return HVector._of({i: -v for i, v in self.c.items()})

    def pair(self, coeffs) -> HPoly:
        """The linear functional sum_i coeffs[i] * v_i, summed in coordinate order."""
        acc = HPoly.zero()
        for i, coef in self.c.items():
            acc = acc + coeffs[i] * coef
        return acc

    def collect(self, terms: dict, weight: HPoly) -> None:
        """Add weight * self to the linear combination `terms` (scalars.sum_pairs)."""
        collect_pairs(terms, self.c, weight)

    def scale(self, coef) -> "HVector":
        coef = HPoly.promote(coef)
        if coef.is_zero():
            return HVector()
        # nonzero series have nonzero products (the lowest terms multiply)
        return HVector._of({i: v * coef for i, v in self.c.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, HPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, HVector):
            return NotImplemented
        keys = set(self.c) | set(other.c)
        z = HPoly.zero()
        return all(self.c.get(k, z) == other.c.get(k, z) for k in keys)

    def classical_part(self, j: int) -> "HVector":
        return HVector(
            {i: HPoly.const(v.coeff(j)) for i, v in self.c.items() if v.coeff(j) != 0}
        )

    def cap_trunc(self, t: int) -> "HVector":
        return HVector({i: v.cap(t) for i, v in self.c.items()})

    def h_degree(self) -> int:
        return max((v.degree() for v in self.c.values()), default=-1)

    def neg_h_divide(self, k: int) -> "HVector":
        return HVector({i: v.neg_h_divide(k) for i, v in self.c.items()})

    def sorted_items(self):
        return sorted(self.c.items())

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"({v})*e{i}" for i, v in self.sorted_items())


class SymMap:
    """Graded-symmetric n-ary map on basis tuples of H.

    `ghosts[i]` is the ghost number of basis element i; values live in a
    module with +, unary -, and .scale (PolyElement or HVector).
    """

    def __init__(self, arity: int, ghosts, zero_value):
        self.arity = arity
        self.ghosts = ghosts
        self.zero_value = zero_value
        self.values = {}
        # even ghosts (every solver and on-shell table): sort, no sign
        self.odd = any(g % 2 for g in ghosts)

    def canon(self, idxs):
        if not self.odd:
            return tuple(sorted(idxs)), 1
        return sort_sign(tuple(idxs), [self.ghosts[i] for i in idxs])

    def set(self, idxs, value) -> None:
        key, sign = self.canon(idxs)
        if sign == 0:
            return
        self.values[key] = value if sign > 0 else -value

    def get(self, idxs):
        key, sign = self.canon(idxs)
        if sign == 0:
            return self.zero_value
        v = self.values.get(key)
        if v is None:
            return self.zero_value
        return v if sign > 0 else -v

    def keys(self):
        return sorted(self.values)

    def map_values(self, fn) -> "SymMap":
        out = type(self)(self.arity, self.ghosts, fn(self.zero_value))
        for k, v in self.values.items():
            out.values[k] = fn(v)
        return out

    def classical_part(self, j: int) -> "SymMap":
        return self.map_values(lambda v: v.classical_part(j))

    def h_degree(self) -> int:
        return max((v.h_degree() for v in self.values.values()), default=-1)


class PairSymMap(SymMap):
    """Map on S^(n-2)H (x) S^2H: symmetric in the front block and in the pair.

    Keys are flat index tuples whose last two entries form the pair.
    """

    def canon(self, idxs):
        idxs = tuple(idxs)
        if not self.odd:
            return tuple(sorted(idxs[:-2])) + tuple(sorted(idxs[-2:])), 1
        fkey, fsign = sort_sign(idxs[:-2], [self.ghosts[i] for i in idxs[:-2]])
        pkey, psign = sort_sign(idxs[-2:], [self.ghosts[i] for i in idxs[-2:]])
        return fkey + pkey, fsign * psign

    # perfbench's tracer looks `get` up in this class's own __dict__
    get = SymMap.get


def tuples_with_repetition(num_basis: int, arity: int):
    """All ascending index tuples (multisets) of the given arity."""
    return list(combinations_with_replacement(range(num_basis), arity))
