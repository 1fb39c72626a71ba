"""Vectors over a finite cohomology basis and symmetric operator families.

HVector is a sparse vector with HPoly coordinates, a scalars.Combination
keyed by basis index, which owns its linear algebra.  SymMap stores a
graded-symmetric multilinear map on basis tuples (values in C or in H);
PairSymMap stores maps on S^(n-2)H (x) S^2H, the carrier shape of the
level-one families, and takes even ghosts only.  Every table takes one flat
index tuple; a PairSymMap key carries the pair as its last two entries.  Keys
are stored in canonical form (sorted, for a PairSymMap sorted within the
front and within the pair); lookups on other orderings canonicalize by a
plain sort on a table whose ghosts are all even, else with the Koszul sign.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .partitions import sort_sign
from .scalars import Combination, HPoly


class HVector(Combination):
    """Sparse element of H[[h]]: `terms` maps basis indices to HPoly
    coordinates; the arithmetic is Combination's."""

    __slots__ = ()

    def __init__(self, coords=None):
        self.terms = {}
        if coords:
            for i, v in coords.items():
                v = HPoly.promote(v)
                if not v.is_zero():
                    self.terms[i] = v

    @classmethod
    def basis(cls, i: int) -> "HVector":
        return cls({i: 1})

    @classmethod
    def zero(cls) -> "HVector":
        return cls()

    def coeff(self, i: int) -> HPoly:
        return self.terms.get(i, HPoly.zero())

    @classmethod
    def _of(cls, coords: dict) -> "HVector":
        """Wrap a dict of nonzero coordinates without re-checking them."""
        out = cls.__new__(cls)
        out.terms = coords
        return out

    _like = _of  # a vector has no shape beyond its terms

    def pair(self, coeffs) -> HPoly:
        """The linear functional sum_i coeffs[i] * v_i, summed in coordinate order."""
        acc = HPoly.zero()
        for i, coef in self.terms.items():
            acc = acc + coeffs[i] * coef
        return acc

    def sorted_items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
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

    Keys are flat index tuples whose last two entries form the pair.  Level
    one runs after `solve_level_zero` has refused odd ghosts, so the ghosts
    are even and a key sorts its front and its pair.
    """

    def __init__(self, arity: int, ghosts, zero_value):
        if any(g % 2 for g in ghosts):
            raise ValueError("a pair table needs even ghosts")
        super().__init__(arity, ghosts, zero_value)

    def canon(self, idxs):
        idxs = tuple(idxs)
        return tuple(sorted(idxs[:-2])) + tuple(sorted(idxs[-2:])), 1

    # perfbench's tracer looks `get` up in this class's own __dict__
    get = SymMap.get


def tuples_with_repetition(num_basis: int, arity: int):
    """All ascending index tuples (multisets) of the given arity."""
    return list(combinations_with_replacement(range(num_basis), arity))
