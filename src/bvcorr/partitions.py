"""Set partitions, unshuffles, Koszul signs, and the partition-sum kernels.

A partition of [n] = {1, ..., n} is stored as a tuple of blocks; each block
is an ascending tuple of indices and blocks are ordered by their maximum.

The morphism-side structures are sums of one shape: over the set partitions
p of [n], the Koszul sign eps(p) times (-h)^(n-|p|).  `signed_partitions`
lists each partition with its sign, in `set_partitions` order; `slinf`
composes morphisms over it, whose outer map takes one argument per block.
The correlators, the moment/cumulant identity and the descendants split
off the block that holds the first argument instead (the graded exponential
formula).  They, the sL-infinity relations and the bar coderivation are sums
over unshuffles (I | I^c) (Lada-Stasheff 1993): `subsets` lists the subsets I of the
sizes a structure has brackets for, with eps(I|I^c) from `unshuffle_sign`,
which Koszul's closed formula for the descendant brackets of `polyalg` uses
too; `insert_sign` puts the bracket's output letter into the rest of a
canonical word.  The master-equation solvers sum over sub-multisets
(`sub_multisets`).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, groupby, product
from math import comb, prod

ARITY_CAP = 7

Partition = tuple  # tuple of ascending tuples, blocks ordered by max


class ArityCapError(RuntimeError):
    """Partition enumeration refused because the arity exceeds the cap."""


def _canon(blocks) -> Partition:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=max))


@lru_cache(maxsize=None)
def set_partitions(n: int) -> tuple:
    """All partitions of [n], ordered by block-max sequence then blocks."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > ARITY_CAP:
        raise ArityCapError(f"arity {n} exceeds cap {ARITY_CAP}")
    parts = [((1,),)]
    for k in range(2, n + 1):
        grown = []
        for p in parts:
            for i in range(len(p)):
                grown.append(p[:i] + (p[i] + (k,),) + p[i + 1:])
            grown.append(p + ((k,),))
        parts = [_canon(p) for p in grown]
    parts.sort(key=lambda p: (tuple(max(b) for b in p), p))
    return tuple(parts)


def koszul_sign(partition, degrees) -> int:
    """Sign of reordering v_1 x ... x v_n into block order.

    `degrees` lists the ghost number of v_1..v_n.  Computed by counting
    inversions between odd-degree elements, i.e. by explicit transpositions.
    """
    perm = [i for block in partition for i in block]
    n = len(perm)
    if len(degrees) != n:
        raise ValueError("degree list does not match partition size")
    sign = 1
    for a in range(n):
        if degrees[perm[a] - 1] % 2 == 0:
            continue
        for b in range(a + 1, n):
            if perm[a] > perm[b] and degrees[perm[b] - 1] % 2 != 0:
                sign = -sign
    return sign


def sort_sign(indices, degrees) -> tuple:
    """Stable-sort a tuple of indices, tracking the Koszul sign.

    `degrees[j]` is the ghost number of the element at position j of
    `indices`.  Returns (sorted_indices, sign); sign is 0 when two equal
    odd elements collide (their symmetric product vanishes).
    """
    if not any(d % 2 for d in degrees):
        return tuple(sorted(indices)), 1  # even data: no sign, no collision
    items = list(zip(indices, degrees))
    sign = 1
    # insertion sort; counts transpositions of odd pairs
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1][0] > items[j][0]:
            if items[j - 1][1] % 2 != 0 and items[j][1] % 2 != 0:
                sign = -sign
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1][0] == items[i][0] and items[i][1] % 2 != 0:
            return tuple(x for x, _ in items), 0
    return tuple(x for x, _ in items), sign


def insert_sign(k: int, word: tuple, ghosts) -> tuple:
    """Insert the letter k into a canonical word, tracking the Koszul sign.

    `word` is ascending with no repeated odd letter and `ghosts[i]` is the
    ghost number of letter i.  Returns the canonical form of (k,) + word
    and its sign: (-1)^(odd letters k passes) when k is odd, 1 when k is
    even, and 0 when an odd k is already in the word.  This is what
    `sort_sign` gives on (k,) + word, without sorting it.
    """
    pos = bisect_left(word, k)
    out = word[:pos] + (k,) + word[pos:]
    if not ghosts[k] % 2:
        return out, 1
    if pos < len(word) and word[pos] == k:
        return out, 0
    passed = sum(ghosts[x] % 2 for x in word[:pos])
    return out, -1 if passed % 2 else 1


def unshuffle_sign(odd: int, mask: int) -> int:
    """eps(I|I^c): the Koszul sign of moving I, in order, ahead of I^c.

    Both are bitmasks over positions: `mask` holds I and `odd` the
    positions of odd degree.  Each odd element of I^c before an odd
    element of I is one transposition.
    """
    flips = sum((odd & ~mask & ((1 << j) - 1)).bit_count()
                for j in range(odd.bit_length()) if (odd & mask) >> j & 1)
    return -1 if flips % 2 else 1


@lru_cache(maxsize=None)
def _subsets(n: int, parities: tuple, sizes: tuple) -> tuple:
    if n > ARITY_CAP:
        raise ArityCapError(f"arity {n} exceeds cap {ARITY_CAP}")
    odd = sum(1 << j for j, d in enumerate(parities) if d)
    out = []
    for m in sizes:
        for I in combinations(range(n), m):
            mask = sum(1 << j for j in I)
            rest = tuple(j for j in range(n) if not mask >> j & 1)
            out.append((I, rest, unshuffle_sign(odd, mask)))
    return tuple(out)


def subsets(n: int, degrees, sizes) -> tuple:
    """(I, I^c, eps(I|I^c)) for each I of the positions 0..n-1, |I| in `sizes`.

    `degrees[j]` is the ghost number of the element at position j; I and
    I^c are ascending tuples of positions.  The subsets come by ascending
    size, each size in `itertools.combinations` order.  The table is cached
    on the degree parities and the sizes.
    """
    return _subsets(n, tuple(d % 2 for d in degrees), tuple(sorted(set(sizes))))


@lru_cache(maxsize=None)
def sub_multisets(key: tuple, anchored: bool) -> tuple:
    """Every sub-multiset k of an ascending key as (k, rest = key - k, mult).

    mult = prod_i C(m_i, k_i) counts the position subsets of key that carry k
    (m_i, k_i the multiplicities of index i).  With `anchored`, k must contain
    a = key[0] and the first a is fixed, so a's factor is C(m_a - 1, k_a - 1):
    the multiset form of the set-partition block that holds position 1.
    """
    runs = [(v, len(tuple(g))) for v, g in groupby(key)]
    if anchored and not runs:
        return ()
    ranges = [range(1 if anchored and r == 0 else 0, m + 1)
              for r, (_, m) in enumerate(runs)]
    out = []
    for ks in product(*ranges):
        k = tuple(v for (v, _), c in zip(runs, ks) for _ in range(c))
        rest = tuple(v for (v, m), c in zip(runs, ks) for _ in range(m - c))
        mult = prod(comb(m - 1, c - 1) if anchored and r == 0 else comb(m, c)
                    for r, ((_, m), c) in enumerate(zip(runs, ks)))
        out.append((k, rest, mult))
    return tuple(out)


@lru_cache(maxsize=None)
def _signed(n: int, parities: tuple) -> tuple:
    return tuple((p, koszul_sign(p, parities)) for p in set_partitions(n))


def signed_partitions(n: int, degrees) -> tuple:
    """The partitions p of [n] in `set_partitions` order, as (p, eps(p)).

    `degrees[j-1]` is the ghost number of v_j and eps(p) the Koszul sign of
    reordering v_1 .. v_n into block order.  The table is cached on the
    degree parities: all-even data of one arity shares a single table.
    """
    return _signed(n, tuple(d % 2 for d in degrees))
