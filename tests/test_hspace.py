import itertools

import pytest
from hypothesis import given, settings, strategies as st

import bvcorr.hspace as hspace
from bvcorr.hspace import HVector, PairSymMap, SymMap
from bvcorr.partitions import sort_sign
from bvcorr.scalars import HPoly

# a pair table takes even ghosts only
PAIR_GHOSTS = [0, 2, -2, 0]


def _pair_table(arity):
    """Every canonical flat key of the given arity gets its own value."""
    t = PairSymMap(arity, PAIR_GHOSTS, HVector.zero())
    expected = {}
    for front, pair in itertools.product(
        itertools.combinations_with_replacement(range(4), arity - 2),
        list(itertools.combinations_with_replacement(range(4), 2)),
    ):
        key = front + pair
        expected[key] = HVector({len(expected) % 4: HPoly({0: len(expected) + 1, 1: 1})})
        t.set(key, expected[key])
    return t, expected


def test_pair_symmap_flat_keys_and_symmetry():
    for arity in (2, 3, 4):
        t, expected = _pair_table(arity)
        # keys() is flat and sorted as the nested (front, pair) keys were
        keys = t.keys()
        assert keys == sorted(expected)
        assert all(len(k) == arity and all(isinstance(i, int) for i in k) for k in keys)
        assert keys == sorted(keys, key=lambda k: (k[:-2], k[-2:]))
        # any order inside the front and inside the pair reads the same entry
        for key, value in expected.items():
            front, pair = key[:-2], key[-2:]
            for f in set(itertools.permutations(front)):
                for p in set(itertools.permutations(pair)):
                    assert t.get(f + p) == value, (f, p)


def test_pair_symmap_split_is_part_of_the_key():
    t = PairSymMap(4, PAIR_GHOSTS, HVector.zero())
    t.set((1, 2, 0, 3), HVector.basis(0))
    # the same multiset split differently is another key
    assert t.get((0, 3, 1, 2)).is_zero()
    assert t.get((0, 1, 2, 3)).is_zero()
    t.set((0, 3, 1, 2), HVector.basis(1))
    assert t.keys() == [(0, 3, 1, 2), (1, 2, 0, 3)]
    assert t.get((2, 1, 0, 3)) == HVector.basis(0)
    assert t.get((1, 2, 3, 0)) == HVector.basis(0)
    assert t.get((3, 0, 2, 1)) == HVector.basis(1)
    # a set through a non-canonical ordering stores at the canonical key
    t.set((3, 1, 2, 1), HVector.basis(2))
    assert t.values[(1, 3, 1, 2)] == HVector.basis(2)
    assert t.get((3, 1, 2, 1)) == HVector.basis(2)


def test_pair_symmap_map_values_and_classical_part_keep_the_type():
    t, expected = _pair_table(3)
    for out, want in (
        (t.map_values(lambda v: -v), {k: -v for k, v in expected.items()}),
        (t.classical_part(1), {k: v.classical_part(1) for k, v in expected.items()}),
    ):
        assert type(out) is PairSymMap
        assert (out.arity, out.ghosts) == (3, PAIR_GHOSTS)
        assert out.keys() == sorted(expected)
        for key in expected:
            assert out.get(key) == want[key]
        # the pair canon still applies: the pair reads in either order
        assert out.get((0, 2, 1)) == out.get((0, 1, 2)) == want[(0, 1, 2)]
    assert t.h_degree() == 1


def test_pair_symmap_refuses_odd_ghosts():
    # the level-one tables are built after level zero has refused odd
    # ghosts, so a pair table has no Koszul signs to take
    for ghosts in ([0, -1, 1, 2], [0, 0, 3]):
        with pytest.raises(ValueError, match="even ghosts"):
            PairSymMap(3, ghosts, HVector.zero())


def _refuse(*args):
    raise AssertionError("sort_sign called on an all-even table")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=2, max_size=7),
       st.lists(st.sampled_from([0, 2, -2]), min_size=6, max_size=6))
def test_even_tables_canonicalize_as_sort_sign(idxs, ghosts):
    # the plain sort of an all-even table is sort_sign's result, sign included
    idxs = tuple(idxs)
    front, pair = idxs[:-2], idxs[-2:]
    want = sort_sign(idxs, [ghosts[i] for i in idxs])
    fkey, fsign = sort_sign(front, [ghosts[i] for i in front])
    pkey, psign = sort_sign(pair, [ghosts[i] for i in pair])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hspace, "sort_sign", _refuse)
        assert SymMap(len(idxs), ghosts, HVector.zero()).canon(idxs) == want
        got = PairSymMap(len(idxs), ghosts, HVector.zero()).canon(idxs)
    assert got == (fkey + pkey, fsign * psign)


def test_odd_tables_keep_the_koszul_sign():
    t = SymMap(3, [0, -1, 1, 2], HVector.zero())
    assert t.canon((2, 0, 1)) == ((0, 1, 2), -1)
    assert t.canon((1, 3, 1)) == ((1, 1, 3), 0)
    assert t.canon((3, 0, 2)) == ((0, 2, 3), 1)
    # one odd ghost anywhere in the table keeps the signed path for every key
    t = SymMap(2, [0, 2, 1], HVector.zero())
    t.set((1, 0), HVector.basis(0))
    assert t.get((0, 1)) == HVector.basis(0) and t.canon((2, 2)) == ((2, 2), 0)
