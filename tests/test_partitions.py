from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from bvcorr.partitions import (
    ArityCapError,
    insert_sign,
    koszul_sign,
    set_partitions,
    signed_partitions,
    sort_sign,
    sub_multisets,
    subsets,
    unshuffle_sign,
)


def bell_number(n: int) -> int:
    """Independent Bell-number recurrence (triangle scheme)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def test_p1():
    assert set_partitions(1) == (((1,),),)


def test_p3_contents():
    got = set(set_partitions(3))
    want = {
        ((1, 2, 3),),
        ((1, 2), (3,)),
        ((2,), (1, 3)),
        ((1,), (2, 3)),
        ((1,), (2,), (3,)),
    }
    assert got == want


def test_block_ordering_and_determinism():
    for p in set_partitions(4):
        maxes = [max(b) for b in p]
        assert maxes == sorted(maxes)
        for b in p:
            assert list(b) == sorted(b)
    assert set_partitions(4) == set_partitions(4)


@pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877)])
def test_bell_counts(n, bell):
    assert bell_number(n) == bell
    assert len(set_partitions(n)) == bell


def test_arity_cap():
    with pytest.raises(ArityCapError):
        set_partitions(8)


def test_koszul_sign_all_even():
    for p in set_partitions(4):
        assert koszul_sign(p, [0, 2, 0, -2]) == 1


def test_koszul_sign_single_transposition():
    # {2} u {1,3} reorders (1,2,3) -> (2,1,3): one odd transposition
    p = ((2,), (1, 3))
    assert koszul_sign(p, [1, 1, 0]) == -1
    assert koszul_sign(p, [1, 1, 1]) == -1
    assert koszul_sign(p, [0, 1, 0]) == 1


def test_koszul_identity_partition():
    assert koszul_sign(((1, 2, 3, 4),), [1, 1, 1, 1]) == 1


def _bubble_oracle(perm, degrees):
    # independent transposition-counting oracle
    arr = list(perm)
    sign = 1
    for i in range(len(arr)):
        for j in range(len(arr) - 1):
            if arr[j] > arr[j + 1]:
                if degrees[arr[j] - 1] % 2 and degrees[arr[j + 1] - 1] % 2:
                    sign = -sign
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    return sign


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_koszul_against_bubble_sort(n, data):
    degrees = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    parts = set_partitions(n)
    p = parts[data.draw(st.integers(0, len(parts) - 1))]
    perm = [i for b in p for i in b]
    assert koszul_sign(p, degrees) == _bubble_oracle(perm, degrees)


def test_swapping_even_elements_keeps_sign():
    # multiplicativity: a further swap of two even slots changes nothing
    degrees = [1, 0, 0, 1]
    p = ((2,), (1, 3), (4,))
    q = ((3,), (1, 2), (4,))  # exchanges the two even elements 2 and 3
    assert koszul_sign(p, degrees) == koszul_sign(q, degrees)


def test_sort_sign_odd_square_vanishes():
    idxs, sign = sort_sign((2, 2), [1, 1])
    assert sign == 0
    idxs, sign = sort_sign((3, 1), [1, 1])
    assert idxs == (1, 3) and sign == -1


# -- the partition-sum kernel -------------


def _brute_signs(p, degrees):
    # eps(p) times (-1)^|v_B| for every block B before block i
    out, sign = [], koszul_sign(p, degrees)
    for b in p:
        out.append(sign)
        sign *= (-1) ** sum(degrees[j - 1] for j in b)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_signed_partitions_against_brute_force(n, data):
    degrees = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    table = signed_partitions(n, degrees)
    assert [p for p, _ in table] == list(set_partitions(n))
    for p, eps in table:
        assert eps == _brute_signs(p, degrees)[0]


def _insertions(n, degrees):
    # (p, i, sign) for each block B_i of p with |B_i| = n - |p| + 1, so that
    # every other block is a singleton: the partition form of an unshuffle;
    # sign = eps(p) times the J-signs of the blocks before B_i
    return [(p, i, _brute_signs(p, degrees)[i]) for p, _ in signed_partitions(n, degrees)
            for i, b in enumerate(p) if len(b) == n - len(p) + 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_insertions_against_brute_force(n, data):
    # the partition form's sign, eps(p) times the J-signs of the singletons
    # before B_i, turns into eps(I|I^c) once the inner bracket (ghost
    # |x_I| + 1) moves ahead of those singletons
    degrees = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    want = {}
    for p, i, sign in _insertions(n, degrees):
        before = sum(degrees[b[0] - 1] for b in p[:i])
        inner = sum(degrees[j - 1] for j in p[i]) + 1
        want[tuple(j - 1 for j in p[i])] = sign * (-1) ** (inner * before % 2)
    got = {I: sign for I, _, sign in subsets(n, degrees, range(1, n + 1))}
    assert got == want


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_subsets_against_brute_force(n, data):
    degrees = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    sizes = data.draw(st.sets(st.integers(1, n)))
    table = subsets(n, degrees, sizes)
    want = [I for mask in range(1 << n)
            for I in [tuple(j for j in range(n) if mask >> j & 1)] if len(I) in sizes]
    assert sorted(I for I, _, _ in table) == sorted(want)  # each exactly once
    for I, rest, sign in table:
        assert rest == tuple(j for j in range(n) if j not in I)
        assert sign == _bubble_oracle([j + 1 for j in I + rest], degrees)
        odd = sum(1 << j for j, d in enumerate(degrees) if d % 2)
        assert sign == unshuffle_sign(odd, sum(1 << j for j in I))
    flipped = [d + 2 for d in degrees]  # other degrees, the same parities
    assert subsets(n, flipped, sorted(sizes, reverse=True)) is table


def test_kernel_sign_table_depends_on_parity_only():
    assert signed_partitions(4, [1, 0, -1, 2]) is signed_partitions(4, [3, 2, 1, 0])


def test_kernel_arity_cap():
    with pytest.raises(ArityCapError):
        signed_partitions(8, [0] * 8)
    with pytest.raises(ArityCapError):
        subsets(8, [0] * 8, range(1, 9))


def _insertion_sort_sign(indices, degrees):
    # the general path written out: insertion sort counting odd transpositions
    items = list(zip(indices, degrees))
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1][0] > items[j][0]:
            if items[j - 1][1] % 2 and items[j][1] % 2:
                sign = -sign
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    if any(a[0] == b[0] and b[1] % 2 for a, b in zip(items, items[1:])):
        sign = 0
    return tuple(x for x, _ in items), sign


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.booleans(), st.data())
def test_sort_sign_against_insertion_sort(n, even, data):
    indices = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    pool = st.sampled_from([-4, -2, 0, 2]) if even else st.integers(-3, 3)
    degrees = data.draw(st.lists(pool, min_size=n, max_size=n))
    assert sort_sign(tuple(indices), degrees) == _insertion_sort_sign(indices, degrees)


def test_insert_sign_against_sort_sign():
    # every parity pattern on five letters (odd ghosts of either sign, even
    # ghosts 0 and 2), every ascending word of length <= 4 with no repeated
    # odd letter and every letter k, odd collisions (sign 0) included
    collisions = 0
    for bits in product((0, 1), repeat=5):
        ghosts = [(-1) ** i if b else 2 * (i % 2) for i, b in enumerate(bits)]
        for n in range(5):
            for word in combinations_with_replacement(range(5), n):
                if any(bits[x] and word.count(x) > 1 for x in word):
                    continue
                for k in range(5):
                    full = (k,) + word
                    got = insert_sign(k, word, ghosts)
                    assert got == sort_sign(full, [ghosts[x] for x in full])
                    collisions += got[1] == 0
    assert collisions > 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=7), st.booleans())
def test_sub_multisets_count_position_subsets(key, anchored):
    # mult is the number of position subsets (holding position 1 when
    # anchored) whose entries form k, and rest is what those leave
    key = tuple(sorted(key))
    want = {}
    for mask in range(1 << len(key)):
        if anchored and not mask & 1:
            continue
        k = tuple(v for i, v in enumerate(key) if mask >> i & 1)
        rest = tuple(v for i, v in enumerate(key) if not mask >> i & 1)
        want[k, rest] = want.get((k, rest), 0) + 1
    got = sub_multisets(key, anchored)
    assert {(k, rest): mult for k, rest, mult in got} == want
    assert len(got) == len(want)
