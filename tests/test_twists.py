"""The anomaly-twisted differentials with a synthetic nonzero anomaly.

No potential in the library produces a nonzero kappa, so the twisted
operators are validated here on a mock on-shell complex: they must square
to zero for any consistent kappa, which pins the parity-twist placement
and the global sign.  The level-one families live on pair tables
(S^(n-2)H (x) S^2H); a fully symmetric map read as a pair table must give
the same twisted values at every key.
"""

import itertools

from bvcorr.hspace import HVector, PairSymMap, SymMap
from bvcorr.polyalg import PolyElement, Potential, quantum_K
from bvcorr.retract import twisted_K_HC, twisted_kappa_HH
from bvcorr.scalars import HPoly


# basis index -> index of h^-1 kappa(e_i); both raise the ghost by one and
# square to zero.  Under the second, 3 -> 1 puts an odd entry after a larger
# odd one (pair (2, 3) becomes (2, 1)), so the twist needs a Koszul sign.
KAPPA_MAPS = ({1: 0, 3: 2}, {2: 0, 3: 1})


class _MockOnShell:
    """Ghosts (0,-1,-1,-2); kappa raises ghost by one and squares to zero."""

    n_vars = 1
    ghosts = [0, -1, -1, -2]
    dim = 4

    def __init__(self, with_K=False, kappa_map=KAPPA_MAPS[0]):
        self._pot = Potential.a_k(2) if with_K else None
        self._kappa_map = kappa_map

    def Khat(self, c):
        if self._pot is None:
            return PolyElement.zero(1)
        return quantum_K(self._pot, c)

    def kappa(self, v):
        out = HVector.zero()
        for i, c in v.c.items():
            if i in self._kappa_map:
                out = out + HVector({self._kappa_map[i]: c * HPoly.h()})
        return out

    def kappa_is_zero(self):
        return False


def _filled_map(q, arity, values):
    om = SymMap(arity, q.ghosts, PolyElement.zero(1))
    c = 0
    for key in itertools.combinations_with_replacement(range(q.dim), arity):
        _, sgn = om.canon(key)
        if sgn == 0:
            continue
        om.set(key, values[c % len(values)])
        c += 1
    return om


def _as_pair_table(full):
    """The fully symmetric map read as a map on S^(n-2)H (x) S^2H."""
    out = PairSymMap(full.arity, full.ghosts, full.zero_value)
    dim = len(full.ghosts)
    for front, pair in itertools.product(
        itertools.combinations_with_replacement(range(dim), full.arity - 2),
        list(itertools.combinations_with_replacement(range(dim), 2)),
    ):
        out.set(front + pair, full.get(front + pair))
    return out


def _tables(full):
    """The full table, plus its pair-table reading from arity two on."""
    return [full, _as_pair_table(full)] if full.arity >= 2 else [full]


def _assert_pair_agrees(op, q, full, ghost):
    """op on the pair reading equals op on the full table at every pair key;
    returns how many of the compared values are nonzero."""
    pair = _as_pair_table(full)
    on_full, on_pair = op(q, full, ghost), op(q, pair, ghost)
    assert type(on_pair) is PairSymMap
    assert on_pair.keys() == pair.keys()
    for key in on_pair.keys():
        assert on_pair.get(key) == on_full.get(key), key
    return sum(not on_pair.get(key).is_zero() for key in on_pair.keys())


def test_twisted_K_squares_to_zero():
    vals = [PolyElement.x(0, 1, d) for d in range(1, 6)]
    vals.append(PolyElement.x(0, 1, 2) * PolyElement.eta(0, 1))
    for with_K, kappa_map in itertools.product((False, True), KAPPA_MAPS):
        q = _MockOnShell(with_K, kappa_map)
        for arity in (1, 2, 3):
            full = _filled_map(q, arity, vals)
            for ghost in (0, 1, -1):
                for om in _tables(full):
                    twice = twisted_K_HC(q, twisted_K_HC(q, om, ghost), ghost + 1)
                    for key in twice.keys():
                        assert twice.get(key).is_zero()
                if arity >= 2:
                    assert _assert_pair_agrees(twisted_K_HC, q, full, ghost) > 0


def test_twisted_kappa_squares_to_zero():
    for q, arity in itertools.product(
        [_MockOnShell(kappa_map=m) for m in KAPPA_MAPS], (1, 2, 3)
    ):
        full = SymMap(arity, q.ghosts, HVector.zero())
        c = 0
        for key in itertools.combinations_with_replacement(range(q.dim), arity):
            _, sgn = full.canon(key)
            if sgn == 0:
                continue
            full.set(key, HVector({c % q.dim: HPoly.const(c + 1)}))
            c += 1
        for ghost in (0, -1):
            for om in _tables(full):
                twice = twisted_kappa_HH(q, twisted_kappa_HH(q, om, ghost), ghost + 1)
                for key in twice.keys():
                    assert twice.get(key).is_zero()
            if arity >= 2:
                assert _assert_pair_agrees(twisted_kappa_HH, q, full, ghost) > 0


def test_zero_twist_reduces_to_plain_differential():
    # the kappa = 0 fast path must agree with applying Khat value-wise
    from bvcorr import build_retract, milnor_basis, quantize_retract

    q = quantize_retract(build_retract(milnor_basis(Potential.a_k(2))))
    om = SymMap(2, q.ghosts, PolyElement.zero(1))
    om.set((1, 1), PolyElement.x(0, 1, 2))
    om.set((0, 1), PolyElement.x(0, 1, 1) * PolyElement.eta(0, 1))
    out = twisted_K_HC(q, om, ghost=0)
    for key in om.keys():
        assert out.get(key) == q.Khat(om.get(key))
