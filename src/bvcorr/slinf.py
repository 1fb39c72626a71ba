"""Finite-basis sL-infinity structures, morphisms, and their verification.

Structures are tables of structure constants over a graded basis; the
relations are checked two independent ways: directly (sums over unshuffles)
and through the square of the bar-construction coderivation.  Morphism-side
machinery covers descendants of pointed cochain maps, composition,
correlators and the moment/cumulant identity; all but composition sum by
one graded exponential formula, `_exponential_sum`.
"""

from __future__ import annotations

from itertools import product

from .hspace import HVector, SymMap, tuples_with_repetition
from .partitions import ARITY_CAP, insert_sign, signed_partitions, sort_sign, subsets
from .polyalg import PolyElement
from .report import Report
from .scalars import HPoly, NotDivisibleError, sum_pairs


class GradedBasisElement:
    """A labelled basis vector of ghost number `ghost`; immutable."""

    __slots__ = ("label", "ghost")

    def __init__(self, label: str, ghost: int):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "ghost", ghost)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.ghost) == (other.label, other.ghost)

    def __hash__(self):
        return hash((self.label, self.ghost))

    def __repr__(self):
        return f"GradedBasisElement(label={self.label!r}, ghost={self.ghost!r})"


class SLInfStructure:
    """Unital sL-infinity structure constants over a finite graded basis."""

    def __init__(self, basis, ops=None, unit: int | None = None):
        self.basis = list(basis)
        self.ghosts = [b.ghost for b in self.basis]
        self.ops = {}
        if ops:
            for n, table in ops.items():
                for idxs, value in table.items():
                    self.set_op(n, idxs, value)
        self.unit = unit

    def set_op(self, n: int, idxs, value: HVector) -> None:
        idxs = tuple(idxs)
        if len(idxs) != n:
            raise ValueError("arity mismatch")
        want = sum(self.ghosts[i] for i in idxs) + 1
        for k, coef in value.terms.items():
            if not coef.is_zero() and self.ghosts[k] != want:
                raise ValueError(
                    f"structure constant at {idxs} lands in ghost "
                    f"{self.ghosts[k]}, expected {want}"
                )
        if n not in self.ops:
            self.ops[n] = SymMap(n, self.ghosts, HVector.zero())
        self.ops[n].set(idxs, value)

    def op(self, idxs) -> HVector:
        n = len(idxs)
        table = self.ops.get(n)
        if table is None:
            return HVector.zero()
        return table.get(tuple(idxs))

    def relation_residual(self, idxs) -> HVector:
        """The arity-n relation on a basis tuple x; zero iff it holds.

        The sum over unshuffles (I | I^c) of eps(I|I^c) ell(ell(x_I), x_(I^c))
        (Lada-Stasheff 1993), over the sizes m = |I| for which both ell_m and
        ell_(n-m+1) have a table; each coordinate k of the inner bracket is
        read as the outer word (k, x_(I^c)).  x may come in any order: it is
        sorted once, with its Koszul sign, and the sub-words of a canonical
        word are canonical, so both brackets read their tables directly.
        """
        ghosts, ops = self.ghosts, self.ops
        key, sign = sort_sign(tuple(idxs), [ghosts[i] for i in idxs])
        if not sign:
            return HVector.zero()
        n = len(key)
        sizes = [m for m in ops if n - m + 1 in ops]
        terms = {}  # coordinate -> [(inner coefficient, outer coefficient)]
        for I, rest, eps in subsets(n, [ghosts[i] for i in key], sizes):
            inner = ops[len(I)].values.get(tuple(key[j] for j in I))
            if inner is None:
                continue
            table = ops[n - len(I) + 1].values
            outer = tuple(key[j] for j in rest)
            for k, coef in inner.terms.items():
                word, wsign = insert_sign(k, outer, ghosts)
                val = table.get(word) if wsign else None
                if val is None:
                    continue
                if eps * wsign * sign < 0:
                    coef = -coef
                for t, v in val.terms.items():
                    terms.setdefault(t, []).append((coef, v))
        return HVector._of(sum_pairs(terms))


def _repeats_odd(ghosts, idxs) -> bool:
    """Whether the word repeats an odd letter, so that it vanishes."""
    return any(ghosts[i] % 2 and idxs.count(i) > 1 for i in idxs)


def verify_sl_infinity(S: SLInfStructure, n_max: int) -> Report:
    """Check every relation instance on basis tuples up to arity n_max."""
    rep = Report()
    dim = len(S.basis)
    for n in range(1, n_max + 1):
        for idxs in tuples_with_repetition(dim, n):
            if _repeats_odd(S.ghosts, idxs):
                continue
            rep.checks += 1
            res = S.relation_residual(idxs)
            if not res.is_zero():
                rep.add(n, idxs, res)
        if S.unit is not None:
            for idxs in tuples_with_repetition(dim, n - 1) if n > 1 else [()]:
                rep.checks += 1
                val = S.op(tuple(idxs) + (S.unit,))
                if not val.is_zero():
                    rep.add(n, tuple(idxs) + (S.unit,), val, kind="unit")
    rep.violations.sort(key=lambda v: (v.arity, v.where))
    return rep


# -- bar construction oracle -------------


def _delta_on_word(S: SLInfStructure, idxs) -> dict:
    """The coderivation of the descendant weights on one canonical word x.

    The sum over unshuffles (I | I^c) with |I| = m an arity of S of
    eps(I|I^c) (-h)^(m-1) ell_m(x_I) x_(I^c), each coordinate k of the
    bracket giving the word (k, x_(I^c)); returned as {canonical word: coef}.
    """
    ghosts, ops = S.ghosts, S.ops
    terms = {}  # word -> [(bracket coefficient, signed weight)]
    for I, rest, sign in subsets(len(idxs), [ghosts[i] for i in idxs], ops):
        inner = ops[len(I)].values.get(tuple(idxs[j] for j in I))
        if inner is None or not inner.terms:
            continue
        w, neg_w = HPoly.neg_h(len(I) - 1, sign), HPoly.neg_h(len(I) - 1, -sign)
        outer = tuple(idxs[j] for j in rest)
        for k, coef in inner.terms.items():
            word, wsign = insert_sign(k, outer, ghosts)
            if wsign:
                terms.setdefault(word, []).append((coef, w if wsign > 0 else neg_w))
    return sum_pairs(terms)


def coderivation_square(S: SLInfStructure, n_max: int) -> Report:
    """Check that the bar coderivation squares to zero on words up to n_max.

    The coderivation is evaluated once per canonical word within one call;
    the words it returns are canonical, so each coefficient of D(D(w)) is
    one HPoly.dot over the words of D(w).
    """
    rep = Report()
    dim = len(S.basis)
    memo = {}

    def delta(word):
        hit = memo.get(word)
        if hit is None:
            hit = memo[word] = _delta_on_word(S, word)
        return hit

    for n in range(1, n_max + 1):
        for idxs in tuples_with_repetition(dim, n):
            if _repeats_odd(S.ghosts, idxs):
                continue
            rep.checks += 1
            terms = {}  # w2 -> [(D(w)[w1], D(w1)[w2])]
            for word, coef in delta(idxs).items():
                for w2, c2 in delta(word).items():
                    terms.setdefault(w2, []).append((coef, c2))
            total = sum_pairs(terms)
            if total:
                rep.add(n, idxs, total)
    rep.violations.sort(key=lambda v: (v.arity, v.where))
    return rep


# -- the graded exponential formula -------------


_ONE = HPoly.neg_h(0)


def _close(pairs, zero):
    """Sum (value, weight) pairs of HPoly or PolyElement values, the type of
    `zero`, in one pass: one HPoly.dot, or one sum_pairs over monomial keys."""
    if isinstance(zero, HPoly):
        return HPoly.dot(pairs)
    terms = {}
    for v, w in pairs:
        v.collect(terms, w)
    return PolyElement._of(zero.n_vars, sum_pairs(terms))


def _exponential_sum(key, degrees, phi, rest, zero, top, sign=1):
    """A partition sum over the letters of `key`, split at its first letter.

    The sum over set partitions p of eps(p) (-h)^(n-|p|) prod_B phi(key_B)
    is the sum over the subsets I of positions that hold position 0 of
    eps(I|I^c) (-h)^(|I|-1) phi(key_I) * rest(key_(I^c)), with rest the
    same sum on the sub-word (the graded exponential formula, Stanley EC2
    5.1; signs as in Lada-Stasheff 1993), provided each value has the
    parity of its letters.  This sums the proper I, weighted by `sign`,
    together with `top`, a (value, weight) pair that holds the I = all
    term; `degrees[j]` is the ghost number of key[j].  The sum closes once
    per coefficient (`_close`), so it does not depend on the order of its
    terms.
    """
    n = len(key)
    pairs = [top]
    for I, R, eps in subsets(n, degrees, range(1, n)):
        if I[0] == 0:
            pairs.append((phi(tuple(key[j] for j in I)) * rest(tuple(key[j] for j in R)),
                          HPoly.neg_h(len(I) - 1, sign * eps)))
    return _close(pairs, zero)


# -- morphisms -------------


class EvalMorphism:
    """sL-infinity morphism given by evaluation procedures with memoization.

    `components[n]` maps a tuple of source elements to a target element;
    when only component 1 is given, higher components are produced by a
    descendant recursion (see `descendant_morphism`).
    """

    def __init__(self, components):
        self.components = components

    def ev(self, args) -> object:
        n = len(args)
        comp = self.components.get(n)
        if comp is None:
            return None
        return comp(tuple(args))


class DescendantResult:
    __slots__ = ("ok", "morphism", "failure_arity", "residue")

    def __init__(self, ok: bool, morphism=None, failure_arity=None, residue=None):
        self.ok, self.morphism = ok, morphism
        self.failure_arity, self.residue = failure_arity, residue


class DescendantDivisibilityError(NotDivisibleError):
    """The descendant recursion produced a residue not divisible by h.

    The map is a pointed cochain map but not a morphism of the quantum
    algebras; `residue` holds the undivided combination at `arity`.
    """

    def __init__(self, arity: int, residue, cause: NotDivisibleError):
        self.arity = arity
        self.residue = residue
        super().__init__(
            cause.offending_exponent,
            f"descendant recursion not h-divisible at arity {arity}",
        )


class TargetAlgebra:
    """The unit and zero of the target of a pointed cochain map: an HPoly
    or PolyElement algebra, multiplied by `*`."""

    def __init__(self, unit, zero):
        self.unit = unit
        self.zero = zero


def scalar_target() -> TargetAlgebra:
    return TargetAlgebra(unit=HPoly.const(1), zero=HPoly.zero())


def descendant_morphism(
    F,
    pot,
    target: TargetAlgebra,
    n_max: int,
    precheck_span=None,
    target_K=None,
) -> DescendantResult:
    """Quantum descendant of a pointed cochain map out of the BV algebra.

    F maps PolyElement to the target; it must satisfy F(1) = 1' and
    intertwine the differentials (checked on `precheck_span` if given).
    Returns the family psi or the first arity where h-divisibility fails.

    On homogeneous x_1 .. x_n, F(x_1 ... x_n) is the partition sum of psi,
    so psi_n = (F(x_1 ... x_n) - the proper anchored split) / (-h)^(n-1)
    by `_exponential_sum`, with F of each product on the rest.  One
    evaluation fills psi and F on every subset of the argument positions by
    increasing size, so a failure names its smallest arity; an
    inhomogeneous argument is split into its ghost parts by multilinearity.
    """
    from .polyalg import quantum_K

    one = PolyElement.one(pot.n_vars)
    if F(one) != target.unit:
        raise ValueError("not pointed: F(1) != 1'")
    if precheck_span is not None:
        for m in precheck_span:
            lhs = F(quantum_K(pot, m))
            rhs = target_K(F(m)) if target_K is not None else target.zero
            if lhs != rhs:
                raise ValueError("not a cochain map: F Khat != Khat' F")

    def psi_homogeneous(degs, elems):
        prods, Fs, psis = {}, {}, {}  # position subset -> value
        for I, _, _ in subsets(len(elems), degs, range(1, len(elems) + 1)):
            prods[I] = elems[I[0]] if len(I) == 1 else prods[I[:-1]] * elems[I[-1]]
            Fs[I] = F(prods[I])
            if len(I) == 1:
                psis[I] = Fs[I]
                continue
            acc = _exponential_sum(
                I, [degs[i] for i in I], psis.__getitem__, Fs.__getitem__,
                target.zero, (Fs[I], _ONE), sign=-1,
            )
            try:
                psis[I] = acc.neg_h_divide(len(I) - 1)
            except NotDivisibleError as e:
                raise DescendantDivisibilityError(len(I), acc, e) from e
        return psis[tuple(range(len(elems)))]

    def psi(args):
        parts = product(*(a.ghost_parts().items() for a in args))
        return _close([(psi_homogeneous(*zip(*combo)), _ONE) for combo in parts],
                      target.zero)

    # divisibility failures surface lazily at evaluation time; callers probe
    # arities through the returned morphism (see `probe_descendant`)
    return DescendantResult(
        ok=True, morphism=EvalMorphism({n: psi for n in range(1, n_max + 1)})
    )


def probe_descendant(result: DescendantResult, probes) -> DescendantResult:
    """Evaluate a descendant morphism on probe tuples, catching h-failures.

    probes: iterable of tuples of PolyElements, in increasing arity; the first failing arity (the arity of the inner recursion step
    that broke, which probing in increasing arity makes deterministic) is
    reported together with the undivided residue.
    """
    if not result.ok:
        return result
    for args in probes:
        try:
            result.morphism.ev(args)
        except DescendantDivisibilityError as e:
            return DescendantResult(
                ok=False, failure_arity=e.arity, residue=e.residue
            )
        except NotDivisibleError as e:
            return DescendantResult(
                ok=False, failure_arity=len(args), residue=e
            )
    return result


def _scale_target(v, coef: HPoly):
    if isinstance(v, HPoly):
        return v * coef
    return v.scale(coef)


def compose_morphisms(outer, inner, ghosts_of_source):
    """Partition-sum composition (outer after inner) of sL-infinity morphisms.

    Both morphisms are evaluation-based; the composite evaluates on tuples
    of the inner morphism's source elements.
    """

    def comp(n):
        def ev_n(args):
            degs = [_ghost_of(a, ghosts_of_source) for a in args]
            acc = None
            for p, eps in signed_partitions(n, degs):
                vals = [inner.ev(tuple(args[j - 1] for j in b)) for b in p]
                v = outer.ev(tuple(vals))
                if v is None:
                    continue
                v = _scale_target(v, HPoly.const(eps))
                acc = v if acc is None else acc + v
            return acc

        return ev_n

    return EvalMorphism({n: comp(n) for n in range(1, ARITY_CAP + 1)})


def _ghost_of(a, ghosts_of_source):
    if ghosts_of_source is not None:
        return ghosts_of_source(a)
    if isinstance(a, PolyElement):
        return a.ghost()
    return 0


class CorrelatorClosureError(RuntimeError):
    """A correlator value is not annihilated by the differential."""


def correlators(phi_ev, ghosts, n_max: int, n_vars: int, K_check=None):
    """Quantum correlators of a family phi into the BV algebra.

    phi_ev(idxs) returns the PolyElement value on a basis tuple.  Returns
    {n: SymMap of PolyElement} with
    Pi_n = sum over partitions of (-h)^(n-|p|) eps(p) prod phi(blocks),
    summed as (-h)^(n-1) phi(key) plus the anchored split of
    `_exponential_sum`, with Pi on the rest read from the lower arities.
    When K_check is given, every value is checked to be K_check-closed;
    a failure means phi is not a morphism.
    """
    zero = PolyElement.zero(n_vars)
    out = {}
    dim = len(ghosts)
    for n in range(1, n_max + 1):
        table = SymMap(n, ghosts, zero)
        for key in tuples_with_repetition(dim, n):
            acc = _exponential_sum(
                key, [ghosts[i] for i in key], phi_ev, lambda k: out[len(k)].get(k),
                zero, (phi_ev(key), HPoly.neg_h(n - 1)),
            )
            if K_check is not None and not K_check(acc).is_zero():
                raise CorrelatorClosureError(
                    f"correlator at arity {n}, {key} is not closed"
                )
            table.set(key, acc)
        out[n] = table
    return out


def moment_cumulant_report(expect, chi_on_H, ghosts, correlator_tables, n_max: int) -> Report:
    """Verify the partition identity between quantum moments and cumulants.

    expect(c) is the expectation on C; chi_on_H(idxs) the cumulant value on
    basis tuples (an HPoly); correlator_tables as from `correlators`.  The
    moments of chi come from the recursion of `correlators`, one table
    entry per canonical key.
    """
    rep = Report()
    moments = {}
    dim = len(ghosts)
    for n in range(1, n_max + 1):
        for key in tuples_with_repetition(dim, n):
            rep.checks += 1
            mu = expect(correlator_tables[n].get(key))
            acc = moments[key] = _exponential_sum(
                key, [ghosts[i] for i in key], chi_on_H, moments.__getitem__,
                HPoly.zero(), (chi_on_H(key), HPoly.neg_h(n - 1)),
            )
            if mu != acc:
                rep.add(n, key, mu - acc)
    return rep


class Expectation:
    """A quantum expectation built canonically as iota . hhat.

    iota_coeffs lists one exact coefficient per H-basis element with
    iota(1_H) = 1; the rule sends c to iota(hhat(c)).  Pointedness and the
    cochain property are verified on a spanning monomial set at build time.
    Whether the rule is additionally a morphism of the full quantum algebras
    (a "strong" expectation) is not assumed; probe its descendant instead.
    """

    def __init__(self, q, iota_coeffs, span=None):
        self.q = q
        self.iota = [HPoly.promote(c) for c in iota_coeffs]
        if len(self.iota) != q.dim:
            raise ValueError("iota must list one value per basis element")
        if self.iota[0] != HPoly.const(1):
            raise ValueError("iota(1_H) must be 1")
        if span is not None:
            one = PolyElement.one(q.n_vars)
            if self(one) != HPoly.const(1):
                raise ValueError("expectation not pointed")
            for m in span:
                if not self(q.Khat(m)).is_zero():
                    raise ValueError("expectation does not annihilate Khat")

    def apply_iota(self, v: HVector) -> HPoly:
        return v.pair(self.iota)

    def __call__(self, c: PolyElement) -> HPoly:
        return self.apply_iota(self.q.hhat(c))
