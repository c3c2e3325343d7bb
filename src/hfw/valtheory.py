"""Valuations on hyperfields, valuation hyperrings, the equivalence between
the two presentations, and residue hyperfields.

Value groups come in two kinds: lexicographic integer powers for the symbolic
structures, and raw coset presentations extracted from a valuation hyperring.
The value of zero is infinity, represented as None throughout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .constructions import (
    QSubgroup,
    enumerate_hyperideals,
    is_hyperideal,
    padic_valuation,
    q_factor_class,
    quotient_hyperring,
)
from .hypercore import (
    DomainError,
    FiniteHyperstructure,
    InternalCheckError,
    ViolationReport,
    check_hyperfield,
    induced_subhyperring,
)
from .sgntrop import (
    ALL,
    STElem,
    SignedValueHyperfield,
    SymValuation,
    canonical_valuation,
    q_punits_hyperfield,
    st_mul,
    trivial_valuation,
)


@dataclass(frozen=True)
class LexGroup:
    """Z^k under lexicographic comparison; elements are int tuples."""

    k: int

    kind = "lex"

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.k

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def le(self, a, b) -> bool:
        # tuple comparison is lexicographic
        return a <= b

    def label(self, g) -> str:
        if self.k == 0:
            return "0"
        return "(" + ",".join(str(c) for c in g) + ")"

    def describe(self) -> str:
        return "Z^%d lex" % self.k


@dataclass(frozen=True)
class QuotientGroup:
    """Cosets of the units inside the nonzero part, with coset products as
    the sum and divisibility as the order: a <= b iff b/a lies in the ring."""

    source: str
    labels: tuple[str, ...]
    sum_table: tuple[tuple[int, ...], ...]
    neg_table: tuple[int, ...]
    le_table: tuple[tuple[bool, ...], ...]
    zero_elem: int

    kind = "quotient"

    def zero(self) -> int:
        return self.zero_elem

    def add(self, a: int, b: int) -> int:
        return self.sum_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def le(self, a: int, b: int) -> bool:
        return self.le_table[a][b]

    def label(self, g: int) -> str:
        return self.labels[g]

    def describe(self) -> str:
        return "units quotient of %s (%d classes)" % (self.source, len(self.labels))


@dataclass(frozen=True)
class Valuation:
    """A total value map on the nonzero carrier; zero carries None."""

    structure: str
    group: LexGroup | QuotientGroup
    values: tuple

    def value(self, x: int):
        return self.values[x]


def _vmin(G, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if G.le(a, b) else b


def trivial_valuation_on(F: FiniteHyperstructure) -> Valuation:
    """Every nonzero element maps to the zero of the trivial group."""
    if F.one is None:
        raise DomainError("valuations need a unity")
    vals = tuple(None if x == F.zero else () for x in F.elements())
    return Valuation(F.name, LexGroup(0), vals)


def is_valuation(F: FiniteHyperstructure, v: Valuation, max_witnesses: int = 10) -> ViolationReport:
    """Infinity exactly at zero, additivity on products, and the ultrametric
    bound on hypersums.  Also checks the derived facts: values of 1, -1 and
    negatives, value of the inverse, and the sharp bound when the two values
    differ (every sum member then sits exactly at the minimum)."""
    if F.one is None:
        raise DomainError("valuations need a unity")
    if len(v.values) != F.size:
        raise DomainError("value table length disagrees with carrier")
    rep = ViolationReport("%s valuation on %s" % (v.group.describe(), F.name), max_per_axiom=max_witnesses)
    G = v.group
    if v.values[F.zero] is not None:
        rep.record("V1", (F.zero,), "zero must carry the infinite value")
    for x in F.nonzero():
        if v.values[x] is None:
            rep.record("V1", (x,), lambda: "%s carries no value" % F.label(x))
    if not rep.ok:
        return rep
    for a in F.nonzero():
        for b in F.nonzero():
            ab = F.mul(a, b)
            if ab == F.zero:
                rep.record("V2", (a, b), "product of nonzero elements vanished")
            elif v.values[ab] != G.add(v.values[a], v.values[b]):
                rep.record(
                    "V2", (a, b),
                    lambda: "v(%s*%s) differs from v(%s)+v(%s)" % (F.label(a), F.label(b), F.label(a), F.label(b)),
                )
    for a in F.elements():
        for b in F.elements():
            va, vb = v.values[a], v.values[b]
            lo = _vmin(G, va, vb)
            if lo is None:
                continue
            cell = F.add(a, b)
            for c in cell:
                vc = v.values[c]
                if vc is not None and not G.le(lo, vc):
                    rep.record(
                        "V3", (a, b, c),
                        lambda: "v(%s) below min(v(%s), v(%s))" % (F.label(c), F.label(a), F.label(b)),
                    )
            if va is not None and vb is not None and va != vb:
                for c in cell:
                    if v.values[c] != lo:
                        rep.record(
                            "V3-sharp", (a, b, c),
                            lambda: "distinct values but a member of %s+%s strays from the min" % (F.label(a), F.label(b)),
                        )
    if v.values[F.one] != G.zero():
        rep.record("V-one", (F.one,), "v(1) is not zero")
    if v.values[F.neg(F.one)] != G.zero():
        rep.record("V-one", (F.neg(F.one),), "v(-1) is not zero")
    for a in F.nonzero():
        if v.values[F.neg(a)] != v.values[a]:
            rep.record("V-neg", (a,), lambda: "value of %s changed by negation" % F.label(a))
        ia = F.inv(a)
        if ia is None:
            rep.record("V-inv", (a,), lambda: "%s has no inverse" % F.label(a))
        elif v.values[ia] != G.neg(v.values[a]):
            rep.record("V-inv", (a,), lambda: "value of 1/%s is not -v(%s)" % (F.label(a), F.label(a)))
    return rep


@dataclass(frozen=True, eq=False)
class ResidueField:
    """One valuation hyperring O of a finite structure, checked once: its
    units, its maximal ideal, the residue hyperfield O/M with the projection
    from the parent carrier, and the coset-projection valuation, which is
    built when first asked for."""

    parent: FiniteHyperstructure
    ring: frozenset[int]
    units: frozenset[int]
    ideal: frozenset[int]
    structure: FiniteHyperstructure  # the residue
    parent_class: tuple  # parent index -> residue index, None off the ring

    def class_of(self, x: int) -> int:
        if not 0 <= x < len(self.parent_class):
            raise DomainError("index %d outside the parent carrier" % x)
        c = self.parent_class[x]
        if c is None:
            raise DomainError("element outside the valuation hyperring")
        return c

    @cached_property
    def valuation(self) -> Valuation:
        """The projection onto unit cosets, ordered by divisibility.

        The coset order is verified to be total, antisymmetric, transitive
        and translation invariant on all pairs, the comparison is verified to
        be independent of representatives, and the resulting map must pass
        is_valuation and reproduce O.
        """
        F, O = self.parent, self.ring
        nz = sorted(F.nonzero())
        coset_of: dict[int, int] = {}
        cosets: list[frozenset[int]] = []
        for x in nz:
            if x in coset_of:
                continue
            cs = frozenset(F.mul(x, u) for u in self.units)
            cid = len(cosets)
            cosets.append(cs)
            for y in cs:
                coset_of[y] = cid
        m = len(cosets)
        reps = [min(cs) for cs in cosets]
        inv = {x: F.inv(x) for x in nz}
        le_rows = []
        for a in range(m):
            row = []
            for b in range(m):
                expected = F.mul(reps[b], inv[reps[a]]) in O
                for x in cosets[a]:
                    for y in cosets[b]:
                        if (F.mul(y, inv[x]) in O) != expected:
                            raise InternalCheckError("coset comparison depends on representatives")
                row.append(expected)
            le_rows.append(tuple(row))
        le = tuple(le_rows)
        for a in range(m):
            for b in range(m):
                if not le[a][b] and not le[b][a]:
                    raise InternalCheckError("coset order is not total")
                if le[a][b] and le[b][a] and a != b:
                    raise InternalCheckError("coset order is not antisymmetric")
                for c in range(m):
                    if le[a][b] and le[b][c] and not le[a][c]:
                        raise InternalCheckError("coset order is not transitive")
        sum_table = tuple(
            tuple(coset_of[F.mul(reps[a], reps[b])] for b in range(m)) for a in range(m)
        )
        for a in range(m):
            for b in range(m):
                if not le[a][b]:
                    continue
                for c in range(m):
                    if not le[sum_table[a][c]][sum_table[b][c]]:
                        raise InternalCheckError("coset order is not translation invariant")
        G = QuotientGroup(
            source=F.name,
            labels=tuple(F.label_set(cs) for cs in cosets),
            sum_table=sum_table,
            neg_table=tuple(coset_of[inv[reps[a]]] for a in range(m)),
            le_table=le,
            zero_elem=coset_of[F.one],
        )
        vals = tuple(None if x == F.zero else coset_of[x] for x in F.elements())
        v = Valuation(F.name, G, vals)
        vrep = is_valuation(F, v)
        if not vrep.ok:
            raise InternalCheckError("coset projection fails the valuation axioms: %s" % vrep.summary())
        back = frozenset({F.zero} | {x for x in F.nonzero() if G.le(G.zero(), vals[x])})
        if back != O:
            raise InternalCheckError("ring of the coset projection differs from the input ring")
        return v


def _checked_subring(F: FiniteHyperstructure, O, max_witnesses: int = 10):
    """The defining conditions of a valuation hyperring O: x or 1/x belongs
    for every nonzero x, and O induces a subhyperring.  Returns the report
    and, when nothing fails, the induced subhyperring.

    Strictness (full differences of members stay inside) is a theorem for
    valuation hyperrings, so it is asserted once the defining conditions
    hold rather than reported as an ordinary violation.
    """
    O = frozenset(O)
    for x in O:
        F._check_index(x)
    if F.zero not in O:
        raise DomainError("a valuation hyperring must contain zero")
    if F.one is None:
        raise DomainError("valuation hyperrings need a unity")
    rep = ViolationReport("%s ring %s" % (F.name, F.label_set(O)), max_per_axiom=max_witnesses)
    for x in F.nonzero():
        ix = F.inv(x)
        if ix is None:
            rep.record("VR-field", (x,), lambda: "%s has no inverse" % F.label(x))
        elif x not in O and ix not in O:
            rep.record("VR-inverse", (x,), lambda: "neither %s nor its inverse belongs" % F.label(x))
    sub = induced_subhyperring(F, O)
    if sub is None:
        rep.record("VR-subring", (), "subset does not induce a subhyperring")
    if not rep.ok:
        return rep, None
    if not sub.strict:
        raise InternalCheckError("valuation hyperring %s is not strict in %s" % (F.label_set(O), F.name))
    return rep, sub


def _ring_pass(F: FiniteHyperstructure, O) -> tuple[ViolationReport, ResidueField | None]:
    """One pass over a candidate valuation hyperring O of F: its report and,
    when O is valid, its record with the units, the maximal ideal and the
    residue.

    The complement of the units is checked to be the unique maximal
    hyperideal.  The subring's hyperideals are enumerated once, for both the
    direct maximality check and the uniqueness check; the quotient is built
    once, for both the quotient route of maximality and the residue.
    """
    O = frozenset(O)
    rep, sub = _checked_subring(F, O)
    if sub is None:
        return rep, None
    units = frozenset(x for x in O if x != F.zero and F.inv(x) in O)
    M = O - units
    S = sub.structure
    msub = frozenset(sub.sub_of(x) for x in M)
    if not is_hyperideal(S, msub):
        raise InternalCheckError("complement of the units is not a hyperideal in %s" % S.name)
    carrier = frozenset(S.elements())
    ideals = enumerate_hyperideals(S)
    q = quotient_hyperring(S, msub)
    direct = not any(msub < J < carrier for J in ideals)
    via_quotient = q.structure.size > 1 and check_hyperfield(q.structure).ok
    if direct != via_quotient:
        raise InternalCheckError("maximal ideal verdicts disagree in %s: direct=%s quotient=%s"
                                 % (S.name, direct, via_quotient))
    if not direct:
        raise InternalCheckError("complement of the units is not maximal in %s" % S.name)
    for J in ideals:
        if J != carrier and not J <= msub:
            raise InternalCheckError("a proper hyperideal of %s escapes the maximal one" % S.name)
    parent_class: list = [None] * F.size
    for i, x in enumerate(sub.parent_indices):
        parent_class[x] = q.class_of[i]
    renamed = dataclasses.replace(q.structure, name="res(%s)" % F.name)
    return rep, ResidueField(F, O, units, M, renamed, tuple(parent_class))


def is_valuation_hyperring(F: FiniteHyperstructure, O, max_witnesses: int = 10) -> ViolationReport:
    """Subhyperring holding x or 1/x for every nonzero x."""
    return _checked_subring(F, O, max_witnesses)[0]


def residue_hyperfield(F: FiniteHyperstructure, O) -> ResidueField:
    """The record of a valuation hyperring O: quotient the ring by its
    maximal ideal; the result must be a hyperfield since the ideal is
    maximal."""
    rep, res = _ring_pass(F, O)
    if res is None:
        raise DomainError("invalid valuation hyperring: %s" % rep.summary())
    return res


def carrier_record(F: FiniteHyperstructure) -> ResidueField:
    """The record of the carrier of F as a valuation hyperring.  The carrier
    of a hyperfield always is one, so when its ring pass fails F is refused
    (DomainError "F is not a hyperfield: ...")."""
    try:
        return residue_hyperfield(F, frozenset(F.elements()))
    except DomainError as exc:
        raise DomainError("%s is not a hyperfield: %s" % (F.name, exc)) from None


def valuation_ring_records(F: FiniteHyperstructure) -> list[ResidueField]:
    """The record of every valuation hyperring of a hyperfield F.  The
    carrier's record comes first, so any other F is refused before the
    enumeration, and it is reused for the carrier."""
    carrier = carrier_record(F)
    return [carrier if O == carrier.ring else residue_hyperfield(F, O) for O in enumerate_valuation_hyperrings(F)]


def valuation_from_hyperring(F: FiniteHyperstructure, O) -> Valuation:
    """The projection onto unit cosets, ordered by divisibility; see
    ResidueField.valuation for its checks."""
    return residue_hyperfield(F, O).valuation


def residue_of_valuation(F: FiniteHyperstructure, v: Valuation) -> ResidueField:
    """The record of the ring of a valuation that passed is_valuation: O is
    the nonnegative part (plus zero), and its positive part must be the
    maximal ideal."""
    G = v.group
    z = G.zero()
    O = frozenset({F.zero} | {x for x in F.nonzero() if G.le(z, v.values[x])})
    M = frozenset({F.zero} | {x for x in F.nonzero() if G.le(z, v.values[x]) and v.values[x] != z})
    orep, res = _ring_pass(F, O)
    if res is None:
        raise InternalCheckError("ring of a valuation fails the ring axioms: %s" % orep.summary())
    if M != res.ideal:
        raise InternalCheckError("positive part differs from the maximal ideal")
    return res


def ring_from_valuation(F: FiniteHyperstructure, v: Valuation) -> tuple[frozenset[int], frozenset[int]]:
    """The nonnegative part (plus zero) and its positive-part ideal."""
    rep = is_valuation(F, v)
    if not rep.ok:
        raise DomainError("invalid valuation: %s" % rep.summary())
    res = residue_of_valuation(F, v)
    return res.ring, res.ideal


def enumerate_valuation_hyperrings(F: FiniteHyperstructure) -> list[frozenset[int]]:
    """All valuation hyperrings of a finite hyperfield.

    A finite hyperfield admits only the whole carrier: the value group of a
    proper one would be a nontrivial finite totally ordered group, and no
    such group exists.  Above 8 elements that answer is returned once the
    whole carrier passes is_valuation_hyperring; up to 8 a raw powerset sweep
    answers and must agree with it.  A structure that is not a hyperfield
    gets the sweep alone, up to 8 elements.
    """
    if F.one is None:
        raise DomainError("valuation hyperrings need a unity")
    whole = frozenset(F.elements())
    hyperfield = check_hyperfield(F).ok
    if F.size > 8:
        if not hyperfield:
            raise DomainError("ring enumeration of a structure that is not a hyperfield stops at 8 elements")
        if not is_valuation_hyperring(F, whole).ok:
            raise InternalCheckError("the carrier of %s fails as a valuation hyperring" % F.name)
        return [whole]
    nz = F.nonzero()
    found = []
    for bits in range(1 << len(nz)):
        O = frozenset(nz[i] for i in range(len(nz)) if bits >> i & 1) | {F.zero}
        if is_valuation_hyperring(F, O).ok:
            found.append(O)
    found.sort(key=lambda s: (len(s), sorted(s)))
    if hyperfield and found != [whole]:
        raise InternalCheckError("finite hyperfield %s admits a proper valuation hyperring" % F.name)
    return found


def inclusion_reversal_check(records) -> bool:
    """O1 inside O2 exactly when M2 inside M1, across all pairs of the
    given ring records."""
    return all((r1.ring <= r2.ring) == (r2.ideal <= r1.ideal) for r1 in records for r2 in records)


def valuations_equivalent(F: FiniteHyperstructure, v1: Valuation, v2: Valuation) -> bool:
    """Equality up to an order isomorphism of the value images: the two
    comparisons agree on every pair of nonzero elements."""
    for v in (v1, v2):
        rep = is_valuation(F, v)
        if not rep.ok:
            raise DomainError("equivalence needs valid valuations: %s" % rep.summary())
    nz = F.nonzero()
    for a in nz:
        for b in nz:
            if v1.group.le(v1.values[a], v1.values[b]) != v2.group.le(v2.values[a], v2.values[b]):
                return False
    return True


def valuation_report(F: FiniteHyperstructure, v: Valuation) -> dict:
    """JSON-ready summary of a valuation table."""
    G = v.group
    if G.kind == "lex":
        generators = ["e%d" % i for i in range(1, G.k + 1)]
    else:
        generators = list(G.labels)
    return {
        "group_kind": G.kind,
        "generators": generators,
        "table": [
            {"element": F.label(x), "value": "inf" if v.values[x] is None else G.label(v.values[x])}
            for x in F.elements()
        ],
    }


# ---------------------------------------------------------------------------
# the symbolic side: rings of the signed-value structures


def sym_valuation_from_ring(H: SignedValueHyperfield, O, B: int = 4) -> SymValuation:
    """Rebuild the valuation of a lazily represented ring from divisibility.

    Only the two materialised shapes occur: the whole structure (trivial
    valuation) and the nonnegative-value ball ring (full-rank projection).
    The coset comparison b/a-in-O is checked against the lex order of values
    over a window before the projection is returned.
    """
    if O is ALL:
        return trivial_valuation()
    if O == H.valuation_ring():
        v = canonical_valuation(H)
    else:
        raise DomainError("ring shape does not match a materialised valuation")
    window = H.window_elements(B)
    for a in window:
        for b in window:
            ratio_in = O.contains(st_mul(b, a.inv()))
            if ratio_in != (v.value(a) <= v.value(b)):
                raise InternalCheckError("coset order disagrees with the lex value order")
    return v


def induced_valuation_on_factor(p: int, T: QSubgroup, height_bound: int = 40):
    """Push the p-adic valuation down to the factor of the rationals by a
    group of positive p-units: the class of a maps to v_p(a).

    Well-definedness is sampled at bounded height (members of T must all
    have value zero, so the value is constant on classes); the result is the
    canonical rank-one valuation on the symbolic signed-value presentation.
    """
    if T.kind != "punits":
        raise DomainError("factor valuations are supported for p-unit subgroups only")
    if T.p != p:
        raise DomainError("subgroup lives at a different prime")
    for n in range(1, height_bound + 1):
        for d in range(1, height_bound + 1):
            t = Fraction(n, d)
            if T.contains(t) and padic_valuation(t, p) != 0:
                raise InternalCheckError("subgroup member %s has nonzero value" % t)
    H = q_punits_hyperfield(p)
    v = canonical_valuation(H)
    for n in range(1, height_bound + 1):
        for s in (n, -n):
            c = q_factor_class(Fraction(s), T)
            sign, val = c.rep
            if v.value(STElem(sign, (val,))) != (val,):
                raise InternalCheckError("factor class of %d carries the wrong value" % s)
    return H, v
