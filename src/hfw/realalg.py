"""Orderings, preorderings, realness, iterated unit sums, and the convexity
hull of an ordering together with its ideal.

A positive cone is a plain frozenset of nonzero carrier indices.  Every
operation loops exhaustively over the finite carrier, so each one doubles as
an exact oracle at desk scale.  The symbolic signed-value structures own
their ordering machinery in sgntrop and meet this module only in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .constructions import (
    QSubgroup,
    factor_hyperfield,
    four_squares_decomp,
    prime_field_hyperfield,
    q_factor_class,
    sign_hyperfield,
    squarefree_part,
    squares_sum_kind,
    subgroup_closure,
)
from .hypercore import (
    DomainError,
    FiniteHyperstructure,
    HomomorphismSpec,
    InternalCheckError,
    ViolationReport,
    check_homomorphism,
    hset,
)


def is_ordering(F: FiniteHyperstructure, P, max_witnesses: int = 10) -> ViolationReport:
    """Positive cone axioms: P absorbs hypersums and products of its members,
    meets its own negative nowhere, and covers the nonzero carrier with it."""
    P = frozenset(P)
    for a in P:
        F._check_index(a)
    rep = ViolationReport("%s cone %s" % (F.name, F.label_set(P)), max_per_axiom=max_witnesses)
    if F.zero in P:
        rep.record("O-zero", (F.zero,), "0 lies in the candidate cone")
        return rep
    for a in P:
        for b in P:
            cell = F.add(a, b)
            if not cell <= P:
                rep.record(
                    "O-add", (a, b),
                    lambda: "%s+%s = %s leaves the cone" % (F.label(a), F.label(b), F.label_set(cell)),
                )
            m = F.mul(a, b)
            if m not in P:
                rep.record("O-mul", (a, b), lambda: "%s*%s = %s outside the cone" % (F.label(a), F.label(b), F.label(m)))
    for a in sorted(P & F.set_neg(P)):
        rep.record("O-disjoint", (a,), lambda: "%s lies in both the cone and its negative" % F.label(a))
    for a in sorted(frozenset(F.nonzero()) - (P | F.set_neg(P))):
        rep.record("O-cover", (a,), lambda: "%s lies in neither the cone nor its negative" % F.label(a))
    return rep


def _half_index_subgroups(F: FiniteHyperstructure) -> list[frozenset[int]]:
    """Multiplicatively closed subsets of exactly half the nonzero carrier
    that contain the unity.  Any cone must be one of these, which is what
    makes the pruned search below sound; the powerset sweep re-verifies it."""
    if F.one is None:
        return []
    nz = F.nonzero()
    m = len(nz)
    if m % 2:
        return []
    rest = [x for x in nz if x != F.one]
    out = []
    for comb in combinations(rest, m // 2 - 1):
        S = frozenset(comb) | {F.one}
        if all(F.mul(a, b) in S for a in S for b in S):
            out.append(S)
    return out


def enumerate_orderings(F: FiniteHyperstructure) -> list[frozenset[int]]:
    """All positive cones of F, deterministically ordered.

    The search runs over half-size multiplicative subgroup candidates that
    avoid -1 and filters by the remaining axioms.  On carriers up to 8 a raw
    powerset sweep runs as well; any disagreement is a build-breaking bug.
    """
    if F.one is None:
        raise DomainError("orderings need a unity")
    minus_one = F.neg(F.one)
    found = [
        S for S in _half_index_subgroups(F)
        if minus_one not in S and is_ordering(F, S).ok
    ]
    found.sort(key=sorted)
    if F.size <= 8:
        nz = F.nonzero()
        brute = []
        for bits in range(1, 1 << len(nz)):
            P = frozenset(nz[i] for i in range(len(nz)) if bits >> i & 1)
            if is_ordering(F, P).ok:
                brute.append(P)
        brute.sort(key=sorted)
        if brute != found:
            raise InternalCheckError("subgroup pruning missed a cone on %s" % F.name)
    return found


@dataclass(frozen=True)
class RealnessReport:
    structure: str
    real: bool
    square_sum_closure: frozenset[int]
    rounds: int
    witness: str
    orderings: tuple[frozenset[int], ...]  # the cones of the cross-check, in enumeration order


def is_real(F: FiniteHyperstructure) -> RealnessReport:
    """Realness via sums of nonzero squares.

    Closes the set of nonzero squares under hyperaddition to a fixpoint; F is
    real iff -1 never shows up.  The verdict is cross-checked against cone
    enumeration in both directions.
    """
    if F.one is None:
        raise DomainError("realness needs a unity")
    minus_one = F.neg(F.one)
    squares = frozenset(F.mul(x, x) for x in F.nonzero())
    closure = squares
    rounds = 0
    while minus_one not in closure:
        grown = closure | F.set_add(closure, squares)
        if grown == closure:
            break
        closure = grown
        rounds += 1
    real = minus_one not in closure
    if real:
        witness = "square sums stabilize at %s without -1" % F.label_set(closure)
    elif rounds == 0:
        witness = "-1 is itself a nonzero square"
    else:
        witness = "-1 appears among sums of %d nonzero squares" % (rounds + 1)
    orderings = tuple(enumerate_orderings(F))
    if real != bool(orderings):
        raise InternalCheckError("realness and cone enumeration disagree on %s" % F.name)
    return RealnessReport(F.name, real, closure, rounds, witness, orderings)


def sign_hom(F: FiniteHyperstructure, P) -> HomomorphismSpec:
    """The sign map determined by a cone: zero to zero, the cone to 1, its
    negative to -1.  Lands in the three-element sign hyperfield."""
    P = frozenset(P)
    rep = is_ordering(F, P)
    if not rep.ok:
        raise DomainError("not an ordering: %s" % rep.summary())
    sgn = sign_hyperfield()
    plus, minus = sgn.one, sgn.neg(sgn.one)
    mapping = tuple(
        sgn.zero if x == F.zero else (plus if x in P else minus)
        for x in F.elements()
    )
    phi = HomomorphismSpec(F, sgn, mapping)
    hom = check_homomorphism(phi)
    if not hom.ok:
        raise InternalCheckError("sign map is not a homomorphism: %s" % hom.summary())
    return phi


def is_preordering(F: FiniteHyperstructure, T, max_witnesses: int = 10) -> ViolationReport:
    """Preordering axioms: closed under hypersums and products, contains every
    nonzero square, omits -1 (and hence 0)."""
    T = frozenset(T)
    for a in T:
        F._check_index(a)
    if F.one is None:
        raise DomainError("preorderings need a unity")
    rep = ViolationReport("%s preordering %s" % (F.name, F.label_set(T)), max_per_axiom=max_witnesses)
    if F.zero in T:
        rep.record("T-zero", (F.zero,), "0 lies in the candidate preordering")
        return rep
    for a in T:
        for b in T:
            cell = F.add(a, b)
            if not cell <= T:
                rep.record(
                    "T-add", (a, b),
                    lambda: "%s+%s = %s leaves the set" % (F.label(a), F.label(b), F.label_set(cell)),
                )
            if F.mul(a, b) not in T:
                rep.record("T-mul", (a, b), lambda: "%s*%s escapes" % (F.label(a), F.label(b)))
    for x in F.nonzero():
        if F.mul(x, x) not in T:
            rep.record("T-squares", (x,), lambda: "square of %s missing" % F.label(x))
    if F.neg(F.one) in T:
        rep.record("T-minus-one", (F.neg(F.one),), "-1 present")
    return rep


def _saturate(F: FiniteHyperstructure, seed) -> frozenset[int] | None:
    """Close a set under hypersums and products; None when 0 or -1 appears,
    meaning the seed admits no preordering above it."""
    minus_one = F.neg(F.one)
    S = set(seed)
    if F.zero in S or minus_one in S:
        return None
    changed = True
    while changed:
        changed = False
        cur = list(S)
        for a in cur:
            for b in cur:
                for z in F.add(a, b) | {F.mul(a, b)}:
                    if z not in S:
                        if z == F.zero or z == minus_one:
                            return None
                        S.add(z)
                        changed = True
    return frozenset(S)


def maximal_preordering_extensions(F: FiniteHyperstructure, T, all_extensions: bool = False) -> list[frozenset[int]]:
    """Extend a preordering to maximal ones, which are exactly the cones
    containing it.

    Greedy mode resolves the least undecided element first, saturates, and
    falls back to the opposite sign when the closure collapses.  Exhaustive
    mode branches both ways and collects every completion.  Each result is
    re-verified as an ordering; a maximal extension failing that is a bug.
    """
    pre = is_preordering(F, T)
    if not pre.ok:
        raise DomainError("not a preordering: %s" % pre.summary())
    base = _saturate(F, frozenset(T))
    if base is None:
        raise InternalCheckError("preordering %s collapsed under saturation" % F.label_set(T))

    def undecided(S):
        for x in F.nonzero():
            if x not in S and F.neg(x) not in S:
                return x
        return None

    results: list[frozenset[int]] = []

    def finish(S):
        rep = is_ordering(F, S)
        if not rep.ok:
            raise InternalCheckError("maximal extension is not an ordering: %s" % rep.summary())
        if S not in results:
            results.append(S)

    if all_extensions:
        def walk(S):
            x = undecided(S)
            if x is None:
                finish(S)
                return
            for cand in (x, F.neg(x)):
                grown = _saturate(F, S | {cand})
                if grown is not None:
                    walk(grown)
        walk(base)
    else:
        S = base
        while True:
            x = undecided(S)
            if x is None:
                break
            grown = _saturate(F, S | {x})
            if grown is None:
                grown = _saturate(F, S | {F.neg(x)})
            if grown is None:
                raise InternalCheckError(
                    "both signs of %s collapse over %s" % (F.label(x), F.label_set(S)))
            S = grown
        finish(S)
    results.sort(key=sorted)
    return results


# ---------------------------------------------------------------------------
# iterated sums of the unity and the convexity hull of a cone


def one_sums(F: FiniteHyperstructure, n: int) -> frozenset[int]:
    """The n-fold hypersum 1+...+1."""
    if F.one is None:
        raise DomainError("unit sums need a unity")
    if n < 1:
        raise DomainError("n must be >= 1")
    S = hset(F.one)
    for _ in range(n - 1):
        S = F.set_add(S, hset(F.one))
    return S


@dataclass(frozen=True)
class OneSumSequence:
    """The distinct n-fold sums of 1 with the eventual cycle located.

    sets[i] is the (i+1)-fold sum; since there are finitely many subsets the
    sequence is eventually periodic, and quantifying over sets is exact
    quantification over all n.
    """

    structure: str
    sets: tuple[frozenset[int], ...]
    cycle_start: int
    cycle_length: int

    def term(self, n: int) -> frozenset[int]:
        """The n-fold sum for any n >= 1, read off the cycle."""
        if n < 1:
            raise DomainError("n must be >= 1")
        if n <= len(self.sets):
            return self.sets[n - 1]
        off = (n - self.cycle_start) % self.cycle_length
        return self.sets[self.cycle_start - 1 + off]


def one_sum_sequence(F: FiniteHyperstructure, limit: int = 64) -> OneSumSequence:
    if F.one is None:
        raise DomainError("unit sums need a unity")
    seen: dict[frozenset[int], int] = {}
    sets: list[frozenset[int]] = []
    S = hset(F.one)
    n = 1
    while S not in seen:
        if n > limit:
            raise DomainError("no cycle within %d terms" % limit)
        seen[S] = n
        sets.append(S)
        S = F.set_add(S, hset(F.one))
        n += 1
    first = seen[S]
    return OneSumSequence(F.name, tuple(sets), first, n - first)


def _require_cone(F: FiniteHyperstructure, P) -> frozenset[int]:
    P = frozenset(P)
    rep = is_ordering(F, P)
    if not rep.ok:
        raise DomainError("not an ordering: %s" % rep.summary())
    return P


def natural_valuation_ring(F: FiniteHyperstructure, P) -> frozenset[int]:
    """Elements bounded by some n-fold unit sum on both sides of the cone.

    a belongs iff for some n both (S_n + a) and (S_n - a) meet P, where S_n is
    the n-fold hypersum of 1.  Requiring both sides matches the classical
    |a| <= n.
    """
    return natural_hull(F, _require_cone(F, P), one_sum_sequence(F))[0]


def natural_valuation_ideal(F: FiniteHyperstructure, P) -> frozenset[int]:
    """Elements a with 1 +- S_n*a inside the cone for every n; the unique
    maximal ideal of the hull."""
    return natural_hull(F, _require_cone(F, P), one_sum_sequence(F))[1]


def natural_hull(F: FiniteHyperstructure, P, seq: OneSumSequence) -> tuple[frozenset[int], frozenset[int]]:
    """The natural valuation ring of a cone and its ideal, from one walk over
    the carrier and the unit sums seq of F.  Assumes P already validated."""
    one = hset(F.one)
    ring, ideal = set(), set()
    for a in F.elements():
        ha, hna = hset(a), hset(F.neg(a))
        if any(F.set_add(S, ha) & P and F.set_add(S, hna) & P for S in seq.sets):
            ring.add(a)
        sums = [F.set_mul(S, ha) for S in seq.sets]
        if all(F.set_add(one, Sa) <= P and F.set_add(one, F.set_neg(Sa)) <= P for Sa in sums):
            ideal.add(a)
    A, I = frozenset(ring), frozenset(ideal)
    if F.one not in A:
        raise InternalCheckError("unity escaped the hull of %s" % F.label_set(P))
    if any((F.neg(a) in A) != (a in A) for a in F.elements()):
        raise InternalCheckError("hull of %s is not symmetric under negation" % F.label_set(P))
    if not I <= A:
        raise InternalCheckError("ideal of %s escapes its hull" % F.label_set(P))
    return A, I


def is_archimedean(F: FiniteHyperstructure, P) -> bool:
    """Whether the hull of the cone is the whole carrier."""
    return natural_valuation_ring(F, P) == frozenset(F.elements())


def signature(F: FiniteHyperstructure, P, a: int) -> int:
    """+1 on the cone and -1 on its negative.  Assumes P already validated."""
    F._check_index(a)
    if a == F.zero:
        raise DomainError("zero has no sign")
    if a in P:
        return 1
    if F.neg(a) in P:
        return -1
    raise DomainError("cone does not decide %s" % F.label(a))


# ---------------------------------------------------------------------------
# ordering counts of factor hyperfields against the base field


@dataclass(frozen=True)
class OrderingCountComparison:
    """Cone count of a factor hyperfield vs cones of the base field over T."""

    base: str
    subgroup: str
    factor_count: int
    base_count: int
    detail: str

    @property
    def equal(self) -> bool:
        return self.factor_count == self.base_count

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "subgroup": self.subgroup,
            "factor_count": self.factor_count,
            "base_count": self.base_count,
            "equal": self.equal,
            "detail": self.detail,
        }


def rational_cone_count(T: QSubgroup, height_bound: int = 100) -> int:
    """Orderings of Q containing T.  The positives form the only cone of Q:
    at bounded height, every positive integer is certified as a sum of at
    most four squares, so any cone must swallow all positives.  T inside the
    positives therefore lies in exactly one cone."""
    for n in range(1, height_bound + 1):
        quad = four_squares_decomp(n)
        if quad is None or sum(c * c for c in quad) != n:
            raise InternalCheckError("missing square certificate for %d" % n)
    probe = [Fraction(a, b) for a in range(1, 8) for b in range(1, 8)]
    if any(T.contains(-q) for q in probe):
        return 0
    return 1


def factor_ordering_count_check(field, T, height_bound: int = 100) -> OrderingCountComparison:
    """Compare cone counts: the factor hyperfield of `field` by T on one side,
    the cones of the base field containing T on the other.

    field is "Q" with a QSubgroup, or a prime p with an iterable of subgroup
    generators for F_p.  The positive p-unit factor is handled through its
    symbolic signed-value presentation.
    """
    if field == "Q":
        if not isinstance(T, QSubgroup):
            raise DomainError("Q expects a QSubgroup")
        if T.kind == "positives":
            lhs = len(enumerate_orderings(sign_hyperfield()))
            detail = "factor of Q by the positives is the sign hyperfield"
        elif T.kind == "punits":
            from .sgntrop import q_punits_hyperfield, sym_orderings
            lhs = len(sym_orderings(q_punits_hyperfield(T.p)))
            detail = "factor presented symbolically as (sign, v_%d) pairs" % T.p
        else:
            raise DomainError("unsupported subgroup kind %r for cone counting" % T.kind)
        rhs = rational_cone_count(T, height_bound)
        return OrderingCountComparison("Q", T.label(), lhs, rhs, detail)
    if isinstance(field, int):
        factor = factor_hyperfield(field, T)
        lhs = len(enumerate_orderings(factor.structure))
        base = prime_field_hyperfield(field)
        sub = subgroup_closure(field, T)
        rhs = sum(1 for P in enumerate_orderings(base) if sub <= P)
        return OrderingCountComparison(
            "F_%d" % field, factor.structure.name, lhs, rhs,
            "prime field cones enumerated exhaustively",
        )
    raise DomainError("unsupported base field %r" % field)


@dataclass(frozen=True)
class ArchimedeanCertificate:
    """Bounded-height evidence that the squares factor of Q has an
    archimedean cone: every positive class sits in the four-fold unit sum."""

    height_bound: int
    checked: int
    all_bounded: bool
    examples: tuple[tuple[int, int, tuple[int, ...]], ...]


def squares_factor_archimedean_check(height_bound: int = 100) -> ArchimedeanCertificate:
    """For every positive squarefree m up to the bound, produce a
    decomposition of m into at most four squares.  Padding a square via the
    3-4-5 split turns any shorter decomposition into exactly four nonzero
    squares over Q, so [m] lies in the four-fold hypersum of [1] and the
    positive cone equals it."""
    T = QSubgroup("squares")
    checked = 0
    examples: list[tuple[int, int, tuple[int, ...]]] = []
    for m in range(1, height_bound + 1):
        if squarefree_part(m) != m:
            continue
        kind = squares_sum_kind(q_factor_class(Fraction(m), T))
        if kind is None or kind > 4:
            return ArchimedeanCertificate(height_bound, checked, False, tuple(examples))
        quad = four_squares_decomp(m)
        if sum(x * x for x in quad) != m:
            raise InternalCheckError("bad square certificate for %d" % m)
        checked += 1
        if len(examples) < 8:
            examples.append((m, kind, quad))
    return ArchimedeanCertificate(height_bound, checked, True, tuple(examples))
