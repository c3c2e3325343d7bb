"""Finite hyperstructures as dense tables, plus the axiom checkers.

Elements are integer indices into a label list.  Hyperaddition maps a pair of
indices to a frozenset of indices; multiplication and negation stay single
valued.  All checkers are exhaustive loops over the carrier, so they are exact
oracles at desk scale (carriers of a few dozen elements).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial, reduce
from operator import or_


class DomainError(ValueError):
    """An index fell outside the carrier, or an input violated a precondition."""


class InternalCheckError(RuntimeError):
    """Two routes that are required to agree disagreed.  Build-breaking."""


def hset(*xs: int) -> frozenset[int]:
    return frozenset(xs)


@dataclass(frozen=True)
class FiniteHyperstructure:
    """A carrier with single-valued mul/neg tables and a set-valued add table."""

    name: str
    labels: tuple[str, ...]
    zero: int
    one: int | None
    neg_table: tuple[int, ...]
    mul_table: tuple[tuple[int, ...], ...]
    add_table: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise DomainError("empty carrier")
        if not (0 <= self.zero < n):
            raise DomainError("zero index out of carrier")
        if self.one is not None and not (0 <= self.one < n):
            raise DomainError("one index out of carrier")
        if len(self.neg_table) != n or len(self.mul_table) != n or len(self.add_table) != n:
            raise DomainError("table sizes disagree with carrier")
        for x in range(n):
            if not (0 <= self.neg_table[x] < n):
                raise DomainError("neg entry out of carrier")
            if len(self.mul_table[x]) != n or len(self.add_table[x]) != n:
                raise DomainError("ragged table row")
            for y in range(n):
                if not (0 <= self.mul_table[x][y] < n):
                    raise DomainError("mul entry out of carrier")
                cell = self.add_table[x][y]
                if not cell:
                    raise DomainError("empty hypersum cell (%d,%d)" % (x, y))
                if any(not (0 <= z < n) for z in cell):
                    raise DomainError("add entry out of carrier")

    @property
    def size(self) -> int:
        return len(self.labels)

    def elements(self) -> range:
        return range(self.size)

    def nonzero(self) -> list[int]:
        return [x for x in self.elements() if x != self.zero]

    def _check_index(self, x: int) -> None:
        if not isinstance(x, int) or not (0 <= x < self.size):
            raise DomainError("index %r outside carrier of %s" % (x, self.name))

    def add(self, x: int, y: int) -> frozenset[int]:
        self._check_index(x)
        self._check_index(y)
        return self.add_table[x][y]

    def mul(self, x: int, y: int) -> int:
        self._check_index(x)
        self._check_index(y)
        return self.mul_table[x][y]

    def neg(self, x: int) -> int:
        self._check_index(x)
        return self.neg_table[x]

    def sub(self, x: int, y: int) -> frozenset[int]:
        return self.add(x, self.neg(y))

    def set_add(self, A, B) -> frozenset[int]:
        out: set[int] = set()
        for a in A:
            for b in B:
                out |= self.add(a, b)
        return frozenset(out)

    def set_mul(self, A, B) -> frozenset[int]:
        return frozenset(self.mul(a, b) for a in A for b in B)

    def set_neg(self, A) -> frozenset[int]:
        return frozenset(self.neg(a) for a in A)

    def inv(self, x: int) -> int | None:
        """Multiplicative inverse, or None if x has none (or there is no unity)."""
        self._check_index(x)
        if self.one is None:
            return None
        for y in self.elements():
            if self.mul(x, y) == self.one and self.mul(y, x) == self.one:
                return y
        return None

    def label(self, x: int) -> str:
        self._check_index(x)
        return self.labels[x]

    def label_set(self, A) -> str:
        return "{" + ", ".join(self.labels[a] for a in sorted(A)) + "}"

    def with_add_cell(self, x: int, y: int, cell: frozenset[int]) -> FiniteHyperstructure:
        """Copy of the structure with one add-table cell replaced."""
        self._check_index(x)
        self._check_index(y)
        rows = [list(row) for row in self.add_table]
        rows[x][y] = frozenset(cell)
        return FiniteHyperstructure(
            name=self.name + "*",
            labels=self.labels,
            zero=self.zero,
            one=self.one,
            neg_table=self.neg_table,
            mul_table=self.mul_table,
            add_table=tuple(tuple(row) for row in rows),
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "carrier": list(self.labels),
            "zero": self.zero,
            "one": self.one,
            "neg": list(self.neg_table),
            "mul": [list(row) for row in self.mul_table],
            "add": [[sorted(cell) for cell in row] for row in self.add_table],
        }

    @staticmethod
    def from_json(data: dict) -> FiniteHyperstructure:
        try:
            return FiniteHyperstructure(
                name=str(data["name"]),
                labels=tuple(str(s) for s in data["carrier"]),
                zero=int(data["zero"]),
                one=None if data.get("one") is None else int(data["one"]),
                neg_table=tuple(int(v) for v in data["neg"]),
                mul_table=tuple(tuple(int(v) for v in row) for row in data["mul"]),
                add_table=tuple(
                    tuple(frozenset(int(v) for v in cell) for cell in row)
                    for row in data["add"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, DomainError):
                raise
            raise DomainError("malformed structure spec: %s" % exc) from exc


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    detail: str


@dataclass
class ViolationReport:
    """Collected axiom violations, capped per axiom to keep output readable."""

    structure: str
    max_per_axiom: int = 10
    violations: list[Violation] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counts

    def record(self, axiom: str, witness: tuple, detail: str | Callable[[], str]) -> None:
        """Count a violation; keep it while under the cap.  A callable detail
        is formatted only when the violation is kept."""
        seen = self.counts.get(axiom, 0)
        self.counts[axiom] = seen + 1
        if seen < self.max_per_axiom:
            self.violations.append(Violation(axiom, witness, detail if isinstance(detail, str) else detail()))

    def summary(self) -> str:
        if self.ok:
            return "%s: all checks passed" % self.structure
        parts = ", ".join("%s x%d" % (a, c) for a, c in sorted(self.counts.items()))
        return "%s: FAILED (%s)" % (self.structure, parts)

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "ok": self.ok,
            "counts": dict(sorted(self.counts.items())),
            "violations": [
                {"axiom": v.axiom, "witness": list(v.witness), "detail": v.detail}
                for v in self.violations
            ],
        }


def check_canonical_hypergroup(H: FiniteHyperstructure, max_witnesses: int = 10) -> ViolationReport:
    """Exhaustive check of the canonical hypergroup axioms for (H, +, 0).

    H1 associativity of the set-lifted sum, H2 commutativity, H3 existence and
    uniqueness of the negative recorded in the neg table, H4 reversibility.
    """
    rep = ViolationReport(H.name, max_per_axiom=max_witnesses)
    els = list(H.elements())
    # H2 first: cheap, and H1 results below get reused.
    for x in els:
        for y in els:
            if H.add(x, y) != H.add(y, x):
                rep.record("H2", (x, y), lambda: "%s+%s != %s+%s" % (H.label(x), H.label(y), H.label(y), H.label(x)))
    for x in els:
        for y in els:
            xy = H.add(x, y)
            for z in els:
                lhs = H.set_add(xy, hset(z))
                rhs = H.set_add(hset(x), H.add(y, z))
                if lhs != rhs:
                    rep.record(
                        "H1", (x, y, z),
                        lambda: "(%s+%s)+%s = %s but %s+(%s+%s) = %s"
                        % (H.label(x), H.label(y), H.label(z), H.label_set(lhs),
                           H.label(x), H.label(y), H.label(z), H.label_set(rhs)),
                    )
    for x in els:
        nx = H.neg(x)
        if H.zero not in H.add(x, nx):
            rep.record("H3", (x,), lambda: "0 not in %s+(%s)" % (H.label(x), H.label(nx)))
        others = [y for y in els if y != nx and H.zero in H.add(x, y)]
        for y in others:
            rep.record("H3-unique", (x, y), lambda: "both %s and %s negate %s" % (H.label(nx), H.label(y), H.label(x)))
    for x in els:
        for y in els:
            for z in H.add(x, y):
                if y not in H.sub(z, x):
                    rep.record(
                        "H4", (x, y, z),
                        lambda: "%s in %s+%s but %s not in %s-%s"
                        % (H.label(z), H.label(x), H.label(y), H.label(y), H.label(z), H.label(x)),
                    )
    return rep


def check_hyperring(H: FiniteHyperstructure, max_witnesses: int = 10) -> ViolationReport:
    """Canonical hypergroup under +, commutative monoid-with-zero under *, distributivity."""
    rep = check_canonical_hypergroup(H, max_witnesses)
    els = list(H.elements())
    for x in els:
        for y in els:
            if H.mul(x, y) != H.mul(y, x):
                rep.record("R2-comm", (x, y), lambda: "%s*%s != %s*%s" % (H.label(x), H.label(y), H.label(y), H.label(x)))
            for z in els:
                if H.mul(H.mul(x, y), z) != H.mul(x, H.mul(y, z)):
                    rep.record("R2-assoc", (x, y, z), "multiplication not associative")
    for x in els:
        if H.mul(x, H.zero) != H.zero:
            rep.record("R2-zero", (x,), lambda: "%s*0 != 0" % H.label(x))
    if H.one is not None:
        for x in els:
            if H.mul(H.one, x) != x:
                rep.record("R2-unity", (x,), lambda: "1*%s != %s" % (H.label(x), H.label(x)))
    for x in els:
        for y in els:
            for z in els:
                lhs = frozenset(H.mul(x, w) for w in H.add(y, z))
                rhs = H.add(H.mul(x, y), H.mul(x, z))
                if lhs != rhs:
                    rep.record(
                        "R3", (x, y, z),
                        lambda: "%s*(%s+%s) = %s but %s*%s + %s*%s = %s"
                        % (H.label(x), H.label(y), H.label(z), H.label_set(lhs),
                           H.label(x), H.label(y), H.label(x), H.label(z), H.label_set(rhs)),
                    )
    return rep


def check_hyperfield(H: FiniteHyperstructure, max_witnesses: int = 10) -> ViolationReport:
    """Hyperring whose nonzero elements form a commutative group under *."""
    rep = check_hyperring(H, max_witnesses)
    if H.one is None or H.one == H.zero:
        rep.record("F-unity", (), "no unity distinct from zero")
        return rep
    for x in H.nonzero():
        for y in H.nonzero():
            if H.mul(x, y) == H.zero:
                rep.record("F-closure", (x, y), lambda: "%s*%s = 0 with both nonzero" % (H.label(x), H.label(y)))
    for x in H.nonzero():
        if H.inv(x) is None:
            rep.record("F-inverse", (x,), lambda: "%s has no multiplicative inverse" % H.label(x))
    return rep


# equality failures a double-distributivity report keeps as witnesses
EQUALITY_WITNESSES = 20


@dataclass(frozen=True)
class DoubleDistributivityReport:
    """Inclusion always holds in a hyperring; equality can genuinely fail.

    Every inclusion failure is kept.  Equality failures are counted, and the
    first EQUALITY_WITNESSES of them are kept as witnesses."""

    structure: str
    inclusion_ok: bool
    inclusion_failures: tuple[tuple, ...]
    equality_failure_count: int
    equality_failures: tuple[tuple, ...]

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "inclusion_ok": self.inclusion_ok,
            "inclusion_failures": [list(w) for w in self.inclusion_failures],
            "equality_failure_count": self.equality_failure_count,
            "equality_failures": [list(w) for w in self.equality_failures],
        }


def _mask(xs) -> int:
    m = 0
    for x in xs:
        m |= 1 << x
    return m


def check_double_distributivity(H: FiniteHyperstructure) -> DoubleDistributivityReport:
    """Check (a+b)(c+d) against ac+ad+bc+bd on every quadruple.

    Sets are int bitmasks built once per call.  Each distinct add cell gets
    an id, and (a+b)(c+d) is computed once per pair of cell ids.  The right
    side is the left fold ((ac+ad)+bc)+bd of set_add, taken one "mask +
    element" step at a time through a memo, so a table whose addition is not
    associative gets the verdict set_add would give.  Quadruples run in
    product order, which fixes the witnesses and their order.
    """
    els = H.elements()
    mul = H.mul_table
    ids: dict[frozenset[int], int] = {}
    cell_id = [[ids.setdefault(cell, len(ids)) for cell in row] for row in H.add_table]
    # scaled[s][j] is the mask of s*C for the cell C with id j, and
    # lhs[i][j] the mask of A*C for the cells A, C with ids i, j
    scaled = [[_mask(row[t] for t in C) for C in ids] for row in mul]
    lhs = [list(reduce(partial(map, or_), (scaled[s] for s in A))) for A in ids]
    add = [[_mask(cell) for cell in row] for row in H.add_table]
    # steps[e][m] is the mask of m + {e}; no mask is 0, as no add cell is empty
    steps: list[dict[int, int]] = [{} for _ in els]

    def step(m: int, e: int) -> int:
        out, rest = 0, m
        while rest:
            low = rest & -rest
            out |= add[low.bit_length() - 1][e]
            rest ^= low
        steps[e][m] = out
        return out

    incl: list[tuple] = []
    eq: list[tuple] = []
    eq_count = 0
    for a in els:
        mul_a, id_a = mul[a], cell_id[a]
        for b in els:
            mul_b, lhs_ab = mul[b], lhs[id_a[b]]
            for c in els:
                add_ac, bc, id_c = add[mul_a[c]], mul_b[c], cell_id[c]
                steps_bc = steps[bc]
                for d in els:
                    r = add_ac[mul_a[d]]
                    r = steps_bc.get(r) or step(r, bc)
                    bd = mul_b[d]
                    r = steps[bd].get(r) or step(r, bd)
                    left = lhs_ab[id_c[d]]
                    if left != r:
                        if left & ~r:
                            incl.append((a, b, c, d))
                        else:
                            eq_count += 1
                            if eq_count <= EQUALITY_WITNESSES:
                                eq.append((a, b, c, d))
    return DoubleDistributivityReport(H.name, not incl, tuple(incl), eq_count, tuple(eq))


@dataclass(frozen=True)
class HomomorphismSpec:
    """A map between hyperstructures given elementwise by index."""

    source: FiniteHyperstructure
    target: FiniteHyperstructure
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.source.size:
            raise DomainError("mapping length disagrees with source carrier")
        for v in self.mapping:
            if not (0 <= v < self.target.size):
                raise DomainError("mapping image out of target carrier")

    def apply(self, x: int) -> int:
        return self.mapping[x]

    def image_set(self, A) -> frozenset[int]:
        return frozenset(self.mapping[a] for a in A)

    def is_bijective(self) -> bool:
        return len(set(self.mapping)) == self.source.size == self.target.size


def check_homomorphism(phi: HomomorphismSpec, strict: bool = False, max_witnesses: int = 10) -> ViolationReport:
    """Zero preservation, multiplicativity, and phi(x+y) within phi(x)+phi(y).

    With strict=True the containment must be an equality.  Compatibility with
    negation is a consequence of the axioms and is checked as such.
    """
    S, T = phi.source, phi.target
    rep = ViolationReport("%s -> %s" % (S.name, T.name), max_per_axiom=max_witnesses)
    if phi.apply(S.zero) != T.zero:
        rep.record("HH1", (S.zero,), "zero not mapped to zero")
    for x in S.elements():
        for y in S.elements():
            if phi.apply(S.mul(x, y)) != T.mul(phi.apply(x), phi.apply(y)):
                rep.record("HH2", (x, y), lambda: "phi(%s*%s) != phi(%s)*phi(%s)" % (S.label(x), S.label(y), S.label(x), S.label(y)))
            img = phi.image_set(S.add(x, y))
            tgt = T.add(phi.apply(x), phi.apply(y))
            if not img <= tgt:
                rep.record("HH3", (x, y), lambda: "phi(%s+%s) = %s not within %s" % (S.label(x), S.label(y), T.label_set(img), T.label_set(tgt)))
            elif strict and img != tgt:
                rep.record("HH3-strict", (x, y), lambda: "phi(%s+%s) = %s != %s" % (S.label(x), S.label(y), T.label_set(img), T.label_set(tgt)))
    for x in S.elements():
        if phi.apply(S.neg(x)) != T.neg(phi.apply(x)):
            rep.record("HH-neg", (x,), lambda: "phi(-%s) != -phi(%s)" % (S.label(x), S.label(x)))
    return rep


def kernel(phi: HomomorphismSpec) -> frozenset[int]:
    """Preimage of zero.  Raises if phi is not a homomorphism."""
    rep = check_homomorphism(phi)
    if not rep.ok:
        raise DomainError("not a homomorphism: %s" % rep.summary())
    return frozenset(x for x in phi.source.elements() if phi.apply(x) == phi.target.zero)


def is_isomorphism(phi: HomomorphismSpec) -> bool:
    """Strict bijective homomorphism."""
    return phi.is_bijective() and check_homomorphism(phi, strict=True).ok


def find_isomorphism(A: FiniteHyperstructure, B: FiniteHyperstructure) -> HomomorphismSpec | None:
    """Search the (small) permutation space for a strict bijective map A -> B."""
    if A.size != B.size:
        return None
    if (A.one is None) != (B.one is None):
        return None
    from itertools import permutations

    rest_a = [x for x in A.elements() if x != A.zero and x != A.one]
    rest_b = [x for x in B.elements() if x != B.zero and x != B.one]
    for perm in permutations(rest_b):
        mapping = [0] * A.size
        mapping[A.zero] = B.zero
        if A.one is not None:
            mapping[A.one] = B.one
        for src, dst in zip(rest_a, perm):
            mapping[src] = dst
        phi = HomomorphismSpec(A, B, tuple(mapping))
        if is_isomorphism(phi):
            return phi
    return None


@dataclass(frozen=True)
class InducedSubhyperring:
    """A subset carrying the intersected hyperaddition, repackaged as a structure."""

    structure: FiniteHyperstructure
    parent_indices: tuple[int, ...]
    strict: bool

    def sub_of(self, parent_index: int) -> int | None:
        try:
            return self.parent_indices.index(parent_index)
        except ValueError:
            return None


def induced_subhyperring(H: FiniteHyperstructure, S) -> InducedSubhyperring | None:
    """Build S with a +_S b = (a+b) & S if that yields a hyperring, else None.

    The strict flag records whether a-b lands entirely inside S for all a, b in
    S (and products stay in S), i.e. whether the inclusion is strict.
    """
    S = frozenset(S)
    for a in S:
        H._check_index(a)
    if H.zero not in S:
        raise DomainError("subset must contain zero")
    members = tuple(sorted(S))
    pos = {x: i for i, x in enumerate(members)}
    for a in S:
        for b in S:
            if H.mul(a, b) not in S:
                return None  # not multiplicatively closed
        if H.neg(a) not in S:
            return None  # induced negative would be missing
    add_rows = []
    for a in members:
        row = []
        for b in members:
            cell = H.add(a, b) & S
            if not cell:
                return None  # induced hypersum empty
            row.append(frozenset(pos[z] for z in cell))
        add_rows.append(tuple(row))
    sub = FiniteHyperstructure(
        name="%s|%s" % (H.name, H.label_set(S)),
        labels=tuple(H.label(x) for x in members),
        zero=pos[H.zero],
        one=pos[H.one] if (H.one is not None and H.one in S) else None,
        neg_table=tuple(pos[H.neg(x)] for x in members),
        mul_table=tuple(tuple(pos[H.mul(a, b)] for b in members) for a in members),
        add_table=tuple(add_rows),
    )
    if not check_hyperring(sub).ok:
        return None
    strict = all(H.sub(a, b) <= S for a in S for b in S)
    return InducedSubhyperring(sub, members, strict)


def zero_sum_theorem_holds(H: FiniteHyperstructure) -> bool:
    """x+0 = {x} for all x.  A consequence of H3 and H4, not an axiom."""
    return all(H.add(x, H.zero) == hset(x) for x in H.elements())


def add_table_mutants(H: FiniteHyperstructure):
    """Yield (x, y, cell, mutant) for every way of replacing one add cell
    with a different nonempty subset of the carrier."""
    n = H.size
    subsets = [frozenset(b for b in range(n) if bits >> b & 1)
               for bits in range(1, 1 << n)]
    for x in range(n):
        for y in range(n):
            original = H.add(x, y)
            for cell in subsets:
                if cell == original:
                    continue
                yield x, y, cell, H.with_add_cell(x, y, cell)


def mutation_coverage(H: FiniteHyperstructure):
    """Run every single-cell add mutant through the axiom battery.

    Returns (total, caught, escapes); an escape is a mutant that no checker
    rejects, meaning the mutated table is itself a valid hyperstructure.
    """
    total = 0
    caught = 0
    escapes = []
    for x, y, cell, mutant in add_table_mutants(H):
        total += 1
        report = check_hyperfield(mutant) if H.one is not None else check_hyperring(mutant)
        if not report.ok or not zero_sum_theorem_holds(mutant):
            caught += 1
        else:
            escapes.append((x, y, cell))
    return total, caught, escapes
