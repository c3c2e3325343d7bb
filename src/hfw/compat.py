"""Compatibility of valuations with orderings: the four-condition battery,
convexity, natural valuations, lifting of residue orderings, and the
correspondence between compatible orderings and (residue ordering, character)
pairs.

Finite tables and symbolic signed-value structures share one path.  The four
conditions with their witnesses, the convexity sweep and the lift are each
written once, against a small protocol that _Tables and _Symbolic supply:

* the elements of a window (for a finite table, every element), nearest the
  unit first, so that the first counterexample a sweep meets is a small one;
* the structure's ``add``, ``neg`` and ``mul``;
* a cone's ``contains``, ``contains_set`` and ``meets_set``;
* the valuation's values, through its ring, its ideal and ``value_keys``.

A finite sweep covers the whole carrier and is exact.  A symbolic sweep
covers a value window, so the symbolic side keeps an independent second
route: row-shape case analyses (_sym_cond_iii_cases, _sym_cond_iv_cases, and
sym_ordering_case_analysis inside sym_is_ordering) decide the same verdicts
without a sweep, and any disagreement raises InternalCheckError, which the
command layer maps to its own exit code.

Inputs are validated once, where a public function receives them.  A frame
holds one structure with one validated valuation; it enumerates the cones
and builds each cone's report at most once.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product

from .constructions import QSubgroup, q_factor_class
from .hypercore import DomainError, InternalCheckError
from .realalg import enumerate_orderings, is_archimedean, is_ordering, natural_hull, one_sum_sequence
from .sgntrop import (
    STElem,
    SignedValueHyperfield,
    SymOrdering,
    SymValuation,
    canonical_valuation,
    gunit_last,
    sym_ideal_of,
    sym_is_ordering,
    sym_is_valuation,
    sym_natural_ring,
    sym_orderings,
    sym_residue,
    sym_ring_of,
)
from .valtheory import (
    LexGroup,
    ResidueField,
    carrier_record,
    is_valuation,
    residue_hyperfield,
    residue_of_valuation,
    sym_valuation_from_ring,
)


# ---------------------------------------------------------------------------
# the structure protocol


class _TableCone(frozenset):
    """A finite cone, a frozenset of indices, in the cone protocol."""

    def contains(self, a) -> bool:
        return a in self

    def contains_set(self, S) -> bool:
        return S <= self

    def meets_set(self, S) -> bool:
        return not self.isdisjoint(S)


class _Frame:
    """One structure seen through the protocol, with one valuation (or none,
    for the sweeps that need no valuation) that set_valuation checks.

    Subclasses supply ``elements``, ``set_valuation``, ``ring`` (the
    valuation ring O of v and its ideal M), ``residue`` (the residue of v, or
    None when the ideal is zero, so that the residue is the structure
    itself), the natural ring of a cone and the valuation it carries, in the
    form set_valuation takes, and the cone and label primitives below.  The
    ring, ideal and residue are built when a sweep first needs them, and
    each cone's natural ring once.
    """

    def __init__(self, F, window: int):
        self.F, self.window = F, window
        self.zero = F.zero
        self.elements = self._elements()
        self._is_cone: dict = {}
        self._cones = None
        self._hulls: dict = {}
        self._reports: dict = {}

    def is_cone(self, P) -> bool:
        if P not in self._is_cone:
            self._is_cone[P] = self._cone_ok(P)
        return self._is_cone[P]

    def check_cone(self, P):
        """Validate a cone passed in by a caller; return it in the protocol."""
        P = self.cone(P)
        if not self.is_cone(P):
            raise DomainError("invalid cone %s on %s" % (self.cone_label(P), self.F.name))
        return P

    def cones(self) -> list:
        """Every cone of the structure, enumerated once per frame."""
        if self._cones is None:
            self._cones = self._all_cones()
            self._is_cone.update((P, True) for P in self._cones)
        return self._cones

    def hull(self, P) -> tuple:
        """The natural ring of a validated cone and, on a finite table, its
        ideal (None on a signed-value structure); built once per frame."""
        if P not in self._hulls:
            self._hulls[P] = self._hull(P)
        return self._hulls[P]

    def report(self, P) -> CompatReport:
        """The report of an already validated cone, built once per frame."""
        if P not in self._reports:
            self._reports[P] = _report(self, P)
        return self._reports[P]

    @cached_property
    def value_keys(self) -> dict:
        """Per element, a key ordered as the values are, with the infinite
        value of zero above every other."""
        return {x: (1,) if x == self.zero else (0, self._value_key(x)) for x in self.elements}

    def is_unit(self, a) -> bool:
        O, M = self.ring
        return a in O and a not in M

    def induced(self, P) -> frozenset:
        """The residue classes of the units in the cone."""
        C = self.cone(P)
        return frozenset(self.residue.class_of(a) for a in self.elements
                         if C.contains(a) and self.is_unit(a))


class _Tables(_Frame):
    """A finite table: its window is the whole carrier and a cone is a
    frozenset of indices.  Its valuation's ring, ideal and residue come from
    one ring record (valtheory.ResidueField)."""

    def _elements(self):
        return list(self.F.elements())

    def set_valuation(self, v):
        """A valuation is checked here and the record of its ring built when
        a cone needs it; a ring record of F was checked when it was built,
        and its valuation is built when a report needs it."""
        if isinstance(v, ResidueField):
            self.record = v
            return
        rep = is_valuation(self.F, v)
        if not rep.ok:
            raise DomainError("invalid valuation: %s" % rep.summary())
        self.v = v

    @cached_property
    def v(self):
        return self.record.valuation

    @cached_property
    def record(self) -> ResidueField:
        return residue_of_valuation(self.F, self.v)

    @cached_property
    def seq(self):
        return one_sum_sequence(self.F)

    def _value_key(self, x) -> int:
        # the value's rank among the values taken; the group only compares
        le, values = self.v.group.le, self.v.values
        return sum(le(values[y], values[x]) for y in self.F.nonzero())

    @property
    def ring(self):
        return self.record.ring, self.record.ideal

    @property
    def residue(self):
        return self.record

    def _cone_ok(self, P) -> bool:
        return is_ordering(self.F, P).ok

    def _all_cones(self) -> list:
        return enumerate_orderings(self.F)

    def cone(self, P):
        return _TableCone(P)

    def _hull(self, P):
        return natural_hull(self.F, P, self.seq)

    def natural_valuation(self, P) -> ResidueField:
        """The record of the natural ring of a validated cone, whose maximal
        ideal must be the cone's natural ideal."""
        ring, ideal = self.hull(P)
        record = residue_hyperfield(self.F, ring)
        if record.ideal != ideal:
            raise InternalCheckError("natural ideal differs from the maximal ideal of the natural ring")
        return record

    def cases(self, P) -> dict:
        return {}  # a sweep over the whole carrier is exact

    def valuation_label(self) -> str:
        return self.v.group.describe()

    def cone_label(self, P) -> str:
        return self.F.label_set(P)

    def ring_label(self, O) -> str:
        return self.F.label_set(O)


class _Symbolic(_Frame):
    """A signed-value structure: its window holds the values boxed in
    [-window, window] and its cones are character cones."""

    def _elements(self):
        # a stable sort keeps the window order inside each shell
        return sorted(self.F.window_elements(self.window, include_zero=True),
                      key=lambda e: -1 if e.is_zero() else max(map(abs, e.gamma)))

    def set_valuation(self, v):
        if not sym_is_valuation(self.F, v).ok:
            raise DomainError("invalid valuation on %s" % self.F.name)
        self.v = v

    def _value_key(self, x):
        return self.v.value(x)  # lex-ordered tuples

    @cached_property
    def ring(self):
        return sym_ring_of(self.F, self.v), sym_ideal_of(self.F, self.v)

    @cached_property
    def residue(self):
        return sym_residue(self.F) if self.v.prefix else None

    def _cone_ok(self, P) -> bool:
        return sym_is_ordering(self.F, P, self.window)

    def _all_cones(self) -> list:
        return sym_orderings(self.F, self.window)

    def cone(self, P):
        return P

    def _hull(self, P):
        return sym_natural_ring(self.F, P), None

    def natural_valuation(self, P):
        return sym_valuation_from_ring(self.F, self.hull(P)[0])

    def cases(self, P) -> dict:
        return {"cond_iii": _sym_cond_iii_cases(self.F, self.v, P),
                "cond_iv": _sym_cond_iv_cases(self.F, self.v, P)}

    def valuation_label(self) -> str:
        return self.v.label()

    def cone_label(self, P) -> str:
        return P.label()

    def ring_label(self, O) -> str:
        return "O_v"


def _frame(F, v=None, window: int = 6) -> _Frame:
    """The frame of F; a valuation passed in is validated here.  On a finite
    table v may also be a ring record (ResidueField) of F, which stands for
    its valuation."""
    s = (_Symbolic if isinstance(F, SignedValueHyperfield) else _Tables)(F, window)
    if v is not None:
        s.set_valuation(v)
    return s


# ---------------------------------------------------------------------------
# the four conditions, each with its witness


def _cond_i(s: _Frame, P):
    """The natural valuation ring of the cone sits inside the ring of v."""
    N, (O, _) = s.hull(P)[0], s.ring
    for x in s.elements:
        if x in N and x not in O:
            return False, "element %s lies in the natural ring but not in the valuation ring" % s.F.label(x)
    return True, None


def _cond_ii(s: _Frame, P):
    """The classes of cone members that are units form a cone downstairs."""
    if s.residue is None:
        return True, None  # the residue is the structure, and P was validated on it
    rep = is_ordering(s.residue.structure, s.induced(P))
    return rep.ok, None if rep.ok else "induced residue set fails: %s" % rep.summary()


def _cond_iii(s: _Frame, P):
    """1 + m stays in the cone for every m in the ideal of v."""
    F, (_, M) = s.F, s.ring
    for m in s.elements:
        if m not in M:
            continue
        S = F.add(F.one, m)
        if not P.contains_set(S):
            out = [F.label(x) for x in s.elements if x in S and not P.contains(x)]
            return False, "1 + %s contains %s, which is outside the cone" % (
                F.label(m), out[0] if out else "a member beyond the window")
    return True, None


def _cond_iv(s: _Frame, P):
    """Membership of b+a and b-a in the cone bounds v(b) by v(a)."""
    F, key = s.F, s.value_keys
    for a in s.elements:
        na = F.neg(a)
        for b in s.elements:
            if key[a] < key[b] and P.meets_set(F.add(b, a)) and P.meets_set(F.add(b, na)):
                return False, "a=%s, b=%s meet the cone both ways yet v(a) < v(b)" % (F.label(a), F.label(b))
    return True, None


_CONDITIONS = (("cond_i", _cond_i), ("cond_ii", _cond_ii), ("cond_iii", _cond_iii), ("cond_iv", _cond_iv))
# what the symbolic case analysis of a condition decides
_DECIDES = {"cond_iii": "the unit neighborhood", "cond_iv": "the value bound"}


def _sym_cond_iii_cases(H: SignedValueHyperfield, v: SymValuation, P: SymOrdering):
    """Structural verdict for 1 + (positive-value elements) inside P.

    Tropical rows with distinct values keep only the dominant element, which
    is 1 itself, so the inclusion always holds.  The p-unit rows with
    opposite signs and distinct values keep both signs at the minimum, so
    the sum 1 + (-, delta) contains (-1, 0), which no character cone holds.
    """
    if v.prefix == 0 or H.kind == "tropical":
        return True, None
    return False, STElem(-1, gunit_last(H.k))


def _sym_cond_iv_cases(H: SignedValueHyperfield, v: SymValuation, P: SymOrdering):
    """Structural verdict for: both b+a and b-a meeting P forces v(a) >= v(b).

    With v(a) < v(b), tropical sums collapse to {a} and {-a}, so the
    antecedent would put a and -a in the cone at once.  The p-unit rows give
    {a} alongside the two-sign pair at v(a), whose cone member satisfies the
    antecedent while the values still violate the conclusion.
    """
    if v.prefix == 0 or H.kind == "tropical":
        return True, None
    return False, (H.one, STElem(1, gunit_last(H.k)))  # every cone holds 1


@dataclass
class CompatReport:
    """The four equivalent conditions, evaluated independently."""

    structure: str
    valuation: str
    ordering: str
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    witnesses: dict

    @property
    def compatible(self) -> bool:
        return self.cond_i

    def all_equal(self) -> bool:
        return self.cond_i == self.cond_ii == self.cond_iii == self.cond_iv

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "valuation": self.valuation,
            "ordering": self.ordering,
            "cond_i": self.cond_i,
            "cond_ii": self.cond_ii,
            "cond_iii": self.cond_iii,
            "cond_iv": self.cond_iv,
            "compatible": self.compatible,
            "witnesses": {k: str(w) for k, w in sorted(self.witnesses.items())},
        }


def _report(s: _Frame, P) -> CompatReport:
    """Evaluate all four conditions independently and assert their agreement,
    and the sweeps' agreement with the case analyses where there are any.

    A disagreement would falsify the four-way equivalence this module is
    built around and raises InternalCheckError.
    """
    C = s.cone(P)
    cases = s.cases(C)
    verdicts, witnesses = {}, {}
    for name, cond in _CONDITIONS:
        ok, witness = cond(s, C)
        if name in cases and cases[name][0] != ok:
            raise InternalCheckError(
                "window sweep and case analysis disagree on %s: sweep %s (witness %s), cases %s (witness %s)"
                % (_DECIDES[name], ok, witness, cases[name][0], cases[name][1]))
        verdicts[name] = ok
        if not ok:
            witnesses[name] = witness
    labels = (s.F.name, s.valuation_label(), s.cone_label(P))
    rep = CompatReport(*labels, witnesses=witnesses, **verdicts)
    if not rep.all_equal():
        raise InternalCheckError("four-way equivalence broke on %s / %s / %s: %s"
                                 % (labels + (verdicts,)))
    return rep


def compatibility_report(F, v, P, window: int = 6) -> CompatReport:
    """The four conditions for one valuation and one cone, both validated."""
    s = _frame(F, v, window)
    return s.report(s.check_cone(P))


def compatibility_reports(F, v, window: int = 6) -> dict:
    """Every cone of F, in enumeration order, mapped to its report against v;
    the valuation is validated and the cones are enumerated once.  On a
    finite table v may also be a ring record (ResidueField) of F."""
    s = _frame(F, v, window)
    return {P: s.report(P) for P in s.cones()}


def compatible(F, v, P, window: int = 6) -> bool:
    return compatibility_report(F, v, P, window).compatible


# ---------------------------------------------------------------------------
# natural valuation and the archimedean residue


def _natural_frame(F, P):
    """The frame of F carrying the valuation of the natural ring of a cone,
    and the validated cone."""
    s = _frame(F)
    P = s.check_cone(P)
    s.set_valuation(s.natural_valuation(P))
    return s, P


def natural_valuation(F, P):
    """The valuation carried by the natural valuation ring of the cone.

    Compatible with the cone by construction; that postcondition is asserted
    through the full battery before returning.
    """
    s, P = _natural_frame(F, P)
    if not s.report(P).compatible:
        raise InternalCheckError("natural valuation is not compatible with its own cone")
    return s.v


def residue_ordering_archimedean_check(F, P) -> bool:
    """Push the cone into the residue of its natural valuation ring and test
    archimedeanity there."""
    s, P = _natural_frame(F, P)
    if s.residue is None:
        # the ideal is zero: the residue is the structure itself and the
        # cone is archimedean exactly because its natural ring is everything
        return True
    return is_archimedean(s.residue.structure, s.induced(P))


# ---------------------------------------------------------------------------
# convexity and incomparability


@dataclass(frozen=True)
class ConvexityReport:
    structure: str
    ring: str
    ordering: str
    convex: bool
    violations: tuple

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "ring": self.ring,
            "ordering": self.ordering,
            "convex": self.convex,
            "violations": [list(map(str, t)) for t in self.violations],
        }


def convexity_check(F, P, O, window: int = 6) -> ConvexityReport:
    """No outside element sits strictly between two ring members, where
    a < b means the full difference b - a lies inside the cone."""
    s = _frame(F, None, window)
    C = s.cone(P)
    inside = [e for e in s.elements if e in O]
    outside = [e for e in s.elements if e not in O]
    violations = []
    for x in outside:
        nx = F.neg(x)
        for a in inside:
            if C.contains_set(F.add(x, F.neg(a))):
                violations += [(a, x, b) for b in inside if C.contains_set(F.add(b, nx))]
    return ConvexityReport(F.name, s.ring_label(O), s.cone_label(P), not violations, tuple(violations))


@dataclass(frozen=True)
class IncomparabilityWitness:
    """Two positive classes with explicit rational members of both
    difference sets inside the cone, ruling out comparability either way."""

    x_label: str
    y_label: str
    x_minus_y: tuple  # (member of x, member of y, their difference, its class)
    y_minus_x: tuple

    def to_json(self) -> dict:
        return {
            "x": self.x_label,
            "y": self.y_label,
            "x_minus_y": [str(t) for t in self.x_minus_y],
            "y_minus_x": [str(t) for t in self.y_minus_x],
        }


def _difference_member(p: int, vx: int, vy: int):
    """Positive difference u - w with u in the class (+, vx), w in (+, vy).

    Closed form: p^vx - p^vy when vx > vy, and otherwise
    p^vx * (p^g + 1) - p^vy = p^vx with g = vy - vx.  The classes of u, w
    and u - w are recomputed as the certificate.
    """
    T = QSubgroup("punits", p)
    u = Fraction(p**vx if vx > vy else p**vx * (p ** (vy - vx) + 1))
    w = Fraction(p**vy)
    d = u - w
    cls = q_factor_class(d, T)
    if (q_factor_class(u, T).label(), q_factor_class(w, T).label()) != ("(+,%d)" % vx, "(+,%d)" % vy) \
            or cls.sign() <= 0:
        raise InternalCheckError("difference certificate fails for (+,%d) - (+,%d)" % (vx, vy))
    return (u, w, d, cls.label())


def incomparability_witnesses(count: int = 5, p: int = 2) -> list[IncomparabilityWitness]:
    """Distinct positive classes of the signed p-unit factor that the cone
    order leaves incomparable.

    Both difference sets meet the cone, with explicit rational members; were
    x < y, the difference x - y would lie entirely in the negative part, so
    one member in the cone on each side settles incomparability.  Pairs are
    taken in a fixed order unless HFW_SEED selects a random sample.
    """
    pool = [(m, n) for n in range(1, 9) for m in range(n)]
    seed = os.environ.get("HFW_SEED")
    if seed is None:
        pairs = pool[:count]
    else:
        pairs = random.Random(int(seed)).sample(pool, min(count, len(pool)))
    out = []
    for m, n in pairs:
        fwd = _difference_member(p, n, m)
        rev = _difference_member(p, m, n)
        out.append(IncomparabilityWitness("(+,%d)" % n, "(+,%d)" % m, fwd, rev))
    return out


# ---------------------------------------------------------------------------
# lifting residue orderings


def lift_ordering(F, v, residue_cone, all_extensions: bool = False, window: int = 4):
    """Cones upstairs that are compatible with v and induce the given cone on
    the residue.

    They are the cones that hold the unit-square pullback {a : some a*x^2 is
    a unit with residue class in the cone}; every one returned is verified
    compatible and checked to induce the requested residue cone.
    """
    return _lift(_frame(F, v, window), residue_cone, all_extensions)


def _lift(s: _Frame, residue_cone, all_extensions: bool) -> list:
    if s.residue is None:
        # the ideal is zero: the residue is the structure and its cone lifts to itself
        return [s.check_cone(residue_cone)]
    residue_cone = frozenset(residue_cone)
    rep = is_ordering(s.residue.structure, residue_cone)
    if not rep.ok:
        raise DomainError("not a residue cone: %s" % rep.summary())
    F = s.F
    nonzero = [a for a in s.elements if a != s.zero]
    squares = {F.mul(x, x) for x in nonzero}
    pullback = [a for a in nonzero if any(
        s.is_unit(u) and s.residue.class_of(u) in residue_cone for u in (F.mul(a, q) for q in squares))]
    lifts = [P for P in s.cones() if all(map(s.cone(P).contains, pullback))]
    if not lifts:
        raise InternalCheckError("no lift found for a valid residue cone")
    lifts = lifts if all_extensions else lifts[:1]
    for P in lifts:
        if not s.report(P).compatible:
            raise InternalCheckError("lifted cone is not compatible")
        if s.induced(P) != residue_cone:
            raise InternalCheckError("lifted cone induces the wrong residue cone")
    return lifts


# ---------------------------------------------------------------------------
# characters and the correspondence


def characters_of(G) -> list[SymOrdering]:
    """All characters of a lex power, by generator images.  A character is
    held as the SymOrdering it decides membership for; SymOrdering.chi
    evaluates it."""
    if not isinstance(G, LexGroup):
        raise DomainError("characters are enumerated for lex groups only")
    return [SymOrdering(images) for images in product((1, -1), repeat=G.k)]


def _sign(P: SymOrdering, a: STElem) -> int:
    return 1 if P.contains(a) else -1


def _full_rank_frame(H: SignedValueHyperfield, v: SymValuation, window: int) -> _Frame:
    if v.prefix != H.k:
        raise DomainError("the correspondence runs along the full-rank valuation")
    return _frame(H, v, window)


def baer_krull_forward(H: SignedValueHyperfield, v: SymValuation, P: SymOrdering, base: dict, window: int = 4):
    """Map a compatible cone to its residue cone and character.

    The character sends v(a) to sgn(a) under the base cone times sgn(a)
    under P; well-definedness (dependence on the value alone) and the
    homomorphism law are checked over a window.
    """
    s = _full_rank_frame(H, v, window)
    P = s.check_cone(P)
    if not s.report(P).compatible:
        raise DomainError("cone is not compatible with the valuation")
    return _forward(s, P, base)


def _forward(s: _Frame, P: SymOrdering, base: dict):
    H, v = s.F, s.v
    pbar = s.induced(P)
    Pb = base[pbar]
    gens = [STElem(1, tuple(int(j == i) for j in range(H.k))) for i in range(H.k)]
    chi = SymOrdering(tuple(_sign(Pb, a) * _sign(P, a) for a in gens))
    for a in s.elements:
        if a != s.zero and chi.chi(v.value(a)) != _sign(Pb, a) * _sign(P, a):
            raise InternalCheckError("character is not determined by the value alone")
    gammas = H.window_gammas(2)
    for g1 in gammas:
        for g2 in gammas:
            total = tuple(x + y for x, y in zip(g1, g2))
            if chi.chi(total) != chi.chi(g1) * chi.chi(g2):
                raise InternalCheckError("character violates the homomorphism law")
    return pbar, chi


def baer_krull_inverse(H: SignedValueHyperfield, v: SymValuation, residue_cone, chi: SymOrdering,
                       base: dict, window: int = 4) -> SymOrdering:
    """Rebuild the cone from a residue cone and a character: x belongs when
    the character at v(x) is positive and x lies in the base cone, or the
    character is negative and -x lies there."""
    return _inverse(_full_rank_frame(H, v, window), residue_cone, chi, base)


def _inverse(s: _Frame, residue_cone, chi: SymOrdering, base: dict) -> SymOrdering:
    Pb = base[frozenset(residue_cone)]
    P = SymOrdering(tuple(c * b for c, b in zip(chi.images, Pb.images)))
    if not s.is_cone(P):
        raise InternalCheckError("constructed cone fails the ordering axioms")
    if not s.report(P).compatible:
        raise InternalCheckError("constructed cone is not compatible")
    for x in s.elements:
        if x == s.zero:
            continue
        from_formula = Pb.contains(x) if chi.chi(s.v.value(x)) == 1 else Pb.contains(x.neg())
        if from_formula != P.contains(x):
            raise InternalCheckError("membership formula disagrees with the constructed cone")
    return P


@dataclass
class BaerKrullTable:
    """The bijection between compatible cones and (residue cone, character)
    pairs, materialised row by row."""

    structure: str
    residue_cones: list
    characters: list[SymOrdering]
    rows: list  # (residue cone label, character label, cone label or labels)
    base_choice: dict

    @property
    def count(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "residue_cone_count": len(self.residue_cones),
            "character_count": len(self.characters),
            "rows": [list(r) for r in self.rows],
            "base": {k: v for k, v in sorted(self.base_choice.items())},
        }


def baer_krull_table(H, v: SymValuation | None = None, window: int = 4) -> BaerKrullTable:
    """Build the full correspondence for a signed-value structure, or for a
    finite table along its trivial valuation.

    Base cones per residue cone come from the deterministic lift.  Both
    composites are verified to be identities, the constructed cones are
    verified distinct, and every compatible cone is verified to be hit.
    """
    if not isinstance(H, SignedValueHyperfield):
        return _trivial_table(H)
    s = _full_rank_frame(H, canonical_valuation(H) if v is None else v, window)
    res = s.residue.structure
    residue_cones = enumerate_orderings(res)
    base = {pbar: _lift(s, pbar, False)[0] for pbar in residue_cones}
    chars = characters_of(LexGroup(H.k))
    rows = []
    seen = set()
    for pbar in residue_cones:
        for chi in chars:
            P = _inverse(s, pbar, chi, base)
            if _forward(s, P, base) != (pbar, chi):
                raise InternalCheckError("forward after inverse moved a pair")
            rows.append((res.label_set(pbar), chi.label("chi"), P.label()))
            seen.add(P)
    if len(seen) != len(rows):
        raise InternalCheckError("constructed cones are not distinct")
    for P in s.cones():
        if not s.report(P).compatible:
            continue
        if _inverse(s, *_forward(s, P, base), base) != P:
            raise InternalCheckError("inverse after forward moved a cone")
        if P not in seen:
            raise InternalCheckError("a compatible cone escaped the table")
    base_labels = {res.label_set(k): p.label() for k, p in base.items()}
    table = BaerKrullTable(H.name, residue_cones, chars, rows, base_labels)
    expected = len(residue_cones) * (2 ** H.k)
    if table.count != expected:
        raise InternalCheckError("correspondence size %d differs from %d" % (table.count, expected))
    return table


def _trivial_table(F) -> BaerKrullTable:
    """The correspondence on a finite table.  The only valuation hyperring of
    a finite hyperfield is the carrier, so the value group is trivial and
    each residue cone pairs with the empty character; its lift is listed by
    the labels of its members.  A table whose carrier is not a valuation
    hyperring is not a hyperfield, and is refused (DomainError)."""
    s = _frame(F, carrier_record(F))
    res = s.residue.structure
    residue_cones = enumerate_orderings(res)
    chi = SymOrdering(())
    rows = [(res.label_set(pbar), chi.label("chi"), sorted(F.label(a) for a in _lift(s, pbar, False)[0]))
            for pbar in residue_cones]
    return BaerKrullTable(F.name, residue_cones, [chi], rows, {label: cone for label, _, cone in rows})


def window_cone_pattern_count(H: SignedValueHyperfield, B: int = 4) -> int:
    """Count the sign patterns over the value window that could be cones
    compatible with the canonical valuation.

    Such a pattern must assign one sign per value, respect products, and give
    1 a plus sign; multiplicativity propagates the generator signs to the
    whole window, so the count collapses to the character count.  The
    propagation is checked to reach every window value, which is the
    window-bounded uniqueness statement behind the correspondence.
    """
    gammas = set(H.window_gammas(B))
    origin = (0,) * H.k
    # a multiplicative pattern is pinned by its generator images once every
    # window value reduces to the origin through generator steps that stay
    # inside the window; verify that reduction first
    for g in gammas:
        cur = g
        steps = 0
        while cur != origin and steps <= 4 * B * H.k:
            i = max(r for r in range(H.k) if cur[r] != 0)
            step = tuple((1 if cur[r] > 0 else -1) if r == i else 0 for r in range(H.k))
            nxt = tuple(c - s for c, s in zip(cur, step))
            if nxt not in gammas and nxt != origin:
                raise InternalCheckError("window value %s does not reduce inside the window" % (g,))
            cur = nxt
            steps += 1
        if cur != origin:
            raise InternalCheckError("window value %s failed to reduce" % (g,))
    return sum(1 for chi in characters_of(LexGroup(H.k)) if sym_is_ordering(H, chi, B))
