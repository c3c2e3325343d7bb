"""Symbolic hyperfields whose nonzero elements are (sign, value) pairs.

Values live in Z^k ordered lexicographically.  Two families are implemented:

* the signed tropical family, where a sum of same-signed elements keeps the
  minimal value and a sum of opposite equal-valued elements blurs into a ball;
* the factor of Q by the positive p-adic units, where equal-valued sums shift
  upward (for p = 2 an odd plus an odd is even, so the shift is strict).

Infinite hypersums are represented exactly: a set is a finite part plus
optional per-sign tails {(s, d) : d >= threshold} plus a zero flag.  All set
operations (union, sum, product, containment) are closed and decidable on
this representation, so universal statements are checked exactly per pair;
quantifiers over elements run over a value window and are labelled as such.

Elements and sets are hash-consed: one module-level table per class maps a
value to the one object built for it, and every constructor call returns that
object.  Equal values are therefore the same object, equality is identity and
hashing is the object's own, so memo lookups and comparisons in the sweeps
never walk a set.  A set's members then iterate in an order that follows
object addresses, not values; everything printed sorts them first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add as _add, neg as _neg

from .hypercore import DomainError, FiniteHyperstructure, InternalCheckError, ViolationReport

Gamma = tuple[int, ...]


def gzero(k: int) -> Gamma:
    return (0,) * k


def gadd(a: Gamma, b: Gamma) -> Gamma:
    return tuple(map(_add, a, b))


def gneg(a: Gamma) -> Gamma:
    return tuple(map(_neg, a))


def gunit_last(k: int) -> Gamma:
    # smallest strictly positive value in Z^k under lex order
    return (0,) * (k - 1) + (1,)


class _Interned:
    """Immutable value objects, one per distinct value: the constructor
    returns the existing object for a value it has built before, so equal
    values are the same object and equality and hashing are identity."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__,
                           ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


_ELEMS: dict = {}  # (sign, gamma) -> its STElem
_SETS: dict = {}  # (finite, pos_ball, neg_ball, has_zero) -> its STSet


class STElem(_Interned):
    """Zero (sign 0) or a signed value (sign +1/-1, value in Z^k)."""

    __slots__ = ("sign", "gamma")
    sign: int
    gamma: Gamma | None

    def __new__(cls, sign: int, gamma: Gamma | None):
        key = (sign, gamma)
        e = _ELEMS.get(key)
        if e is None:
            e = object.__new__(cls)
            object.__setattr__(e, "sign", sign)
            object.__setattr__(e, "gamma", gamma)
            _ELEMS[key] = e
        return e

    def is_zero(self) -> bool:
        return self.sign == 0

    def neg(self) -> STElem:
        if self.sign == 0:
            return self
        return STElem(-self.sign, self.gamma)

    def inv(self) -> STElem:
        if self.sign == 0:
            raise DomainError("zero has no inverse")
        return STElem(self.sign, gneg(self.gamma))

    def sort_key(self):
        if self.sign == 0:
            return (0, (), 0)
        return (1, self.gamma, -self.sign)

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        g = self.gamma[0] if len(self.gamma) == 1 else self.gamma
        return "(%s,%s)" % ("+" if self.sign > 0 else "-", g)


ST_ZERO = STElem(0, None)


def st(sign: int, *gamma: int) -> STElem:
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    return STElem(sign, tuple(gamma))


def st_mul(x: STElem, y: STElem) -> STElem:
    if x.sign == 0 or y.sign == 0:
        return ST_ZERO
    if len(x.gamma) != len(y.gamma):
        raise DomainError("mixed ranks")
    return STElem(x.sign * y.sign, tuple(map(_add, x.gamma, y.gamma)))


class STSet(_Interned):
    """finite members + optional per-sign upward tails + zero flag."""

    __slots__ = ("finite", "pos_ball", "neg_ball", "has_zero")
    finite: frozenset[STElem]
    pos_ball: Gamma | None
    neg_ball: Gamma | None
    has_zero: bool

    def __new__(cls, finite, pos_ball: Gamma | None, neg_ball: Gamma | None, has_zero: bool):
        key = (frozenset(finite), pos_ball, neg_ball, has_zero)
        S = _SETS.get(key)
        if S is None:
            S = object.__new__(cls)
            for f, v in zip(cls.__slots__, key):
                object.__setattr__(S, f, v)
            _SETS[key] = S
        return S

    def is_empty(self) -> bool:
        return not self.finite and self.pos_ball is None and self.neg_ball is None and not self.has_zero

    def contains(self, e: STElem) -> bool:
        if e.sign == 0:
            return self.has_zero
        if e in self.finite:
            return True
        if e.sign > 0 and self.pos_ball is not None and e.gamma >= self.pos_ball:
            return True
        if e.sign < 0 and self.neg_ball is not None and e.gamma >= self.neg_ball:
            return True
        return False

    __contains__ = contains

    def negated(self) -> STSet:
        return make_stset(
            frozenset(e.neg() for e in self.finite),
            self.neg_ball,
            self.pos_ball,
            self.has_zero,
        )

    def issubset(self, other: STSet) -> bool:
        if self.has_zero and not other.has_zero:
            return False
        if self.pos_ball is not None and (other.pos_ball is None or not (self.pos_ball >= other.pos_ball)):
            return False
        if self.neg_ball is not None and (other.neg_ball is None or not (self.neg_ball >= other.neg_ball)):
            return False
        return all(other.contains(e) for e in self.finite)

    def intersects(self, other: STSet) -> bool:
        if self.has_zero and other.has_zero:
            return True
        for e in self.finite:
            if other.contains(e):
                return True
        for e in other.finite:
            if self.contains(e):
                return True
        # two same-signed tails always share a far-enough value
        if self.pos_ball is not None and other.pos_ball is not None:
            return True
        if self.neg_ball is not None and other.neg_ball is not None:
            return True
        return False

    def members_within(self, window: list[Gamma]) -> list[STElem]:
        """Finite sample: all members whose value lies in the given window."""
        out = set(e for e in self.finite if e.gamma in set(window))
        for g in window:
            if self.pos_ball is not None and g >= self.pos_ball:
                out.add(STElem(1, g))
            if self.neg_ball is not None and g >= self.neg_ball:
                out.add(STElem(-1, g))
        return sorted(out, key=STElem.sort_key)

    def sample_members(self, per_ball: int = 3) -> list[STElem]:
        """Finite members plus a few representatives of each tail (and zero)."""
        out = list(self.finite)
        for sign, thr in ((1, self.pos_ball), (-1, self.neg_ball)):
            if thr is not None:
                k = len(thr)
                out.append(STElem(sign, thr))
                for j in range(1, per_ball):
                    out.append(STElem(sign, gadd(thr, tuple(v * j for v in gunit_last(k)))))
                if k > 1:
                    out.append(STElem(sign, gadd(thr, (1,) + (0,) * (k - 1))))
        if self.has_zero:
            out.append(ST_ZERO)
        return sorted(set(out), key=STElem.sort_key)

    def __str__(self) -> str:
        parts = [str(e) for e in sorted(self.finite, key=STElem.sort_key)]
        if self.pos_ball is not None:
            g = self.pos_ball[0] if len(self.pos_ball) == 1 else self.pos_ball
            parts.append("(+,>=%s)" % (g,))
        if self.neg_ball is not None:
            g = self.neg_ball[0] if len(self.neg_ball) == 1 else self.neg_ball
            parts.append("(-,>=%s)" % (g,))
        if self.has_zero:
            parts.insert(0, "0")
        return "{" + ", ".join(parts) + "}"


def _lex_pred(g: Gamma) -> Gamma:
    # immediate predecessor in the lex order on Z^k
    return g[:-1] + (g[-1] - 1,)


def make_stset(finite=(), pos_ball: Gamma | None = None, neg_ball: Gamma | None = None,
               has_zero: bool = False) -> STSet:
    """Canonical form: members absorbed by a tail are dropped, and a member
    sitting just below a tail threshold extends the tail downward.  This makes
    structural equality coincide with set equality, and with interning, set
    equality coincide with identity."""
    fin = set()
    for e in finite:
        if e.sign == 0:
            has_zero = True
        else:
            fin.add(e)
    balls = {1: pos_ball, -1: neg_ball}
    for sign in (1, -1):
        thr = balls[sign]
        if thr is None or not fin:
            continue
        # an element never built cannot be a member
        below = _ELEMS.get((sign, _lex_pred(thr)))
        while below in fin:
            fin.discard(below)
            thr = below.gamma
            below = _ELEMS.get((sign, _lex_pred(thr)))
        balls[sign] = thr
        fin = {e for e in fin if e.sign != sign or e.gamma < thr}
    return STSet(fin, balls[1], balls[-1], has_zero)


def st_union(sets) -> STSet:
    """The union of the given sets, canonicalised once."""
    fin: set = set()
    pos = neg = None
    has_zero = False
    for S in sets:
        fin |= S.finite
        if S.pos_ball is not None and (pos is None or S.pos_ball < pos):
            pos = S.pos_ball
        if S.neg_ball is not None and (neg is None or S.neg_ball < neg):
            neg = S.neg_ball
        has_zero = has_zero or S.has_zero
    return make_stset(fin, pos, neg, has_zero)


def st_singleton(e: STElem) -> STSet:
    if e.sign == 0:
        return STSet((), None, None, True)
    return STSet((e,), None, None, False)  # already canonical


def st_ball(gamma: Gamma) -> STSet:
    """Both tails from gamma on, zero included: the blur of x + (-x)."""
    return make_stset(pos_ball=gamma, neg_ball=gamma, has_zero=True)


class AllElements:
    """Marker for the full carrier, used where a subset equals everything."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def contains(self, e) -> bool:
        return True

    __contains__ = contains

    def __repr__(self) -> str:
        return "ALL"


ALL = AllElements()


def sym_subset(A, B) -> bool:
    if B is ALL:
        return True
    if A is ALL:
        return False  # a tailed set is bounded below, never the whole carrier
    return A.issubset(B)


class SignedValueHyperfield:
    """Hyperfield on {0} + {+1,-1} x Z^k with one of two addition laws."""

    def __init__(self, kind: str, k: int = 1, p: int | None = None, row_patch=None):
        if kind not in ("tropical", "punits"):
            raise DomainError("unknown kind %r" % kind)
        if kind == "punits":
            if k != 1:
                raise DomainError("punits carrier has rank 1 values")
            if p is None or p < 2:
                raise DomainError("punits needs a prime p >= 2")
        if k < 1:
            raise DomainError("rank must be >= 1")
        self.kind = kind
        self.k = k
        self.p = p
        self.row_patch = row_patch
        if kind == "tropical":
            self.name = "sgntrop(%d)" % k
        else:
            self.name = "q_p_units(%d)" % p
        self.one = STElem(1, gzero(k))
        self.zero = ST_ZERO
        self._row_cache: dict = {}
        self._setadd_cache: dict = {}
        self._setmul_cache: dict = {}

    # ---- element level ----

    def label(self, e: STElem) -> str:
        return str(e)

    def check_elem(self, e: STElem) -> None:
        if e.sign == 0:
            return
        if e.sign not in (-1, 1) or e.gamma is None or len(e.gamma) != self.k:
            raise DomainError("element %r not in carrier of %s" % (e, self.name))

    def mul(self, x: STElem, y: STElem) -> STElem:
        self.check_elem(x)
        self.check_elem(y)
        return st_mul(x, y)

    def neg(self, x: STElem) -> STElem:
        self.check_elem(x)
        return x.neg()

    def inv(self, x: STElem) -> STElem:
        self.check_elem(x)
        return x.inv()

    def add(self, x: STElem, y: STElem) -> STSet:
        out = self._row_cache.get((x, y))
        if out is None:  # a cached pair was checked when it was computed
            self.check_elem(x)
            self.check_elem(y)
            out = self._row_cache[x, y] = self._row(x, y)
        return out

    def _row(self, x: STElem, y: STElem) -> STSet:
        if self.row_patch is not None:
            patched = self.row_patch(self, x, y)
            if patched is not None:
                return patched
        if x.sign == 0:
            return st_singleton(y)
        if y.sign == 0:
            return st_singleton(x)
        gx, gy = x.gamma, y.gamma
        if self.kind == "tropical":
            if x.sign == y.sign:
                return st_singleton(x if gx <= gy else y)
            if gx < gy:
                return st_singleton(x)
            if gy < gx:
                return st_singleton(y)
            return st_ball(gx)
        # punits: equal values shift upward (strictly for p = 2)
        shift = 1 if self.p == 2 else 0
        if gx != gy:
            m = min(gx, gy)
            if x.sign == y.sign:
                return st_singleton(STElem(x.sign, m))
            return make_stset((STElem(1, m), STElem(-1, m)))
        lifted = (gx[0] + shift,)
        if x.sign == y.sign:
            if x.sign > 0:
                return make_stset(pos_ball=lifted)
            return make_stset(neg_ball=lifted)
        return st_ball(lifted)

    # ---- set level ----

    def _parts(self, A: STSet) -> list[tuple]:
        parts: list[tuple] = []
        if A.has_zero:
            parts.append(("zero",))
        for e in sorted(A.finite, key=STElem.sort_key):
            parts.append(("elem", e))
        if self.kind == "tropical":
            if A.pos_ball != A.neg_ball and (A.pos_ball is not None or A.neg_ball is not None):
                raise InternalCheckError("tropical set algebra needs symmetric tails: %s" % A)
            if A.pos_ball is not None:
                parts.append(("ball", A.pos_ball))
        else:
            if A.pos_ball is not None:
                parts.append(("pball", A.pos_ball))
            if A.neg_ball is not None:
                parts.append(("nball", A.neg_ball))
        return parts

    def _part_add(self, p: tuple, q: tuple) -> STSet:
        if p[0] == "zero" and q[0] == "zero":
            return make_stset(has_zero=True)
        if p[0] == "zero":
            return self._part_as_set(q)
        if q[0] == "zero":
            return self._part_as_set(p)
        if p[0] == "elem" and q[0] == "elem":
            return self.add(p[1], q[1])
        if self.kind == "tropical":
            return self._part_add_tropical(p, q)
        return self._part_add_punits(p, q)

    def _part_as_set(self, p: tuple) -> STSet:
        if p[0] == "zero":
            return make_stset(has_zero=True)
        if p[0] == "elem":
            return st_singleton(p[1])
        if p[0] == "ball":
            return make_stset(pos_ball=p[1], neg_ball=p[1])
        if p[0] == "pball":
            return make_stset(pos_ball=p[1])
        return make_stset(neg_ball=p[1])

    def _part_add_tropical(self, p: tuple, q: tuple) -> STSet:
        if p[0] == "ball" and q[0] == "ball":
            return st_ball(min(p[1], q[1]))
        if q[0] == "elem":
            p, q = q, p
        # now p = elem, q = ball
        e, c = p[1], q[1]
        if e.gamma < c:
            return st_singleton(e)
        return st_ball(c)

    def _part_add_punits(self, p: tuple, q: tuple) -> STSet:
        order = {"elem": 0, "pball": 1, "nball": 2}
        if order[p[0]] > order[q[0]]:
            p, q = q, p
        if p[0] == "elem":
            e, c = p[1], q[1]
            if q[0] == "pball":
                if e.gamma < c:
                    if e.sign > 0:
                        return st_singleton(e)
                    return make_stset((STElem(1, e.gamma), STElem(-1, e.gamma)))
                if e.sign > 0:
                    return make_stset(pos_ball=c)
                return st_ball(c)
            # nball: mirror image
            if e.gamma < c:
                if e.sign < 0:
                    return st_singleton(e)
                return make_stset((STElem(1, e.gamma), STElem(-1, e.gamma)))
            if e.sign < 0:
                return make_stset(neg_ball=c)
            return st_ball(c)
        a, b = p[1], q[1]
        if p[0] == "pball" and q[0] == "pball":
            return make_stset(pos_ball=min(a, b))
        if p[0] == "nball" and q[0] == "nball":
            return make_stset(neg_ball=min(a, b))
        return st_ball(min(a, b))

    def set_add(self, A: STSet, B: STSet) -> STSet:
        if A.is_empty() or B.is_empty():
            return make_stset()
        key = (A, B)
        hit = self._setadd_cache.get(key)
        if hit is not None:
            return hit
        qs = self._parts(B)
        out = st_union([self._part_add(p, q) for p in self._parts(A) for q in qs])
        self._setadd_cache[key] = out
        self._setadd_cache[(B, A)] = out
        return out

    def set_mul(self, A: STSet, B: STSet) -> STSet:
        if A.is_empty() or B.is_empty():
            return make_stset()
        key = (A, B)
        hit = self._setmul_cache.get(key)
        if hit is not None:
            return hit
        hb = self._mul_halves(B)
        parts = [self._half_mul(pa, pb) for pa in self._mul_halves(A) for pb in hb]
        if A.has_zero or B.has_zero:
            parts.append(st_singleton(ST_ZERO))
        out = st_union(parts)
        self._setmul_cache[key] = out
        self._setmul_cache[(B, A)] = out
        return out

    def _mul_halves(self, A: STSet) -> list[tuple]:
        parts: list[tuple] = [("elem", e) for e in sorted(A.finite, key=STElem.sort_key)]
        if A.pos_ball is not None:
            parts.append(("pball", A.pos_ball))
        if A.neg_ball is not None:
            parts.append(("nball", A.neg_ball))
        return parts

    def _half_mul(self, p: tuple, q: tuple) -> STSet:
        if p[0] == "elem" and q[0] == "elem":
            return st_singleton(st_mul(p[1], q[1]))
        if p[0] == "elem" or q[0] == "elem":
            if q[0] == "elem":
                p, q = q, p
            e, (kind, c) = p[1], (q[0], q[1])
            thr = gadd(e.gamma, c)
            tail_sign = (1 if kind == "pball" else -1) * e.sign
            if tail_sign > 0:
                return make_stset(pos_ball=thr)
            return make_stset(neg_ball=thr)
        sign = (1 if p[0] == "pball" else -1) * (1 if q[0] == "pball" else -1)
        thr = gadd(p[1], q[1])
        if sign > 0:
            return make_stset(pos_ball=thr)
        return make_stset(neg_ball=thr)

    # ---- windows ----

    def window_gammas(self, B: int) -> list[Gamma]:
        return sorted(product(range(-B, B + 1), repeat=self.k))

    def window_elements(self, B: int, include_zero: bool = False) -> list[STElem]:
        out = [STElem(s, g) for g in self.window_gammas(B) for s in (1, -1)]
        out.sort(key=STElem.sort_key)
        if include_zero:
            out.insert(0, ST_ZERO)
        return out

    # ---- named subsets ----

    def valuation_ring(self) -> STSet:
        """O = {v >= 0} + {0} for the value projection itself."""
        z = gzero(self.k)
        return make_stset(pos_ball=z, neg_ball=z, has_zero=True)

    def valuation_ideal(self) -> STSet:
        """M = {v > 0} + {0}."""
        e = gunit_last(self.k)
        return make_stset(pos_ball=e, neg_ball=e, has_zero=True)


def signed_tropical(k: int = 1) -> SignedValueHyperfield:
    """The signed tropical hyperfield with value group Z^k, lex ordered."""
    return SignedValueHyperfield("tropical", k=k)


def q_punits_hyperfield(p: int = 2) -> SignedValueHyperfield:
    """Factor of Q by the positive p-adic units: classes are (sign, v_p)."""
    return SignedValueHyperfield("punits", k=1, p=p)


# ---------------------------------------------------------------------------
# axiom checking over a window


def st_axiom_check(H: SignedValueHyperfield, B: int = 4, max_witnesses: int = 10):
    """Hypergroup, hyperring and hyperfield axioms with values boxed in [-B, B].

    Pair and triple quantifiers run over the window; each individual identity
    is still decided exactly on the tail-aware set representation.

    Sets are interned, so two results agree exactly when they are the same
    object.  The loops read rows, sums and products from H's caches and from
    local tables; only a value computed for the first time costs a call, so
    on a structure that has been checked before no loop makes a call per
    triple.
    """
    rep = ViolationReport(H.name, max_per_axiom=max_witnesses)
    elems = H.window_elements(B, include_zero=True)
    nonzero = [e for e in elems if e.sign]
    n = len(elems)
    sing = {e: st_singleton(e) for e in elems}
    # a miss reads None; a set is never falsy, so `cached(key) or compute`
    cached_add = H._row_cache.get
    cached_set_add = H._setadd_cache.get
    cached_set_mul = H._setmul_cache.get

    # commutativity first, computing each orientation independently; rows
    # then holds the orientation met first for both, as later loops use it
    rows: dict = {}
    for i, x in enumerate(elems):
        for y in elems[i:]:
            rxy = cached_add((x, y)) or H.add(x, y)
            if rxy is not (cached_add((y, x)) or H.add(y, x)):
                rep.record("H2", (str(x), str(y)), "sum not commutative")
            rows[x, y] = rows[y, x] = rxy

    # with commutativity settled, associativity for a triple reduces to the
    # three bracketings (ab)c, (bc)a, (ac)b agreeing, so sorted triples suffice
    for i in range(n):
        x = elems[i]
        sx = sing[x]
        for j in range(i, n):
            y = elems[j]
            sy = sing[y]
            rxy = rows[x, y]
            for z in elems[j:]:
                sz = sing[z]
                t1 = cached_set_add((rxy, sz)) or H.set_add(rxy, sz)
                ryz = rows[y, z]
                if t1 is (cached_set_add((ryz, sx)) or H.set_add(ryz, sx)):
                    rxz = rows[x, z]
                    if t1 is (cached_set_add((rxz, sy)) or H.set_add(rxz, sy)):
                        continue
                rep.record("H1", (str(x), str(y), str(z)), "set sum not associative")

    canon = {(e.sign, e.gamma): e for e in elems}
    nmap = {e: canon[(-e.sign, e.gamma)] if e.sign else e for e in elems}

    for x in elems:
        negs = [y for y in elems if rows[x, y].has_zero]
        expected = nmap[x]
        if expected not in negs:
            rep.record("H3", (str(x),), "0 not in x + (-x)")
        for y in negs:
            if y is not expected:
                rep.record("H3-unique", (str(x), str(y)), "second negative in window")

    samples_of: dict = {}
    for x in elems:
        snx = sing[nmap[x]]
        for y in elems:
            S = rows[x, y]
            samples = samples_of.get(S)
            if samples is None:
                samples = samples_of[S] = S.sample_members()
            for z in samples:
                sz = sing.get(z)
                if sz is None:
                    sz = sing[z] = st_singleton(z)
                back = cached_set_add((sz, snx)) or H.set_add(sz, snx)
                if not back.contains(y):
                    rep.record("H4", (str(x), str(y), str(z)), "reversibility fails")

    mulc = {(x, y): st_mul(x, y) for x in elems for y in elems}
    for x in nonzero:
        for y in nonzero:
            if not mulc[x, y].sign:
                rep.record("F-closure", (str(x), str(y)), "zero divisor")

    for i in range(n):
        x = elems[i]
        for y in elems[i:]:
            rxy = rows[x, y]
            for z in elems:
                sz = sing[z]
                lhs = cached_set_mul((sz, rxy)) or H.set_mul(sz, rxy)
                zx = mulc[z, x]
                zy = mulc[z, y]
                rhs = rows.get((zx, zy))
                if rhs is None:
                    rhs = rows[zx, zy] = rows[zy, zx] = cached_add((zx, zy)) or H.add(zx, zy)
                if lhs is not rhs:
                    rep.record("R3", (str(z), str(x), str(y)), "distributivity fails")

    for x in nonzero:
        if st_mul(x, x.inv()) is not H.one:
            rep.record("F-inverse", (str(x),), "inverse fails")
        if st_mul(H.one, x) is not x:
            rep.record("R2-unity", (str(x),), "unity fails")
    return rep


# ---------------------------------------------------------------------------
# orderings via characters of the value group


@dataclass(frozen=True)
class SymOrdering:
    """Membership: (s, g) is positive iff s equals the character value at g."""

    images: tuple[int, ...]  # character on the k lex generators, values +1/-1

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.images):
            raise DomainError("character images must be +-1")

    @property
    def k(self) -> int:
        return len(self.images)

    def chi(self, gamma: Gamma) -> int:
        v = 1
        for im, g in zip(self.images, gamma):
            if g % 2:
                v *= im
        return v

    def is_trivial(self) -> bool:
        return all(im == 1 for im in self.images)

    def contains(self, e: STElem) -> bool:
        if e.sign == 0:
            return False
        return e.sign == self.chi(e.gamma)

    def contains_set(self, S: STSet) -> bool:
        if S.has_zero:
            return False
        if S.neg_ball is not None:
            return False  # any tail holds even values, and (-,even) is never positive
        if S.pos_ball is not None and not self.is_trivial():
            return False
        return all(self.contains(e) for e in S.finite)

    def meets_set(self, S: STSet) -> bool:
        for e in S.finite:
            if self.contains(e):
                return True
        if S.pos_ball is not None:
            return True  # some far even value is positive under any character
        if S.neg_ball is not None and not self.is_trivial():
            return True
        return False

    def label(self, name: str = "P") -> str:
        """P(+-...) names the cone; label("chi") names its character."""
        return name + "(" + "".join("+" if im > 0 else "-" for im in self.images) + ")"


def sym_ordering_case_analysis(H: SignedValueHyperfield, P: SymOrdering) -> tuple[bool, tuple | None]:
    """Row-shape argument deciding whether P is closed under hyperaddition.

    Tropical rows keep one of the summand values, so membership is inherited
    and every character works.  The punits rows spray both signs at the
    minimal value whenever the signs disagree, which kills every nontrivial
    character: the witness pair is returned.
    """
    if H.kind == "tropical":
        # result value of any row is min(g1, g2) or a ball from an
        # opposite-equal pair, and the latter never has both members in P
        return True, None
    if P.is_trivial():
        return True, None
    # the character is odd on the generator, so (+,0) and (chi(1),1) are both
    # positive while their sum sprays both signs at value 0
    g = (1,)
    x = STElem(1, gzero(1))
    y = STElem(P.chi(g), g)
    bad = H.add(x, y)
    assert P.contains(x) and P.contains(y) and not P.contains_set(bad)
    return False, (x, y)


def sym_is_ordering(H: SignedValueHyperfield, P: SymOrdering, B: int = 6) -> bool:
    """Window closure check and row-shape analysis; the two must agree."""
    if P.k != H.k:
        raise DomainError("character rank disagrees with structure")
    window = H.window_elements(B)
    ok = True
    witness = None
    for x in window:
        if not P.contains(x):
            continue
        for y in window:
            if not P.contains(y):
                continue
            if not P.contains_set(H.add(x, y)):
                ok = False
                witness = (x, y)
                break
            if not P.contains(st_mul(x, y)):
                ok = False
                witness = (x, y)
                break
        if not ok:
            break
    by_cases, case_witness = sym_ordering_case_analysis(H, P)
    if by_cases != ok:
        raise InternalCheckError(
            "ordering verdicts disagree for %s on %s: window=%s cases=%s (witness %s/%s)"
            % (P.label(), H.name, ok, by_cases, witness, case_witness))
    return ok


def sym_orderings(H: SignedValueHyperfield, B: int = 6) -> list[SymOrdering]:
    """All orderings.  Any ordering assigns one sign per value, and closure
    under multiplication forces that assignment to be a character, so the 2^k
    characters exhaust the candidates."""
    out = []
    for images in product((1, -1), repeat=H.k):
        P = SymOrdering(images)
        if sym_is_ordering(H, P, B):
            out.append(P)
    return out


# ---------------------------------------------------------------------------
# iterated sums of 1, archimedean machinery


def sym_in_sequence(H: SignedValueHyperfield, limit: int = 64):
    """Distinct values of 1, 1+1, 1+1+1, ... with the cycle located."""
    one = st_singleton(H.one)
    seen: list[STSet] = [one]
    current = one
    for _ in range(limit):
        current = H.set_add(current, one)
        if current in seen:
            return seen, seen.index(current), len(seen) - seen.index(current)
        seen.append(current)
    raise InternalCheckError("iterated unit sums did not cycle within %d steps" % limit)


def sym_natural_ring_member(H: SignedValueHyperfield, P: SymOrdering, a: STElem) -> bool:
    """Does some iterated unit sum land in P both after adding and subtracting a?"""
    sets, _, _ = sym_in_sequence(H)
    sa = st_singleton(a)
    sna = st_singleton(a.neg()) if not a.is_zero() else sa
    for S in sets:
        if P.meets_set(H.set_add(S, sa)) and P.meets_set(H.set_add(S, sna)):
            return True
    return False


def sym_natural_ideal_member(H: SignedValueHyperfield, P: SymOrdering, a: STElem) -> bool:
    """Is 1 +- (unit sum) * a inside P for every iterated unit sum?"""
    sets, _, _ = sym_in_sequence(H)
    one = st_singleton(H.one)
    sa = st_singleton(a)
    for S in sets:
        prod = H.set_mul(S, sa)
        if not P.contains_set(H.set_add(one, prod)):
            return False
        if not P.contains_set(H.set_add(one, prod.negated())):
            return False
    return True


def _assemble_subset(H: SignedValueHyperfield, member, B: int = 4):
    """Fit the membership oracle to one of the four closed shapes."""
    candidates = [
        ("all", ALL),
        ("ring", H.valuation_ring()),
        ("ideal", H.valuation_ideal()),
        ("zero", make_stset(has_zero=True)),
    ]
    probe = H.window_elements(B, include_zero=True)
    answers = {e: member(e) for e in probe}
    for name, cand in candidates:
        if all(cand.contains(e) == answers[e] for e in probe):
            return cand
    raise InternalCheckError("membership pattern matches no known closed shape on %s" % H.name)


def sym_natural_ring(H: SignedValueHyperfield, P: SymOrdering, B: int = 4):
    """The finiteness ring of P, from the definition, fitted to a closed shape."""
    shape = _assemble_subset(H, lambda e: sym_natural_ring_member(H, P, e), B)
    expected = ALL if H.kind == "punits" else H.valuation_ring()
    if shape is not expected:
        raise InternalCheckError("finiteness ring disagrees with the derived shape on %s" % H.name)
    return shape


def sym_natural_ideal(H: SignedValueHyperfield, P: SymOrdering, B: int = 4):
    """The infinitesimal ideal of P, from the definition, fitted to a closed shape."""
    shape = _assemble_subset(H, lambda e: sym_natural_ideal_member(H, P, e), B)
    expected = make_stset(has_zero=True) if H.kind == "punits" else H.valuation_ideal()
    if shape is not expected:
        raise InternalCheckError("infinitesimal ideal disagrees with the derived shape on %s" % H.name)
    return shape


# ---------------------------------------------------------------------------
# valuations


@dataclass(frozen=True)
class SymValuation:
    """Lex projection onto the first `prefix` coordinates of the value."""

    prefix: int
    neg_shift: int = 0  # test hook: shift values of negative elements

    def value(self, e: STElem) -> Gamma:
        if e.sign == 0:
            raise DomainError("valuation undefined at zero")
        v = e.gamma[: self.prefix]
        if self.neg_shift and e.sign < 0 and self.prefix:
            v = v[:-1] + (v[-1] + self.neg_shift,)
        return v

    def label(self) -> str:
        if self.prefix == 0:
            return "trivial"
        return "v[rank %d]" % self.prefix


def canonical_valuation(H: SignedValueHyperfield) -> SymValuation:
    return SymValuation(prefix=H.k)


def trivial_valuation() -> SymValuation:
    return SymValuation(prefix=0)


def sym_is_valuation(H: SignedValueHyperfield, v: SymValuation, B: int = 4, max_witnesses: int = 10):
    """Multiplicativity and the ultrametric bound, witnessed over a window."""
    rep = ViolationReport("%s with %s" % (H.name, v.label()), max_per_axiom=max_witnesses)
    window = H.window_elements(B)
    for x in window:
        for y in window:
            if v.value(st_mul(x, y)) != gadd(v.value(x), v.value(y)):
                rep.record("V2", (str(x), str(y)), "value not additive on a product")
    zk = v.value(H.one)
    if zk != (0,) * v.prefix:
        rep.record("V2", ("1",), "value of 1 not zero")
    for x in window:
        for y in window:
            m = min(v.value(x), v.value(y))
            S = H.add(x, y)
            if not _set_values_at_least(S, v, m):
                rep.record("V3", (str(x), str(y)), "sum member below min value")
            if v.value(x) != v.value(y) and not _set_values_exactly(S, v, m):
                rep.record("V3-sharp", (str(x), str(y)), "distinct values but sum not pinned at min")
    for x in window:
        if v.value(x.neg()) != v.value(x):
            rep.record("V-neg", (str(x),), "value changed by negation")
        if v.value(x.inv()) != gneg(v.value(x)):
            rep.record("V-inv", (str(x),), "value of inverse not negated")
    return rep


def _set_values_at_least(S: STSet, v: SymValuation, m: Gamma) -> bool:
    for e in S.finite:
        if v.value(e) < m:
            return False
    for thr in (S.pos_ball, S.neg_ball):
        if thr is not None and thr[: v.prefix] < m:
            return False
    return True


def _set_values_exactly(S: STSet, v: SymValuation, m: Gamma) -> bool:
    if S.has_zero:
        return False
    for e in S.finite:
        if v.value(e) != m:
            return False
    # a tail contains arbitrarily large values; exactness needs them projected away
    for thr in (S.pos_ball, S.neg_ball):
        if thr is not None and (v.prefix > 0):
            return False
    return True


def sym_ring_of(H: SignedValueHyperfield, v: SymValuation):
    """{x : v(x) >= 0} plus zero."""
    if v.prefix == 0:
        return ALL
    if v.prefix == H.k:
        return H.valuation_ring()
    raise DomainError("only the trivial and full-rank projections are materialised")


def sym_ideal_of(H: SignedValueHyperfield, v: SymValuation):
    if v.prefix == 0:
        return make_stset(has_zero=True)
    if v.prefix == H.k:
        return H.valuation_ideal()
    raise DomainError("only the trivial and full-rank projections are materialised")


# ---------------------------------------------------------------------------
# residue structure of the canonical valuation ring


@dataclass
class SymResidue:
    structure: FiniteHyperstructure
    class_names: tuple[str, ...]
    reps: tuple[STElem, ...]
    _H: SignedValueHyperfield
    _M: STSet

    def class_of(self, e: STElem) -> int:
        if e.is_zero() or self._M.contains(e):
            return 0
        if e.gamma == gzero(self._H.k):
            for i, r in enumerate(self.reps):
                if i == 0:
                    continue
                if self._equiv(e, r):
                    return i
        raise DomainError("element %s is not in the valuation ring" % e)

    def _equiv(self, x: STElem, y: STElem) -> bool:
        return self._H.set_add(st_singleton(x), st_singleton(y.neg())).intersects(self._M)

    def class_set_of(self, S: STSet) -> frozenset[int]:
        out = set()
        if S.has_zero:
            out.add(0)
        for e in S.finite:
            out.add(self.class_of(e))
        z = gzero(self._H.k)
        for sign, thr in ((1, S.pos_ball), (-1, S.neg_ball)):
            if thr is None:
                continue
            if thr < z:
                raise DomainError("tail reaches below the valuation ring")
            out.add(0)  # every strictly positive value is infinitesimal
            if thr <= z:
                out.add(self.class_of(STElem(sign, z)))
        return frozenset(out)


def sym_residue(H: SignedValueHyperfield) -> SymResidue:
    """Classes of the canonical valuation ring modulo its maximal ideal.

    Representatives are the value-zero elements; two are identified when
    their difference meets the ideal.  The resulting table is finite.
    """
    M = H.valuation_ideal()
    z = gzero(H.k)
    units = [STElem(1, z), STElem(-1, z)]

    def equiv(x, y):
        return H.set_add(st_singleton(x), st_singleton(y.neg())).intersects(M)

    classes: list[list[STElem]] = []
    for u in units:
        for cls in classes:
            if equiv(u, cls[0]):
                cls.append(u)
                break
        else:
            classes.append([u])
    reps = [ST_ZERO] + [cls[0] for cls in classes]
    names = ["[0]"] + ["[%s]" % ("1" if cls[0].sign > 0 else "-1") for cls in classes]
    res = SymResidue(None, tuple(names), tuple(reps), H, M)  # type: ignore[arg-type]

    n = len(reps)
    add_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            xi = reps[i]
            yj = reps[j]
            S = H.set_add(st_singleton(xi), st_singleton(yj))
            cell = res.class_set_of(S)
            # representative independence: classes may have several members
            for alt in ([xi] if i == 0 else classes[i - 1]):
                for alt2 in ([yj] if j == 0 else classes[j - 1]):
                    S2 = H.set_add(st_singleton(alt), st_singleton(alt2))
                    if res.class_set_of(S2) != cell:
                        raise InternalCheckError("residue sum depends on representatives")
            row.append(cell)
        add_rows.append(tuple(row))

    def cls_of(e: STElem) -> int:
        if e.is_zero():
            return 0
        for i, cls in enumerate(classes):
            if any(m == e for m in cls) or equiv(e, cls[0]):
                return i + 1
        return 0

    mul_rows = tuple(
        tuple(cls_of(st_mul(reps[i], reps[j])) if i and j else 0 for j in range(n))
        for i in range(n)
    )
    neg_row = tuple(cls_of(reps[i].neg()) if i else 0 for i in range(n))
    one_idx = cls_of(H.one)
    structure = FiniteHyperstructure(
        name="res(%s)" % H.name,
        labels=tuple(names),
        zero=0,
        one=one_idx,
        neg_table=neg_row,
        mul_table=mul_rows,
        add_table=tuple(add_rows),
    )
    res.structure = structure
    return res


# ---------------------------------------------------------------------------
# demonstrations used by tests and the CLI


@dataclass(frozen=True)
class NonSingletonSumDemo:
    x: STElem
    y: STElem
    result: STSet
    sample: tuple[str, ...]


def st_nonsingleton_sum_demo(k: int = 1) -> NonSingletonSumDemo:
    """1 + (-1) blurs into a full tail: addition is genuinely multivalued."""
    H = signed_tropical(k)
    x = H.one
    y = H.one.neg()
    S = H.add(x, y)
    sample = tuple(str(e) for e in S.sample_members())
    return NonSingletonSumDemo(x, y, S, sample)


@dataclass(frozen=True)
class NonStrictSubringDemo:
    structure: FiniteHyperstructure
    strict: bool
    witness: STElem
    witness_cell: str


def st_nonstrict_subhyperring_demo(k: int = 1) -> NonStrictSubringDemo:
    """The copy of the sign structure inside the signed tropical hyperfield.

    With the intersected addition it is a hyperring (indeed a hyperfield),
    but 1 + (-1) overflows the subset, so the inclusion is not strict.
    """
    H = signed_tropical(k)
    z = gzero(k)
    S = [ST_ZERO, STElem(1, z), STElem(-1, z)]
    labels = ("0", "1", "-1")
    pos = {e: i for i, e in enumerate(S)}

    def cell(a, b):
        full = H.set_add(st_singleton(a), st_singleton(b))
        return frozenset(pos[e] for e in S if full.contains(e))

    add_rows = tuple(tuple(cell(a, b) for b in S) for a in S)
    mul_rows = tuple(tuple(pos[st_mul(a, b)] if not (a.is_zero() or b.is_zero()) else 0 for b in S) for a in S)
    neg_row = tuple(pos[e.neg()] for e in S)
    sub = FiniteHyperstructure(
        name="sign-in-%s" % H.name,
        labels=labels, zero=0, one=1,
        neg_table=neg_row, mul_table=mul_rows, add_table=add_rows,
    )
    overflow = H.add(STElem(1, z), STElem(-1, z))
    witness = STElem(1, gunit_last(k))
    assert overflow.contains(witness)
    strict = all(
        all(overflow_member in S for overflow_member in H.set_add(st_singleton(a), st_singleton(b.neg())).sample_members())
        for a in S for b in S
    )
    return NonStrictSubringDemo(sub, strict, witness, str(overflow))
