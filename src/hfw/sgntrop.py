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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .hypercore import DomainError, FiniteHyperstructure, InternalCheckError, ViolationReport

Gamma = tuple[int, ...]


def gzero(k: int) -> Gamma:
    return (0,) * k


def gadd(a: Gamma, b: Gamma) -> Gamma:
    return tuple(x + y for x, y in zip(a, b))


def gneg(a: Gamma) -> Gamma:
    return tuple(-x for x in a)


def gunit_last(k: int) -> Gamma:
    # smallest strictly positive value in Z^k under lex order
    return (0,) * (k - 1) + (1,)


@dataclass(frozen=True, eq=False)
class STElem:
    """Zero (sign 0) or a signed value (sign +1/-1, value in Z^k)."""

    sign: int
    gamma: Gamma | None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, STElem):
            return NotImplemented
        return self.sign == other.sign and self.gamma == other.gamma

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.sign, self.gamma))
            object.__setattr__(self, "_hash", h)
        return h

    def is_zero(self) -> bool:
        return self.sign == 0

    def neg(self) -> STElem:
        if self.is_zero():
            return self
        return STElem(-self.sign, self.gamma)

    def inv(self) -> STElem:
        if self.is_zero():
            raise DomainError("zero has no inverse")
        return STElem(self.sign, gneg(self.gamma))

    def sort_key(self):
        if self.is_zero():
            return (0, (), 0)
        return (1, self.gamma, -self.sign)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        g = self.gamma[0] if len(self.gamma) == 1 else self.gamma
        return "(%s,%s)" % ("+" if self.sign > 0 else "-", g)


ST_ZERO = STElem(0, None)


def st(sign: int, *gamma: int) -> STElem:
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    return STElem(sign, tuple(gamma))


def st_mul(x: STElem, y: STElem) -> STElem:
    if x.is_zero() or y.is_zero():
        return ST_ZERO
    if len(x.gamma) != len(y.gamma):
        raise DomainError("mixed ranks")
    return STElem(x.sign * y.sign, gadd(x.gamma, y.gamma))


@dataclass(frozen=True, eq=False)
class STSet:
    """finite members + optional per-sign upward tails + zero flag."""

    finite: frozenset[STElem]
    pos_ball: Gamma | None
    neg_ball: Gamma | None
    has_zero: bool

    def _key(self):
        return (self.finite, self.pos_ball, self.neg_ball, self.has_zero)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, STSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def is_empty(self) -> bool:
        return not self.finite and self.pos_ball is None and self.neg_ball is None and not self.has_zero

    def contains(self, e: STElem) -> bool:
        if e.is_zero():
            return self.has_zero
        if e in self.finite:
            return True
        if e.sign > 0 and self.pos_ball is not None and e.gamma >= self.pos_ball:
            return True
        if e.sign < 0 and self.neg_ball is not None and e.gamma >= self.neg_ball:
            return True
        return False

    __contains__ = contains

    def union(self, other: STSet) -> STSet:
        def merge(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        return make_stset(
            self.finite | other.finite,
            merge(self.pos_ball, other.pos_ball),
            merge(self.neg_ball, other.neg_ball),
            self.has_zero or other.has_zero,
        )

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
    structural equality coincide with set equality."""
    fin = set()
    for e in finite:
        if e.is_zero():
            has_zero = True
            continue
        fin.add((e.sign, e.gamma))
    balls = {1: pos_ball, -1: neg_ball}
    for sign in (1, -1):
        thr = balls[sign]
        if thr is None:
            continue
        changed = True
        while changed:
            changed = False
            below = _lex_pred(thr)
            if (sign, below) in fin:
                fin.discard((sign, below))
                thr = below
                changed = True
        balls[sign] = thr
        fin = {sg for sg in fin if not (sg[0] == sign and sg[1] >= thr)}
    members = frozenset(STElem(s, g) for s, g in fin)
    return STSet(members, balls[1], balls[-1], has_zero)


def st_singleton(e: STElem) -> STSet:
    if e.is_zero():
        return make_stset(has_zero=True)
    return make_stset((e,))


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
        if e.is_zero():
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
        self.check_elem(x)
        self.check_elem(y)
        key = (x, y)
        hit = self._row_cache.get(key)
        if hit is not None:
            return hit
        out = self._row(x, y)
        self._row_cache[key] = out
        return out

    def _row(self, x: STElem, y: STElem) -> STSet:
        if self.row_patch is not None:
            patched = self.row_patch(self, x, y)
            if patched is not None:
                return patched
        if x.is_zero():
            return st_singleton(y)
        if y.is_zero():
            return st_singleton(x)
        gx, gy = x.gamma, y.gamma
        if self.kind == "tropical":
            if x.sign == y.sign:
                return st_singleton(STElem(x.sign, min(gx, gy)))
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
        out = make_stset()
        for p in self._parts(A):
            for q in self._parts(B):
                out = out.union(self._part_add(p, q))
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
        out = make_stset()
        if A.has_zero or B.has_zero:
            out = out.union(make_stset(has_zero=True))
        for pa in self._mul_halves(A):
            for pb in self._mul_halves(B):
                out = out.union(self._half_mul(pa, pb))
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
    """
    rep = ViolationReport(H.name, max_per_axiom=max_witnesses)
    elems = H.window_elements(B, include_zero=True)
    nonzero = [e for e in elems if not e.is_zero()]
    n = len(elems)
    sing = {e: st_singleton(e) for e in elems}

    # commutativity first, computing each orientation independently
    for i, x in enumerate(elems):
        for y in elems[i:]:
            if H.add(x, y) != H.add(y, x):
                rep.record("H2", (str(x), str(y)), "sum not commutative")

    # with commutativity settled, associativity for a triple reduces to the
    # three bracketings (ab)c, (bc)a, (ac)b agreeing, so sorted triples suffice
    rows: dict = {}

    def rowf(a, b):
        r = rows.get((a, b))
        if r is None:
            r = H.add(a, b)
            rows[(a, b)] = r
            rows[(b, a)] = r
        return r

    sadd_memo: dict = {}

    def sadd(S, e):
        key = (S, e)
        r = sadd_memo.get(key)
        if r is None:
            r = H.set_add(S, sing[e])
            sadd_memo[key] = r
        return r

    for i in range(n):
        x = elems[i]
        for j in range(i, n):
            y = elems[j]
            rxy = rowf(x, y)
            for l in range(j, n):
                z = elems[l]
                t1 = sadd(rxy, z)
                t2 = sadd(rowf(y, z), x)
                if t1 != t2 or t1 != sadd(rowf(x, z), y):
                    rep.record("H1", (str(x), str(y), str(z)), "set sum not associative")

    canon = {(e.sign, e.gamma): e for e in elems}
    nmap = {e: canon[(-e.sign, e.gamma)] if not e.is_zero() else e for e in elems}

    for x in elems:
        negs = [y for y in elems if rowf(x, y).has_zero]
        expected = nmap[x]
        if expected not in negs:
            rep.record("H3", (str(x),), "0 not in x + (-x)")
        for y in negs:
            if y != expected:
                rep.record("H3-unique", (str(x), str(y)), "second negative in window")

    samp_memo: dict = {}
    back_memo: dict = {}
    for x in elems:
        nx = nmap[x]
        snx = sing[nx]
        for y in elems:
            S = rowf(x, y)
            samples = samp_memo.get(S)
            if samples is None:
                samples = S.sample_members()
                samp_memo[S] = samples
            for z in samples:
                key = (z, nx)
                back = back_memo.get(key)
                if back is None:
                    back = H.set_add(st_singleton(z), snx)
                    back_memo[key] = back
                if not back.contains(y):
                    rep.record("H4", (str(x), str(y), str(z)), "reversibility fails")

    mulc = {}
    for x in elems:
        for y in elems:
            mulc[(x, y)] = st_mul(x, y)
    for x in nonzero:
        for y in nonzero:
            if mulc[(x, y)].is_zero():
                rep.record("F-closure", (str(x), str(y)), "zero divisor")

    lhs_memo: dict = {}
    for i in range(n):
        x = elems[i]
        for j in range(i, n):
            y = elems[j]
            rxy = rowf(x, y)
            for z in elems:
                key = (z, rxy)
                lhs = lhs_memo.get(key)
                if lhs is None:
                    lhs = H.set_mul(sing[z], rxy)
                    lhs_memo[key] = lhs
                zx = mulc[(z, x)]
                zy = mulc[(z, y)]
                rhs = rows.get((zx, zy))
                if rhs is None:
                    rhs = H.add(zx, zy)
                    rows[(zx, zy)] = rhs
                    rows[(zy, zx)] = rhs
                if lhs != rhs:
                    rep.record("R3", (str(z), str(x), str(y)), "distributivity fails")

    for x in nonzero:
        if st_mul(x, x.inv()) != H.one:
            rep.record("F-inverse", (str(x),), "inverse fails")
        if st_mul(H.one, x) != x:
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
        if e.is_zero():
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


def _same_subset(a, b) -> bool:
    if a is ALL or b is ALL:
        return a is b
    return a == b


def sym_natural_ring(H: SignedValueHyperfield, P: SymOrdering, B: int = 4):
    """The finiteness ring of P, from the definition, fitted to a closed shape."""
    shape = _assemble_subset(H, lambda e: sym_natural_ring_member(H, P, e), B)
    expected = ALL if H.kind == "punits" else H.valuation_ring()
    if not _same_subset(shape, expected):
        raise InternalCheckError("finiteness ring disagrees with the derived shape on %s" % H.name)
    return shape


def sym_natural_ideal(H: SignedValueHyperfield, P: SymOrdering, B: int = 4):
    """The infinitesimal ideal of P, from the definition, fitted to a closed shape."""
    shape = _assemble_subset(H, lambda e: sym_natural_ideal_member(H, P, e), B)
    expected = make_stset(has_zero=True) if H.kind == "punits" else H.valuation_ideal()
    if shape != expected:
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
        if e.is_zero():
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
