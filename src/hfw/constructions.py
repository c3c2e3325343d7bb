"""Hyperstructures built from fields and from other hyperstructures.

The factor construction takes a field K and a multiplicative subgroup T and
puts a multivalued addition on the cosets: [x] + [y] = {[xt + yu] : t, u in T}.
Finite prime fields give finite tables; for K = Q three subgroups are
supported exactly (positives, nonzero squares, positive p-adic units), with
class arithmetic in closed form where possible and height-bounded search with
retained witnesses elsewhere.

Also here: quotients by hyperideals, the ideal lattice of a finite
hyperstructure, and a brute-force enumerator of hyperfields of small order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .hypercore import (
    DomainError,
    FiniteHyperstructure,
    HomomorphismSpec,
    InternalCheckError,
    check_canonical_hypergroup,
    check_homomorphism,
    check_hyperfield,
    check_hyperring,
    find_isomorphism,
    hset,
)

# ---------------------------------------------------------------------------
# finite prime fields and their factor hyperfields


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(2, n) if sieve[p])


# a sieve, as every import of hfw builds this table
_TRIAL_PRIMES = _primes_below(1000)
# Miller-Rabin on these bases is exact below 3.3 * 10**24 (Sorenson and
# Webster 2015); above that it is a strong probable-prime test
_WITNESS_BASES = _TRIAL_PRIMES[:13]


def _is_prime(n: int) -> bool:
    """Trial division by the primes below 1000, then Miller-Rabin."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1000 * 1000:
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _WITNESS_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_field_hyperfield(p: int) -> FiniteHyperstructure:
    """F_p viewed as a hyperfield: every sum is a singleton."""
    if not _is_prime(p) or p > 101:
        raise DomainError("p must be a prime <= 101")
    labels = tuple(str(i) for i in range(p))
    add = tuple(tuple(hset((i + j) % p) for j in range(p)) for i in range(p))
    mul = tuple(tuple((i * j) % p for j in range(p)) for i in range(p))
    neg = tuple((-i) % p for i in range(p))
    return FiniteHyperstructure(
        name="F_%d" % p, labels=labels, zero=0, one=1,
        neg_table=neg, mul_table=mul, add_table=add,
    )


def subgroup_closure(p: int, generators) -> frozenset[int]:
    """Multiplicative closure of the generators in F_p^x."""
    gens = {g % p for g in generators}
    if 0 in gens or not gens:
        raise DomainError("generators must be nonzero residues")
    out = {1}
    frontier = set(gens)
    while frontier:
        g = frontier.pop()
        if g in out:
            continue
        out.add(g)
        frontier.update((g * h) % p for h in out)
    return frozenset(out)


@dataclass(frozen=True)
class FactorHyperfield:
    structure: FiniteHyperstructure
    p: int
    subgroup: frozenset[int]
    coset_reps: tuple[int, ...]  # reps[i] generates the coset of class i; reps[0] = 0

    def class_of(self, a: int) -> int:
        a %= self.p
        if a == 0:
            return 0
        for i, r in enumerate(self.coset_reps):
            if i and (a * pow(r, -1, self.p)) % self.p in self.subgroup:
                return i
        raise InternalCheckError("cosets do not cover %d mod %d" % (a, self.p))


def factor_subgroup(p: int, generators) -> frozenset[int]:
    """The subgroup T of F_p^x that factor_hyperfield(p, generators) divides by."""
    if p > 101 or not _is_prime(p):
        raise DomainError("p must be a prime <= 101")
    return subgroup_closure(p, generators)


def factor_hyperfield(p: int, generators) -> FactorHyperfield:
    """Krasner's construction for K = F_p and T generated by the given set."""
    T = factor_subgroup(p, generators)
    cosets = []
    seen: set[int] = set()
    for a in range(1, p):
        if a in seen:
            continue
        coset = frozenset((a * t) % p for t in T)
        seen |= coset
        cosets.append((a, coset))
    reps = (0,) + tuple(a for a, _ in cosets)
    index_of = {0: 0}
    for i, (_, coset) in enumerate(cosets, start=1):
        for member in coset:
            index_of[member] = i
    n = len(reps)
    labels = tuple("[%d]" % r for r in reps)
    add = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == 0:
                row.append(hset(j))
                continue
            if j == 0:
                row.append(hset(i))
                continue
            cell = {index_of[(reps[i] * t + reps[j] * u) % p] for t in T for u in T}
            row.append(frozenset(cell))
        add.append(tuple(row))
    mul = tuple(
        tuple(index_of[(reps[i] * reps[j]) % p] if i and j else 0 for j in range(n))
        for i in range(n)
    )
    neg = tuple(index_of[(p - reps[i]) % p] for i in range(n))
    structure = FiniteHyperstructure(
        name="F_%d/T%s" % (p, "{%s}" % ",".join(str(t) for t in sorted(T))),
        labels=labels, zero=0, one=index_of[1],
        neg_table=neg, mul_table=mul, add_table=tuple(add),
    )
    report = check_hyperfield(structure)
    if not report.ok:
        raise InternalCheckError("factor construction violated axioms: %s" % report.summary())
    return FactorHyperfield(structure, p, T, reps)


def fp_squares(p: int) -> FactorHyperfield:
    """F_p factored by its nonzero squares."""
    squares = ((a * a) % p for a in range(1, p))  # consumed once p has been checked
    out = factor_hyperfield(p, squares)
    renamed = dataclasses.replace(out.structure, name="F_%d/sq" % p)
    return FactorHyperfield(renamed, out.p, out.subgroup, out.coset_reps)


def sign_hyperfield() -> FiniteHyperstructure:
    """Classes of Q by the positive rationals: {0, 1, -1}."""
    labels = ("0", "1", "-1")
    add = (
        (hset(0), hset(1), hset(2)),
        (hset(1), hset(1), hset(0, 1, 2)),
        (hset(2), hset(0, 1, 2), hset(2)),
    )
    mul = ((0, 0, 0), (0, 1, 2), (0, 2, 1))
    return FiniteHyperstructure(
        name="sign", labels=labels, zero=0, one=1,
        neg_table=(0, 2, 1), mul_table=mul, add_table=add,
    )


def krasner_hyperfield() -> FiniteHyperstructure:
    """The two-element hyperfield with 1+1 = {0,1}."""
    return FiniteHyperstructure(
        name="krasner", labels=("0", "1"), zero=0, one=1,
        neg_table=(0, 1), mul_table=((0, 0), (0, 1)),
        add_table=((hset(0), hset(1)), (hset(1), hset(0, 1))),
    )


def field_f2() -> FiniteHyperstructure:
    return FiniteHyperstructure(
        name="F_2", labels=("0", "1"), zero=0, one=1,
        neg_table=(0, 1), mul_table=((0, 0), (0, 1)),
        add_table=((hset(0), hset(1)), (hset(1), hset(0))),
    )


# ---------------------------------------------------------------------------
# factors of Q: positives, squares, positive p-adic units


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n that is not a perfect square
    (Brent's variant of Pollard's rho)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise InternalCheckError("no rho factor of %d" % n)


def _rough_squarefree_part(n: int) -> int:
    """squarefree_part of n > 0 with no prime factor below 1000."""
    if n == 1 or _is_prime(n):
        return n
    r = math.isqrt(n)
    if r * r == n:
        return 1
    d = _rho_factor(n)
    a, b = _rough_squarefree_part(d), _rough_squarefree_part(n // d)
    g = math.gcd(a, b)
    return a // g * (b // g)


def squarefree_part(n: int) -> int:
    """The squarefree integer in the class of n modulo rational squares.

    Trial division by the primes below 1000, then Miller-Rabin and Pollard's
    rho on what is left."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            if e & 1:
                out *= p
    else:
        n = _rough_squarefree_part(n)
    return sign * out * n


def padic_valuation(a: Fraction, p: int) -> int:
    if a == 0:
        raise DomainError("zero has no p-adic value")
    v = 0
    n, d = a.numerator, a.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


@dataclass(frozen=True)
class QSubgroup:
    """One of the three supported multiplicative subgroups of Q^x."""

    kind: str  # "positives" | "squares" | "punits"
    p: int = 2

    def __post_init__(self):
        if self.kind not in ("positives", "squares", "punits"):
            raise DomainError("unknown subgroup kind %r" % self.kind)
        if self.kind == "punits" and not _is_prime(self.p):
            raise DomainError("p must be prime")

    def contains(self, a: Fraction) -> bool:
        if a <= 0:
            return False
        if self.kind == "positives":
            return True
        if self.kind == "punits":
            return padic_valuation(a, self.p) == 0
        # squares: a = (n/d) is a square iff n*d is a perfect square
        m = a.numerator * a.denominator
        r = math.isqrt(m)
        return r * r == m

    def label(self) -> str:
        if self.kind == "punits":
            return "positive-%d-units" % self.p
        return self.kind


@dataclass(frozen=True)
class QClass:
    """Canonical coset representative: 0, a sign, a squarefree integer, or
    a (sign, p-adic value) pair, depending on the subgroup."""

    kind: str
    rep: object

    def is_zero(self) -> bool:
        return self.rep == 0

    def sign(self) -> int:
        if self.is_zero():
            return 0
        if self.kind == "punits":
            return self.rep[0]
        return 1 if self.rep > 0 else -1

    def label(self) -> str:
        if self.is_zero():
            return "[0]"
        if self.kind == "positives":
            return "[+]" if self.rep > 0 else "[-]"
        if self.kind == "squares":
            return "[%d]" % self.rep
        s, v = self.rep
        return "(%s,%d)" % ("+" if s > 0 else "-", v)

    def sort_key(self):
        if self.is_zero():
            return (0, 0, 0)
        if self.kind == "punits":
            return (1, self.rep[1], -self.rep[0])
        return (1, abs(self.rep), -self.rep)


def q_zero_class(T: QSubgroup) -> QClass:
    return QClass(T.kind, 0)


def q_factor_class(a, T: QSubgroup) -> QClass:
    """The class of a rational number modulo T."""
    a = Fraction(a)
    if a == 0:
        return q_zero_class(T)
    if T.kind == "positives":
        return QClass(T.kind, 1 if a > 0 else -1)
    if T.kind == "squares":
        # numerator and denominator are coprime, so their parts multiply
        return QClass(T.kind, squarefree_part(a.numerator) * squarefree_part(a.denominator))
    return QClass(T.kind, (1 if a > 0 else -1, padic_valuation(a, T.p)))


def q_class_rep(c: QClass, T: QSubgroup) -> Fraction:
    """A rational number lying in the class."""
    if c.is_zero():
        return Fraction(0)
    if T.kind == "punits":
        s, v = c.rep
        return Fraction(s) * Fraction(T.p) ** v
    return Fraction(c.rep)


def q_class_mul(x: QClass, y: QClass, T: QSubgroup) -> QClass:
    if x.is_zero() or y.is_zero():
        return q_zero_class(T)
    if T.kind == "squares":  # x.rep, y.rep are squarefree
        g = math.gcd(x.rep, y.rep)
        return QClass(T.kind, x.rep // g * (y.rep // g))
    if T.kind == "positives":
        return QClass(T.kind, x.rep * y.rep)
    (s1, v1), (s2, v2) = x.rep, y.rep
    return QClass(T.kind, (s1 * s2, v1 + v2))


def q_class_neg(x: QClass, T: QSubgroup) -> QClass:
    if x.is_zero():
        return x
    if T.kind == "punits":
        s, v = x.rep
        return QClass(T.kind, (-s, v))
    return QClass(T.kind, -x.rep)


def q_class_inv(x: QClass, T: QSubgroup) -> QClass:
    if x.is_zero():
        raise DomainError("zero class has no inverse")
    if T.kind == "punits":
        s, v = x.rep
        return QClass(T.kind, (s, -v))
    return x  # signs and squarefree integers are their own inverses mod T


@dataclass(frozen=True)
class BoundedHSet:
    """A hypersum over Q classes: finitely many listed members, optional
    per-sign value tails (punits only), an exactness flag, and witnesses.

    If complete, the listed members (with tails and zero flag) are exactly
    the true result; otherwise they are a sound under-approximation, every
    member backed by an explicit (t, u) witness pair.
    """

    members: frozenset[QClass]
    complete: bool
    height_bound: int
    has_zero: bool = False
    pos_tail: int | None = None
    neg_tail: int | None = None
    rule: str | None = None
    witnesses: tuple = ()

    def contains(self, c: QClass) -> bool:
        if c.is_zero():
            return self.has_zero
        if c in self.members:
            return True
        if c.kind == "punits":
            s, v = c.rep
            if s > 0 and self.pos_tail is not None and v >= self.pos_tail:
                return True
            if s < 0 and self.neg_tail is not None and v >= self.neg_tail:
                return True
        if self.rule is not None:
            return _rule_membership(self.rule, c)
        return False

    def member_labels(self) -> tuple[str, ...]:
        out = []
        if self.has_zero:
            out.append("[0]")
        out.extend(m.label() for m in sorted(self.members, key=QClass.sort_key))
        if self.pos_tail is not None:
            out.append("(+,>=%d)" % self.pos_tail)
        if self.neg_tail is not None:
            out.append("(-,>=%d)" % self.neg_tail)
        return tuple(out)


def _rule_membership(rule: str, c: QClass) -> bool:
    if c.is_zero():
        return False
    if rule == "everything":
        return True
    if rule.startswith("scaled-two-squares:"):
        scale = int(rule.split(":", 1)[1])
        m = squarefree_part(scale * c.rep)
        return c.rep * scale > 0 and is_two_squares_class(m)
    raise DomainError("unknown membership rule %r" % rule)


# --- sums of squares certificates ---


def is_two_squares_class(m: int) -> bool:
    """Is the class of squarefree m > 0 a sum of two rational squares?
    Criterion: no prime congruent to 3 mod 4 divides m."""
    if m <= 0:
        return False
    m = squarefree_part(m)
    d = 2
    while d * d <= m:
        if m % d == 0:
            if d % 4 == 3:
                return False
            m //= d
        else:
            d += 1
    return m == 1 or m % 4 != 3


def is_three_squares_class(m: int) -> bool:
    """Squarefree m > 0 is a sum of three rational squares iff m != 7 mod 8."""
    if m <= 0:
        return False
    return squarefree_part(m) % 8 != 7


def two_squares_decomp(m: int):
    """Integer witness a^2 + b^2 = m, or None; independent of the criterion."""
    if m <= 0:
        return None
    for a in range(math.isqrt(m) + 1):
        b2 = m - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            return (a, b)
    return None


def three_squares_decomp(m: int):
    if m <= 0:
        return None
    for a in range(math.isqrt(m) + 1):
        rest = m - a * a
        pair = two_squares_decomp(rest) if rest > 0 else ((0, 0) if rest == 0 else None)
        if pair is not None:
            return (a,) + pair
    return None


def four_squares_decomp(m: int):
    """Always exists for m > 0."""
    if m <= 0:
        return None
    for a in range(math.isqrt(m) + 1):
        rest = m - a * a
        triple = three_squares_decomp(rest) if rest > 0 else ((0, 0, 0) if rest == 0 else None)
        if triple is not None:
            return (a,) + triple
    raise InternalCheckError("four-square decomposition missing for %d" % m)


def squares_sum_kind(c: QClass) -> int | None:
    """Smallest n with the class in the n-fold sum of units of Q/(squares),
    or None for nonpositive classes.  1, 2, 3 and 4 correspond to the chains
    of square-sum representability."""
    if c.kind != "squares" or c.is_zero():
        return None
    m = c.rep
    if m < 0:
        return None
    if m == 1:
        return 1
    if is_two_squares_class(m):
        return 2
    if is_three_squares_class(m):
        return 3
    return 4


# --- the sum tables ---


def q_factor_sum(x: QClass, y: QClass, T: QSubgroup, height_bound: int = 100) -> BoundedHSet:
    """[x] + [y] = {[xt + yu] : t, u in T}, exactly when a closed form or a
    certificate applies, else as a height-bounded sound under-approximation."""
    if height_bound < 1:
        raise DomainError("height bound must be >= 1")
    if x.kind != T.kind or y.kind != T.kind:
        raise DomainError("class/subgroup kind mismatch")
    if x.is_zero():
        return BoundedHSet(frozenset() if y.is_zero() else frozenset((y,)),
                           True, height_bound, has_zero=y.is_zero())
    if y.is_zero():
        return BoundedHSet(frozenset((x,)), True, height_bound)
    if T.kind == "positives":
        return _positives_sum(x, y, height_bound)
    if T.kind == "punits":
        return _punits_sum(x, y, T, height_bound)
    return _squares_sum(x, y, T, height_bound)


def _positives_sum(x: QClass, y: QClass, height_bound: int) -> BoundedHSet:
    pos = QClass("positives", 1)
    neg = QClass("positives", -1)
    if x == y:
        return BoundedHSet(frozenset((x,)), True, height_bound,
                           witnesses=((x.label(), "1", "1"),))
    # opposite signs: t - u attains every sign and zero
    return BoundedHSet(frozenset((pos, neg)), True, height_bound, has_zero=True,
                       witnesses=((pos.label(), "2", "1"), (neg.label(), "1", "2"),
                                  ("[0]", "1", "1")))


def _punits_sum(x: QClass, y: QClass, T: QSubgroup, height_bound: int) -> BoundedHSet:
    """Case analysis on the p-adic values; for p = 2 an equal-value sum of
    like signs strictly increases the value (odd + odd is even)."""
    p = T.p
    (s1, v1), (s2, v2) = x.rep, y.rep
    shift = 1 if p == 2 else 0
    if v1 != v2:
        m = min(v1, v2)
        lead = s1 if v1 < v2 else s2
        if s1 == s2:
            out = BoundedHSet(frozenset((QClass("punits", (s1, m)),)), True, height_bound)
        else:
            out = BoundedHSet(frozenset((QClass("punits", (1, m)), QClass("punits", (-1, m)))),
                              True, height_bound)
    elif s1 == s2:
        out = BoundedHSet(frozenset(), True, height_bound,
                          pos_tail=v1 + shift if s1 > 0 else None,
                          neg_tail=v1 + shift if s1 < 0 else None)
    else:
        out = BoundedHSet(frozenset(), True, height_bound, has_zero=True,
                          pos_tail=v1 + shift, neg_tail=v1 + shift)
    _punits_sum_crosscheck(x, y, T, out, height_bound)
    return out


def _punits_sum_crosscheck(x, y, T, claimed: BoundedHSet, height_bound: int) -> None:
    """Bounded search over unit pairs must stay inside the claim and must
    realize every claimed member near the leading value."""
    p = T.p
    units = [n for n in range(1, min(height_bound, 60) + 1) if n % p != 0]
    xr = q_class_rep(x, T)
    yr = q_class_rep(y, T)
    found = set()
    zero_found = False
    for t in units:
        for u in units:
            s = xr * t + yr * u
            if s == 0:
                zero_found = True
                continue
            c = q_factor_class(s, T)
            found.add(c)
            if not claimed.contains(c):
                raise InternalCheckError(
                    "punits sum %s + %s produced %s outside the closed form"
                    % (x.label(), y.label(), c.label()))
    if zero_found and not claimed.has_zero:
        raise InternalCheckError("punits sum reached zero but the closed form excludes it")
    base = min(x.rep[1], y.rep[1])
    for c in _punits_window_members(claimed, base, base + 3):
        if c not in found:
            raise InternalCheckError(
                "punits closed form claims %s for %s + %s but search never hit it"
                % (c.label(), x.label(), y.label()))


def _punits_window_members(S: BoundedHSet, lo: int, hi: int) -> list[QClass]:
    out = [m for m in S.members if lo <= m.rep[1] <= hi]
    for v in range(lo, hi + 1):
        if S.pos_tail is not None and v >= S.pos_tail:
            out.append(QClass("punits", (1, v)))
        if S.neg_tail is not None and v >= S.neg_tail:
            out.append(QClass("punits", (-1, v)))
    return out


def _squares_sum(x: QClass, y: QClass, T: QSubgroup, height_bound: int) -> BoundedHSet:
    """Enumerate m*u^2 + n*w^2 over integer u, w up to the height bound
    (denominators clear), keeping a witness pair per discovered class."""
    m, n = x.rep, y.rep
    members: dict[QClass, tuple] = {}
    has_zero = m == -n  # m u^2 = -n w^2 solvable iff -n/m is a square
    witnesses = []
    if has_zero:
        witnesses.append(("[0]", "1", "1"))
    for u in range(1, height_bound + 1):
        for w in range(1, height_bound + 1):
            s = m * u * u + n * w * w
            if s == 0:
                continue
            c = QClass("squares", squarefree_part(s))
            if c not in members:
                members[c] = (u, w)
    rule = None
    complete = False
    if x == y:
        rule = "scaled-two-squares:%d" % m
        complete = True
    elif x == q_class_neg(y, T):
        rule = "everything"
        complete = True
    for c, (u, w) in sorted(members.items(), key=lambda kv: kv[0].sort_key()):
        witnesses.append((c.label(), str(u), str(w)))
    out = BoundedHSet(frozenset(members), complete, height_bound, has_zero=has_zero,
                      rule=rule, witnesses=tuple(witnesses[:40]))
    if rule is not None:
        for c in members:
            if not _rule_membership(rule, c):
                raise InternalCheckError(
                    "squares sum %s + %s found %s outside its certificate rule"
                    % (x.label(), y.label(), c.label()))
    return out


def squares_product_closure_check(bound: int = 100):
    """Brahmagupta-Fibonacci closure: products of two-square classes stay
    two-square.  Returns (pairs_checked, violations, sample_witnesses)."""
    reps = [m for m in range(1, bound + 1)
            if squarefree_part(m) == m and is_two_squares_class(m)]
    violations = []
    samples = []
    for i, m in enumerate(reps):
        for n in reps[i:]:
            prod = squarefree_part(m * n)
            if not is_two_squares_class(prod):
                violations.append((m, n, prod))
                continue
            if len(samples) < 5:
                a, b = two_squares_decomp(m)
                c, d = two_squares_decomp(n)
                samples.append((m, n, prod, (a * c - b * d, a * d + b * c)))
    pairs = len(reps) * (len(reps) + 1) // 2
    for m, n, prod, (e, f) in samples:
        if e * e + f * f != m * n:
            raise InternalCheckError("composition identity witness failed for %d*%d" % (m, n))
    return pairs, violations, samples


# ---------------------------------------------------------------------------
# quotient hyperrings and the ideal lattice


def is_hyperideal(R: FiniteHyperstructure, I) -> bool:
    """A strict additive part (full differences stay inside) absorbing
    multiplication by the whole carrier."""
    I = frozenset(I)
    if R.zero not in I:
        return False
    if not all(0 <= a < R.size for a in I):
        raise DomainError("ideal members out of range")
    for a in I:
        for b in I:
            if not R.sub(a, b) <= I:
                return False
    for r in R.elements():
        for a in I:
            if R.mul(r, a) not in I:
                return False
    return True


def ideal_closure(R: FiniteHyperstructure, seed) -> frozenset[int]:
    """Smallest hyperideal containing the seed."""
    out = set(seed) | {R.zero}
    changed = True
    while changed:
        changed = False
        snapshot = list(out)
        for a in snapshot:
            for b in snapshot:
                extra = R.sub(a, b) - out
                if extra:
                    out |= extra
                    changed = True
        for r in R.elements():
            for a in snapshot:
                m = R.mul(r, a)
                if m not in out:
                    out.add(m)
                    changed = True
    return frozenset(out)


def enumerate_hyperideals(R: FiniteHyperstructure, bound: int = 16) -> list[frozenset[int]]:
    """All hyperideals, by saturating upward from {0} one generator at a time."""
    if R.size > bound:
        raise DomainError("carrier too large for ideal enumeration")
    found = {ideal_closure(R, ())}
    frontier = list(found)
    while frontier:
        I = frontier.pop()
        for x in R.elements():
            if x in I:
                continue
            J = ideal_closure(R, I | {x})
            if J not in found:
                found.add(J)
                frontier.append(J)
    out = sorted(found, key=lambda s: (len(s), sorted(s)))
    for I in out:
        if not is_hyperideal(R, I):
            raise InternalCheckError("closure produced a non-ideal")
    return out


@dataclass(frozen=True)
class QuotientResult:
    structure: FiniteHyperstructure
    projection: HomomorphismSpec
    class_of: tuple[int, ...]  # carrier index -> class index


def quotient_hyperring(R: FiniteHyperstructure, I) -> QuotientResult:
    """Classes of x ~ y iff (x - y) meets I, with set-lifted operations."""
    I = frozenset(I)
    if not is_hyperideal(R, I):
        raise DomainError("quotient requires a hyperideal")

    def related(x, y):
        return bool(R.sub(x, y) & I)

    classes: list[list[int]] = []
    for x in R.elements():
        for cls in classes:
            if related(x, cls[0]):
                cls.append(x)
                break
        else:
            classes.append([x])
    # the relation must be an equivalence; cross-check pairs across classes
    for i, ci in enumerate(classes):
        for x in ci:
            for j, cj in enumerate(classes):
                for y in cj:
                    if related(x, y) != (i == j):
                        raise InternalCheckError("quotient relation is not an equivalence")
    cls_of = [0] * R.size
    zero_cls = None
    for i, cls in enumerate(classes):
        for x in cls:
            cls_of[x] = i
        if R.zero in cls:
            zero_cls = i
    order = sorted(range(len(classes)), key=lambda i: (i != zero_cls, min(classes[i])))
    rank = {old: new for new, old in enumerate(order)}
    cls_of = [rank[c] for c in cls_of]
    classes = [classes[i] for i in order]

    n = len(classes)
    add = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = frozenset(cls_of[z] for z in R.add(classes[i][0], classes[j][0]))
            for x in classes[i]:
                for y in classes[j]:
                    if frozenset(cls_of[z] for z in R.add(x, y)) != cell:
                        raise InternalCheckError("quotient sum depends on representatives")
            row.append(cell)
        add.append(tuple(row))
    mul = []
    for i in range(n):
        row = []
        for j in range(n):
            v = cls_of[R.mul(classes[i][0], classes[j][0])]
            for x in classes[i]:
                for y in classes[j]:
                    if cls_of[R.mul(x, y)] != v:
                        raise InternalCheckError("quotient product depends on representatives")
            row.append(v)
        mul.append(tuple(row))
    neg = tuple(cls_of[R.neg(cls[0])] for cls in classes)
    labels = tuple("%s~" % R.label(cls[0]) for cls in classes)
    one_cls = None if R.one is None else cls_of[R.one]
    structure = FiniteHyperstructure(
        name="%s/I%d" % (R.name, len(I)), labels=labels, zero=0, one=one_cls,
        neg_table=neg, mul_table=tuple(mul), add_table=tuple(add),
    )
    ring_report = check_hyperring(structure)
    if not ring_report.ok:
        raise InternalCheckError("quotient failed hyperring axioms: %s" % ring_report.summary())
    proj = HomomorphismSpec(R, structure, tuple(cls_of))
    hom_report = check_homomorphism(proj, strict=True)
    if not hom_report.ok:
        raise InternalCheckError("quotient projection is not a strict homomorphism")
    return QuotientResult(structure, proj, tuple(cls_of))


def is_prime_hyperideal(R: FiniteHyperstructure, I) -> bool:
    """xy in I forces x or y in I; cross-checked against the quotient having
    no zero divisors.  The improper ideal is not prime."""
    I = frozenset(I)
    if not is_hyperideal(R, I):
        raise DomainError("not a hyperideal")
    if len(I) == R.size:
        return False
    direct = all(
        R.mul(x, y) not in I or x in I or y in I
        for x in R.elements() for y in R.elements()
    )
    Q = quotient_hyperring(R, I).structure
    via_quotient = all(
        Q.mul(x, y) != Q.zero
        for x in Q.nonzero() for y in Q.nonzero()
    )
    return _agree(direct, via_quotient, "prime")


def is_maximal_hyperideal(R: FiniteHyperstructure, I) -> bool:
    """No hyperideal strictly between I and R; cross-checked against the
    quotient being a hyperfield."""
    I = frozenset(I)
    if not is_hyperideal(R, I):
        raise DomainError("not a hyperideal")
    carrier = frozenset(R.elements())
    if I == carrier:
        return False
    direct = all(
        J == I or J == carrier or not (I < J)
        for J in enumerate_hyperideals(R)
    )
    Q = quotient_hyperring(R, I).structure
    via_quotient = Q.size > 1 and check_hyperfield(Q).ok
    return _agree(direct, via_quotient, "maximal")


def _agree(direct: bool, via_quotient: bool, what: str) -> bool:
    if direct != via_quotient:
        raise InternalCheckError(
            "%s ideal verdicts disagree: direct=%s quotient=%s" % (what, direct, via_quotient))
    return direct


# ---------------------------------------------------------------------------
# enumeration of small hyperfields


def _abelian_groups(m: int) -> list[tuple[str, tuple[tuple[int, ...], ...]]]:
    """Multiplication tables of the abelian groups of order m on {0..m-1},
    identity at index 0 (which will sit at carrier index 1)."""
    if m == 1:
        return [("C1", ((0,),))]
    if m == 2:
        return [("C2", ((0, 1), (1, 0)))]
    if m == 3:
        return [("C3", tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3)))]
    if m == 4:
        c4 = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
        v4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        return [("C4", c4), ("V4", v4)]
    raise DomainError("group catalogue stops at order 4")


def enumerate_hyperfields(n: int) -> list[FiniteHyperstructure]:
    """All hyperfields with n elements, up to isomorphism fixing 0 and 1.

    The additive table is determined by the rows 1+x through
    a + b = a * (1 + a^{-1} b), so only those rows are enumerated.  It is
    commutative exactly when 1+x^{-1} = x^{-1}(1+x) for every x, so the row of
    x^{-1} is derived from the row of x, and a self-inverse x keeps only rows
    with x(1+x) = 1+x.  Candidates are filtered through the canonical
    hypergroup battery, then the full battery, and deduplicated.
    """
    if not 2 <= n <= 5:
        raise DomainError("enumeration supports 2 <= n <= 5")
    m = n - 1
    out: list[FiniteHyperstructure] = []
    for gname, gmul in _abelian_groups(m):
        # carrier: 0 plus group elements shifted by one; one = 1
        mul = [[0] * n for _ in range(n)]
        for i in range(m):
            for j in range(m):
                mul[i + 1][j + 1] = gmul[i][j] + 1
        inv = [0] * n
        for a in range(1, n):
            for b in range(1, n):
                if mul[a][b] == 1:
                    inv[a] = b
        free = [x for x in range(1, n) if x <= inv[x]]
        involutions = [t for t in range(1, n) if mul[t][t] == 1]
        for t in involutions:
            neg = tuple(mul[a][t] if a else 0 for a in range(n))
            row_options = []
            for x in free:
                opts = []
                for bits in range(1, 1 << n):
                    cell = frozenset(b for b in range(n) if bits >> b & 1)
                    if (0 in cell) != (x == t):
                        continue
                    if x == inv[x] and frozenset(mul[x][z] for z in cell) != cell:
                        continue
                    opts.append(cell)
                row_options.append(opts)
            for chosen in product(*row_options):
                rows = [None] * m
                for x, cell in zip(free, chosen):
                    rows[x - 1] = cell
                    rows[inv[x] - 1] = frozenset(mul[inv[x]][z] for z in cell)
                cand = FiniteHyperstructure(
                    name="enum%d-%s" % (n, gname),
                    labels=tuple(str(i) for i in range(n)),
                    zero=0, one=1, neg_table=neg,
                    mul_table=tuple(tuple(r) for r in mul),
                    add_table=_derive_add_table(n, mul, inv, rows),
                )
                if not check_canonical_hypergroup(cand).ok or not check_hyperfield(cand).ok:
                    continue
                if any(find_isomorphism(cand, kept) is not None for kept in out):
                    continue
                out.append(cand)
    for i, H in enumerate(out):
        object.__setattr__(H, "name", "hyperfield-%d-of-order-%d" % (i + 1, n))
    return out


def _derive_add_table(n, mul, inv, rows):
    """rows[x-1] = the set 1+x; build a+b = a(1 + a^-1 b), which the row
    choice has made commutative."""
    table = [[None] * n for _ in range(n)]
    for b in range(n):
        table[0][b] = hset(b)
        table[b][0] = hset(b)
    for a in range(1, n):
        for b in range(1, n):
            q = mul[inv[a]][b]
            cell = frozenset(mul[a][z] for z in rows[q - 1])
            if table[b][a] is not None and table[b][a] != cell:
                raise InternalCheckError("derived sum table is not commutative at %d+%d" % (a, b))
            table[a][b] = cell
    return tuple(tuple(r) for r in table)
