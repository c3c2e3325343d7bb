import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from hfw.hypercore import (
    DomainError,
    check_hyperfield,
    check_double_distributivity,
    find_isomorphism,
)
from hfw.constructions import (
    QClass,
    QSubgroup,
    enumerate_hyperfields,
    enumerate_hyperideals,
    factor_hyperfield,
    field_f2,
    four_squares_decomp,
    fp_squares,
    ideal_closure,
    is_hyperideal,
    is_maximal_hyperideal,
    is_prime_hyperideal,
    is_two_squares_class,
    krasner_hyperfield,
    prime_field_hyperfield,
    q_class_inv,
    q_class_mul,
    q_class_neg,
    q_factor_class,
    q_factor_sum,
    quotient_hyperring,
    sign_hyperfield,
    squarefree_part,
    squares_product_closure_check,
    squares_sum_kind,
    three_squares_decomp,
    two_squares_decomp,
)

SQ = QSubgroup("squares")
POS = QSubgroup("positives")
PU2 = QSubgroup("punits", 2)


def _sq(n: int) -> QClass:
    return QClass("squares", n)


def test_factor_f5_by_squares_table():
    F = fp_squares(5)
    S = F.structure
    assert S.labels == ("[0]", "[1]", "[2]")
    # squares mod 5 are {1, 4}; 1*t + 1*u over t,u in {1,4} hits 2, 0, 3
    one = S.one
    assert S.add(one, one) == frozenset({0, 2})
    assert S.neg(one) == one  # -1 = 4 is a square
    assert check_hyperfield(S).ok


def test_factor_f7_by_squares_table():
    S = fp_squares(7).structure
    assert S.size == 3
    # -1 = 6 is not a square mod 7, so negation swaps the two unit classes
    assert S.neg(S.one) != S.one
    assert check_hyperfield(S).ok


def test_factor_matches_prime_field_when_subgroup_trivial():
    F = factor_hyperfield(5, [1])
    assert F.structure.size == 5
    assert find_isomorphism(F.structure, prime_field_hyperfield(5)) is not None


def test_class_of_respects_cosets():
    F = fp_squares(5)
    # coset of 1 is {1,4}, coset of 2 is {2,3}
    assert F.class_of(1) == F.class_of(4) == 1
    assert F.class_of(2) == F.class_of(3) == 2
    assert F.class_of(0) == 0


def test_squarefree_part_examples():
    assert squarefree_part(18) == 2
    assert squarefree_part(-6) == -6
    assert squarefree_part(49) == 1
    assert squarefree_part(12) == 3


def _trial_division_squarefree_part(n: int) -> int:
    sign, n, out, d = (-1 if n < 0 else 1), abs(n), 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * n


def test_squarefree_part_matches_trial_division():
    for n in range(-10**5, 10**5 + 1):
        assert squarefree_part(n) == (_trial_division_squarefree_part(n) if n else 0), n


def test_squarefree_part_of_large_semiprimes_is_fast():
    rng = random.Random(12)

    def prime():
        while True:
            p = rng.randrange(10**6, 10**7)
            if all(p % d for d in range(2, int(p**0.5) + 1)):
                return p

    for _ in range(50):
        p, q = prime(), prime()
        start = time.perf_counter()
        part = squarefree_part(-p * q)
        assert time.perf_counter() - start < 0.05, (p, q)
        assert part == (-p * q if p != q else -1)


def test_q_factor_class_canonical_reps():
    assert q_factor_class(Fraction(-3, 2), SQ).label() == "[-6]"
    assert q_factor_class(18, SQ).label() == "[2]"
    assert q_factor_class(Fraction(1, 4), SQ).label() == "[1]"
    assert q_factor_class(-7, POS).label() == "[-]"
    assert q_factor_class(Fraction(3, 5), PU2).label() == "(+,0)"
    assert q_factor_class(-12, PU2).label() == "(-,2)"
    assert q_factor_class(0, SQ).is_zero()


def test_q_class_arithmetic():
    two, three = _sq(2), _sq(3)
    assert q_class_mul(two, three, SQ) == _sq(6)
    assert q_class_mul(two, two, SQ) == _sq(1)
    assert q_class_neg(two, SQ) == _sq(-2)
    assert q_class_inv(two, SQ) == two
    a = q_factor_class(12, PU2)
    assert q_class_mul(a, q_class_inv(a, PU2), PU2).rep == (1, 0)


def test_square_sum_certificates_and_decomps():
    assert squares_sum_kind(_sq(1)) == 1
    assert squares_sum_kind(_sq(2)) == 2
    assert squares_sum_kind(_sq(6)) == 3
    assert squares_sum_kind(_sq(7)) == 4
    assert squares_sum_kind(_sq(-5)) is None
    a, b = two_squares_decomp(2)
    assert a * a + b * b == 2
    assert two_squares_decomp(7) is None
    assert three_squares_decomp(7) is None
    quad = four_squares_decomp(7)
    assert sum(v * v for v in quad) == 7
    assert is_two_squares_class(10) and not is_two_squares_class(6)


def test_positives_sum_is_sign_arithmetic():
    pos = q_factor_class(1, POS)
    neg = q_factor_class(-1, POS)
    same = q_factor_sum(pos, pos, POS)
    assert same.complete and same.members == frozenset({pos}) and not same.has_zero
    mixed = q_factor_sum(pos, neg, POS)
    assert mixed.complete and mixed.has_zero
    assert mixed.members == frozenset({pos, neg})


def test_punits_sum_closed_forms():
    x = QClass("punits", (1, 0))
    y = QClass("punits", (-1, 0))
    S = q_factor_sum(x, x, PU2)
    # 2-adic: odd + odd is even, so the value strictly rises
    assert S.complete and S.pos_tail == 1 and S.neg_tail is None and not S.has_zero
    D = q_factor_sum(x, y, PU2)
    assert D.complete and D.has_zero and D.pos_tail == 1 and D.neg_tail == 1
    lead = q_factor_sum(x, QClass("punits", (-1, 3)), PU2)
    assert lead.members == frozenset({QClass("punits", (1, 0)), QClass("punits", (-1, 0))})


def test_punits_sum_odd_prime_keeps_value():
    pu3 = QSubgroup("punits", 3)
    x = QClass("punits", (1, 0))
    S = q_factor_sum(x, x, pu3)
    assert S.pos_tail == 0  # 1 + 1 = 2 is still a 3-adic unit


def test_squares_sum_one_plus_one():
    one = _sq(1)
    S = q_factor_sum(one, one, SQ)
    assert S.complete and S.rule == "scaled-two-squares:1"
    assert S.contains(_sq(2)) and S.contains(_sq(5))
    assert not S.contains(_sq(3)) and not S.contains(_sq(-1))
    assert not S.has_zero


def test_squares_sum_opposite_classes_cover_everything():
    S = q_factor_sum(_sq(3), _sq(-3), SQ)
    assert S.complete and S.rule == "everything" and S.has_zero
    assert S.contains(_sq(7)) and S.contains(_sq(-11))


def test_squares_sum_incomplete_is_sound():
    S = q_factor_sum(_sq(2), _sq(3), SQ, height_bound=20)
    assert not S.complete
    # every listed member carries a witness pair u, w with 2u^2 + 3w^2 in it
    for label, u, w in S.witnesses:
        if label == "[0]":
            continue
        val = 2 * int(u) ** 2 + 3 * int(w) ** 2
        assert q_factor_class(val, SQ).label() == label
    assert S.contains(_sq(5))  # 2 + 3


def test_squares_product_closure():
    pairs, violations, samples = squares_product_closure_check(100)
    assert pairs == 231
    assert violations == []
    assert len(samples) == 5
    for m, n, prod, (e, f) in samples:
        assert e * e + f * f == m * n
        assert squarefree_part(m * n) == prod


def test_hyperideal_lattice_of_hyperfields(finite_builtins):
    for S in finite_builtins:
        ideals = enumerate_hyperideals(S)
        whole = frozenset(range(S.size))
        assert ideals == [frozenset({S.zero}), whole]
        assert is_hyperideal(S, ideals[0]) and is_hyperideal(S, whole)
        assert is_prime_hyperideal(S, ideals[0])
        assert is_maximal_hyperideal(S, ideals[0])
        assert not is_prime_hyperideal(S, whole)
        assert not is_maximal_hyperideal(S, whole)


def test_ideal_closure_of_a_unit_is_everything():
    S = sign_hyperfield()
    assert ideal_closure(S, {1}) == frozenset({0, 1, 2})


def test_quotient_by_zero_ideal_is_identity():
    S = fp_squares(5).structure
    Q = quotient_hyperring(S, {S.zero})
    assert Q.structure.size == S.size
    assert find_isomorphism(Q.structure, S) is not None
    # the projection is the relabelling map
    assert sorted(Q.class_of) == list(range(S.size))


def test_quotient_rejects_non_ideal():
    S = sign_hyperfield()
    with pytest.raises(DomainError):
        quotient_hyperring(S, {0, 1})


def test_enumeration_counts_are_stable(enumerated_small):
    assert [len(enumerated_small[n]) for n in (2, 3, 4)] == [2, 5, 7]
    # deterministic: a fresh run reproduces the same tables in the same order
    again = enumerate_hyperfields(3)
    assert [H.add_table for H in again] == [H.add_table for H in enumerated_small[3]]


def test_enumeration_finds_the_known_structures(enumerated_small):
    two = enumerated_small[2]
    assert find_isomorphism(field_f2(), two[0]) is not None
    assert find_isomorphism(krasner_hyperfield(), two[1]) is not None
    three = enumerated_small[3]
    sign_hits = [H for H in three if find_isomorphism(sign_hyperfield(), H) is not None]
    assert len(sign_hits) == 1
    f5_hits = [H for H in three if find_isomorphism(fp_squares(5).structure, H) is not None]
    assert len(f5_hits) == 1


def test_enumerated_structures_pass_axioms(enumerated_small):
    for n, structures in enumerated_small.items():
        for H in structures:
            assert check_hyperfield(H).ok
            assert check_double_distributivity(H).inclusion_ok


def test_enumeration_bounds():
    with pytest.raises(DomainError):
        enumerate_hyperfields(1)
    with pytest.raises(DomainError):
        enumerate_hyperfields(6)


@settings(max_examples=60, deadline=None)
@given(
    strat.fractions(min_value=Fraction(-50), max_value=Fraction(50)),
    strat.integers(min_value=1, max_value=12),
)
def test_squares_class_invariant_under_square_scaling(a, q):
    """Scaling by q^2 never moves a rational to a different class."""
    scaled = a * q * q
    assert q_factor_class(scaled, SQ) == q_factor_class(a, SQ)


@settings(max_examples=60, deadline=None)
@given(strat.integers(min_value=-60, max_value=60), strat.integers(min_value=-60, max_value=60))
def test_squares_mul_matches_rational_mul(m, n):
    if m == 0 or n == 0:
        return
    lhs = q_class_mul(q_factor_class(m, SQ), q_factor_class(n, SQ), SQ)
    assert lhs == q_factor_class(m * n, SQ)
