import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from hfw.hypercore import DomainError, check_homomorphism, kernel
from hfw.constructions import QSubgroup, field_f2, fp_squares, krasner_hyperfield, sign_hyperfield
from hfw.realalg import (
    enumerate_orderings,
    factor_ordering_count_check,
    is_archimedean,
    is_ordering,
    is_preordering,
    is_real,
    maximal_preordering_extensions,
    natural_valuation_ideal,
    natural_valuation_ring,
    one_sum_sequence,
    one_sums,
    rational_cone_count,
    sign_hom,
    signature,
    squares_factor_archimedean_check,
)
from hfw.valtheory import is_valuation_hyperring, residue_hyperfield


def test_sign_has_exactly_one_ordering():
    S = sign_hyperfield()
    assert enumerate_orderings(S) == [frozenset({1})]
    assert is_ordering(S, {1}).ok
    assert not is_ordering(S, {2}).ok  # contains -1
    assert not is_ordering(S, {1, 2}).ok


def test_non_real_builtins():
    for F in (krasner_hyperfield(), field_f2(), fp_squares(5).structure, fp_squares(7).structure):
        rep = is_real(F)
        assert not rep.real
        assert enumerate_orderings(F) == []
    # in these structures -1 is already a square
    assert "square" in is_real(krasner_hyperfield()).witness


def test_realness_matches_enumeration_everywhere(finite_builtins, enumerated_small):
    corpus = list(finite_builtins)
    for structures in enumerated_small.values():
        corpus.extend(structures)
    for F in corpus:
        # is_real performs the cross-check internally and raises on mismatch
        rep = is_real(F)
        assert rep.real == bool(enumerate_orderings(F))


def test_sign_hom_and_kernel():
    S = sign_hyperfield()
    phi = sign_hom(S, {1})
    assert check_homomorphism(phi).ok
    assert kernel(phi) == frozenset({0})
    assert phi.mapping == (0, 1, 2)


def test_sign_hom_rejects_non_cone():
    with pytest.raises(DomainError):
        sign_hom(sign_hyperfield(), {2})


def test_preordering_axioms():
    S = sign_hyperfield()
    assert is_preordering(S, {1}).ok
    assert not is_preordering(S, {1, 2}).ok  # -1 inside
    assert not is_preordering(S, {0, 1}).ok  # 0 inside
    # squares of F_5/sq collapse to the unit class, which equals -1 there
    F5 = fp_squares(5).structure
    assert not is_preordering(F5, {F5.one}).ok


def test_preordering_extension_modes_agree():
    S = sign_hyperfield()
    exhaustive = maximal_preordering_extensions(S, {1}, all_extensions=True)
    greedy = maximal_preordering_extensions(S, {1})
    assert exhaustive == [frozenset({1})]
    assert greedy == [frozenset({1})]
    # the intersection of all maximal extensions recovers the preordering
    inter = frozenset.intersection(*exhaustive)
    assert inter == frozenset({1})


def test_preordering_extension_refuses_non_preordering():
    K = krasner_hyperfield()
    with pytest.raises(DomainError):
        maximal_preordering_extensions(K, {K.one})


def test_one_sum_cycles():
    seq = one_sum_sequence(sign_hyperfield())
    assert seq.sets == (frozenset({1}),)
    assert (seq.cycle_start, seq.cycle_length) == (1, 1)

    seq = one_sum_sequence(krasner_hyperfield())
    assert seq.sets == (frozenset({1}), frozenset({0, 1}))
    assert seq.term(5) == frozenset({0, 1})

    seq = one_sum_sequence(field_f2())
    assert seq.sets == (frozenset({1}), frozenset({0}))
    assert (seq.cycle_start, seq.cycle_length) == (1, 2)
    assert seq.term(3) == frozenset({1})
    assert seq.term(4) == frozenset({0})

    F5 = fp_squares(5).structure
    seq = one_sum_sequence(F5)
    assert seq.term(4) == frozenset({0, 1, 2})
    assert seq.term(40) == frozenset({0, 1, 2})


@settings(max_examples=50, deadline=None)
@given(strat.integers(min_value=1, max_value=200))
def test_cycle_read_matches_direct_fold(n):
    for F in (krasner_hyperfield(), field_f2(), fp_squares(5).structure):
        assert one_sum_sequence(F).term(n) == one_sums(F, n)


def test_natural_hull_of_sign_is_everything():
    S = sign_hyperfield()
    A = natural_valuation_ring(S, {1})
    assert A == frozenset({0, 1, 2})
    assert is_archimedean(S, {1})
    assert natural_valuation_ideal(S, {1}) == frozenset({0})


def test_natural_hull_is_a_valuation_ring_with_matching_ideal():
    S = sign_hyperfield()
    P = frozenset({1})
    A = natural_valuation_ring(S, P)
    assert is_valuation_hyperring(S, A).ok
    res = residue_hyperfield(S, A)
    assert res.ideal == natural_valuation_ideal(S, P)
    assert res.units == A - res.ideal


def test_signature_values():
    S = sign_hyperfield()
    P = frozenset({1})
    assert signature(S, P, 1) == 1
    assert signature(S, P, 2) == -1
    with pytest.raises(DomainError):
        signature(S, P, 0)
    for a in (1, 2):
        for b in (1, 2):
            assert signature(S, P, S.mul(a, b)) == signature(S, P, a) * signature(S, P, b)


def test_rational_cone_count_is_one():
    for T in (QSubgroup("positives"), QSubgroup("squares"), QSubgroup("punits", 2)):
        assert rational_cone_count(T) == 1


def test_ordering_count_positives_and_punits():
    cmp1 = factor_ordering_count_check("Q", QSubgroup("positives"))
    assert (cmp1.factor_count, cmp1.base_count) == (1, 1) and cmp1.equal
    cmp2 = factor_ordering_count_check("Q", QSubgroup("punits", 2))
    assert (cmp2.factor_count, cmp2.base_count) == (1, 1) and cmp2.equal


@pytest.mark.parametrize("p", [5, 7, 13])
def test_ordering_count_prime_field_squares(p):
    squares = {a * a % p for a in range(1, p)}
    cmp = factor_ordering_count_check(p, squares)
    assert (cmp.factor_count, cmp.base_count) == (0, 0) and cmp.equal


def test_squares_factor_archimedean_certificate():
    cert = squares_factor_archimedean_check(100)
    assert cert.all_bounded
    assert cert.checked == 61  # squarefree integers up to 100
    for m, kind, quad in cert.examples:
        assert 1 <= kind <= 4
        assert sum(x * x for x in quad) == m
