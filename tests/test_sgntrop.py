from hypothesis import given, settings
from hypothesis import strategies as strat

from hfw.hypercore import find_isomorphism, check_homomorphism
from hfw.sgntrop import (
    ALL,
    STElem,
    SymOrdering,
    SymValuation,
    canonical_valuation,
    make_stset,
    q_punits_hyperfield,
    signed_tropical,
    st,
    st_axiom_check,
    st_mul,
    st_nonsingleton_sum_demo,
    st_nonstrict_subhyperring_demo,
    sym_in_sequence,
    sym_is_ordering,
    sym_is_valuation,
    sym_natural_ideal,
    sym_natural_ring,
    sym_orderings,
    sym_residue,
    sym_subset,
)


def test_tropical_row_shapes(tropical1):
    H = tropical1
    # same sign: the smaller value wins
    assert H.add(st(1, 0), st(1, 3)) == make_stset(finite=[st(1, 0)])
    # opposite signs, distinct values: still the smaller value
    assert H.add(st(1, 2), st(-1, 0)) == make_stset(finite=[st(-1, 0)])
    # opposite signs, equal values: everything from that value up, plus zero
    S = H.add(st(1, 1), st(-1, 1))
    assert S.has_zero
    assert S.contains(st(1, 5)) and S.contains(st(-1, 1))
    assert not S.contains(st(1, 0))


def test_punits_row_shapes(punits2):
    H = punits2
    assert H.add(st(1, 0), st(1, 0)) == make_stset(pos_ball=(1,))
    S = H.add(st(1, 0), st(-1, 0))
    assert S.has_zero and S.contains(st(1, 1)) and S.contains(st(-1, 1))
    # distinct values, opposite signs: both signs at the minimum
    assert H.add(st(1, 0), st(-1, 2)) == make_stset(finite=[st(1, 0), st(-1, 0)])
    # distinct values, same sign: just the minimum
    assert H.add(st(1, 0), st(1, 2)) == make_stset(finite=[st(1, 0)])


def test_punits_p3_shift(punits3):
    # 1 + 1 = 2 keeps p-adic value 0 when p is odd
    S = punits3.add(st(1, 0), st(1, 0))
    assert S.contains(st(1, 0))


def test_axiom_windows_pass(tropical1, punits2, punits3):
    for H in (tropical1, punits2, punits3):
        rep = st_axiom_check(H, B=3)
        assert rep.ok, rep.summary()


def test_stset_canonical_merge():
    # finite members swallowed by a tail are canonicalised away
    A = make_stset(finite=[st(1, 5)], pos_ball=(3,))
    B = make_stset(pos_ball=(3,))
    assert A == B


def test_sym_subset_with_tails():
    ring = signed_tropical(1).valuation_ring()
    ideal = signed_tropical(1).valuation_ideal()
    assert sym_subset(ideal, ring)
    assert not sym_subset(ring, ideal)
    assert sym_subset(ring, ALL)
    assert not sym_subset(ALL, ring)


def test_ordering_counts(tropical1, tropical2, punits2, punits3):
    assert [P.label() for P in sym_orderings(tropical1)] == ["P(+)", "P(-)"]
    assert len(sym_orderings(tropical2)) == 4
    assert [P.label() for P in sym_orderings(punits2)] == ["P(+)"]
    assert [P.label() for P in sym_orderings(punits3)] == ["P(+)"]


def test_twisted_character_is_a_valid_ordering(tropical1):
    Q = SymOrdering((-1,))
    assert sym_is_ordering(tropical1, Q)
    assert Q.contains(st(-1, 1)) and Q.contains(st(1, 2)) and not Q.contains(st(1, 1))


def test_nontrivial_characters_fail_on_punits(punits2):
    assert not sym_is_ordering(punits2, SymOrdering((-1,)))


def test_unit_sum_sequences(tropical1, punits2, punits3):
    sets, start, length = sym_in_sequence(tropical1)
    assert (start, length) == (0, 1)
    assert sets[0] == make_stset(finite=[st(1, 0)])

    sets, start, length = sym_in_sequence(punits2)
    assert (start, length) == (0, 2)
    assert sets[0] == make_stset(finite=[st(1, 0)])
    assert sets[1] == make_stset(pos_ball=(1,))

    sets, start, length = sym_in_sequence(punits3)
    assert (start, length) == (1, 1)


def test_natural_ring_and_ideal_exact(tropical1, tropical2, punits2):
    for H in (tropical1, tropical2):
        for P in sym_orderings(H):
            assert sym_natural_ring(H, P) == H.valuation_ring()
            assert sym_natural_ideal(H, P) == H.valuation_ideal()
    (P,) = sym_orderings(punits2)
    assert sym_natural_ring(punits2, P) is ALL
    assert sym_natural_ideal(punits2, P) == make_stset(has_zero=True)


def test_tropical_residue_is_sign(tropical1):
    from hfw.constructions import sign_hyperfield

    res = sym_residue(tropical1)
    assert res.structure.size == 3
    phi = find_isomorphism(res.structure, sign_hyperfield())
    assert phi is not None
    assert check_homomorphism(phi, strict=True).ok


def test_punits_residue_collapses_units(punits2, punits3):
    # opposite-sign units differ by the maximal ideal, so the residue keeps
    # a single nonzero class
    for H in (punits2, punits3):
        res = sym_residue(H)
        assert res.structure.size == 2
    # p = 2: the class of 1 is its own negative and 1 + 1 lands on zero only
    res2 = sym_residue(punits2)
    one = res2.structure.one
    assert res2.structure.add(one, one) == frozenset({res2.structure.zero})
    # p = 3: 1 + 1 keeps the unit class alongside zero
    res3 = sym_residue(punits3)
    one3 = res3.structure.one
    assert res3.structure.add(one3, one3) == frozenset({res3.structure.zero, one3})


def test_nonsingleton_sum_demo(tropical1):
    demo = st_nonsingleton_sum_demo(1)
    assert demo.result == tropical1.add(demo.x, demo.y)
    # the sum 1 + (-1) is a whole tail, not a singleton
    assert demo.result.pos_ball is not None and demo.result.neg_ball is not None
    assert len(demo.sample) > 3


def test_three_element_window_not_strict():
    from hfw.constructions import sign_hyperfield

    demo = st_nonstrict_subhyperring_demo(1)
    assert demo.structure.labels == ("0", "1", "-1")
    assert not demo.strict
    # the overflow element sits outside the three-element window
    assert demo.witness == st(1, 1)
    phi = find_isomorphism(demo.structure, sign_hyperfield())
    assert phi is not None


def test_valuation_window_and_mutant(tropical1):
    v = canonical_valuation(tropical1)
    assert sym_is_valuation(tropical1, v, B=3).ok
    twisted = SymValuation(prefix=1, neg_shift=1)
    rep = sym_is_valuation(tropical1, twisted, B=3)
    assert not rep.ok


def test_mul_and_inverse_laws():
    a = st(1, 2)
    b = st(-1, 3)
    assert st_mul(a, b) == st(-1, 5)
    assert st_mul(a, a.inv()) == st(1, 0)
    assert a.neg() == st(-1, 2)


@settings(max_examples=80, deadline=None)
@given(strat.integers(-4, 4), strat.integers(-4, 4), strat.booleans(), strat.booleans())
def test_addition_commutes_on_window(g1, g2, s1, s2):
    H = signed_tropical(1)
    x = STElem(1 if s1 else -1, (g1,))
    y = STElem(1 if s2 else -1, (g2,))
    assert H.add(x, y) == H.add(y, x)


@settings(max_examples=80, deadline=None)
@given(strat.integers(-3, 3), strat.booleans(), strat.integers(-3, 3), strat.booleans())
def test_punits_reversibility_on_window(g1, s1, g2, s2):
    """x in y + z implies y in x - z, spot-checked through the window."""
    H = q_punits_hyperfield(2)
    y = STElem(1 if s1 else -1, (g1,))
    z = STElem(1 if s2 else -1, (g2,))
    S = H.add(y, z)
    for x in S.members_within(H.window_gammas(5)):
        back = H.add(x, z.neg())
        assert back.contains(y)
