from fractions import Fraction

import pytest

from hfw import compat, sgntrop, valtheory
from hfw.hypercore import DomainError, InternalCheckError
from hfw.constructions import QSubgroup, fp_squares, q_factor_class, sign_hyperfield
from hfw.sgntrop import (
    SignedValueHyperfield,
    SymOrdering,
    canonical_valuation,
    make_stset,
    signed_tropical,
    st,
    sym_orderings,
    sym_residue,
    trivial_valuation,
)
from hfw.valtheory import LexGroup, trivial_valuation_on
from hfw.realalg import enumerate_orderings
from hfw.compat import (
    baer_krull_forward,
    baer_krull_inverse,
    baer_krull_table,
    characters_of,
    compatibility_report,
    compatible,
    convexity_check,
    incomparability_witnesses,
    lift_ordering,
    natural_valuation,
    residue_ordering_archimedean_check,
    window_cone_pattern_count,
)

PU2 = QSubgroup("punits", 2)


def test_all_conditions_hold_on_tropical_cones(tropical1, tropical2):
    for H in (tropical1, tropical2):
        v = canonical_valuation(H)
        for P in sym_orderings(H):
            rep = compatibility_report(H, v, P, window=4)
            assert rep.cond_i and rep.cond_ii and rep.cond_iii and rep.cond_iv
            assert rep.compatible and rep.all_equal()
            assert rep.witnesses == {}


def test_all_conditions_fail_on_punits_canonical(punits2):
    (P,) = sym_orderings(punits2)
    rep = compatibility_report(punits2, canonical_valuation(punits2), P)
    assert not rep.cond_i and not rep.cond_ii and not rep.cond_iii and not rep.cond_iv
    assert not rep.compatible and rep.all_equal()
    assert set(rep.witnesses) == {"cond_i", "cond_ii", "cond_iii", "cond_iv"}
    # the unit neighborhood leaks a negative unit
    assert "(-,0)" in rep.witnesses["cond_iii"]
    # two same-sign elements of different value defeat the bound
    assert "a=(+,0), b=(+,1)" in rep.witnesses["cond_iv"]


@pytest.mark.parametrize("x, y, decided", [
    # 1 + (-,1) gains (-,0): the sweep breaks 1 + M inside P(+)
    (st(1, 0), st(-1, 1), "the unit neighborhood"),
    # (+,1) - (+,0) gains (+,0): a=(+,0), b=(+,1) meets P(+) both ways
    (st(-1, 0), st(1, 1), "the value bound"),
])
def test_sweep_disagreeing_with_case_analysis_raises(x, y, decided):
    """A patched tropical row keeps the valuation and P(+) valid, yet breaks
    one condition on the window while the row-shape analysis still says
    tropical rows satisfy it."""
    both_signs = make_stset((st(1, 0), st(-1, 0)))

    def patch(H, a, b):
        return both_signs if {a, b} == {x, y} else None

    H = SignedValueHyperfield("tropical", row_patch=patch)
    with pytest.raises(InternalCheckError, match="disagree on " + decided):
        compatibility_report(H, canonical_valuation(H), SymOrdering((1,)), window=3)


def test_baer_krull_table_validates_once(monkeypatch):
    """The valuation is validated once and each (cone, window) once, however
    many reports, lifts and round trips the table builds."""
    valuations, orderings = [], []
    is_valuation, is_ordering = sgntrop.sym_is_valuation, sgntrop.sym_is_ordering

    def counted_valuation(H, v, B=4, max_witnesses=10):
        valuations.append(v)
        return is_valuation(H, v, B, max_witnesses)

    def counted_ordering(H, P, B=6):
        orderings.append((P.images, B))
        return is_ordering(H, P, B)

    for module in (sgntrop, compat):
        monkeypatch.setattr(module, "sym_is_valuation", counted_valuation)
        monkeypatch.setattr(module, "sym_is_ordering", counted_ordering)
    table = baer_krull_table(signed_tropical(2), window=2)
    assert table.count == 4
    assert len(valuations) == 1
    assert orderings and len(set(orderings)) == len(orderings)


def test_trivial_valuation_is_always_compatible(punits2, punits3, tropical1):
    for H in (punits2, punits3, tropical1):
        for P in sym_orderings(H):
            rep = compatibility_report(H, trivial_valuation(), P)
            assert rep.compatible and rep.witnesses == {}


def test_finite_compatibility_sign():
    S = sign_hyperfield()
    rep = compatibility_report(S, trivial_valuation_on(S), frozenset({1}))
    assert rep.compatible and rep.all_equal()
    assert rep.witnesses == {}


def test_validate_rejects_bad_inputs(tropical2):
    S = sign_hyperfield()
    with pytest.raises(DomainError):
        compatibility_report(S, trivial_valuation_on(S), frozenset({2}))
    with pytest.raises(DomainError):
        compatibility_report(tropical2, canonical_valuation(tropical2), SymOrdering((1,)))


def test_natural_valuation_routes(tropical1, tropical2, punits2):
    for H in (tropical1, tropical2):
        for P in sym_orderings(H):
            assert natural_valuation(H, P) == canonical_valuation(H)
    (P,) = sym_orderings(punits2)
    assert natural_valuation(punits2, P) == trivial_valuation()
    S = sign_hyperfield()
    v = natural_valuation(S, frozenset({1}))
    assert v.group.kind == "quotient"
    # only one unit coset: the trivial value group
    assert len(v.group.labels) == 1


def test_residue_ordering_archimedean_everywhere(tropical1, tropical2, punits2, punits3):
    for H in (tropical1, tropical2, punits2, punits3):
        for P in sym_orderings(H):
            assert residue_ordering_archimedean_check(H, P)
    S = sign_hyperfield()
    assert residue_ordering_archimedean_check(S, frozenset({1}))


def test_ring_convex_yet_incompatible(punits2):
    """The split observation: the canonical ring is convex for the cone while
    every compatibility condition fails."""
    (P,) = sym_orderings(punits2)
    conv = convexity_check(punits2, P, punits2.valuation_ring())
    assert conv.convex and conv.violations == ()
    assert not compatible(punits2, canonical_valuation(punits2), P)


def test_tropical_rings_convex(tropical1):
    for P in sym_orderings(tropical1):
        conv = convexity_check(tropical1, P, tropical1.valuation_ring())
        assert conv.convex
        assert conv.to_json()["violations"] == []


def test_incomparability_default_pairs(monkeypatch):
    monkeypatch.delenv("HFW_SEED", raising=False)
    wits = incomparability_witnesses(count=5)
    assert len(wits) == 5
    first = wits[0]
    assert (first.x_label, first.y_label) == ("(+,1)", "(+,0)")
    assert first.x_minus_y[:3] == (2, 1, 1)
    assert first.y_minus_x[:3] == (3, 2, 1)
    seen = set()
    for w in wits:
        assert (w.x_label, w.y_label) not in seen
        seen.add((w.x_label, w.y_label))
        _check_incomparability_witness(w)


def test_incomparability_seeded_sample_still_sound(monkeypatch):
    monkeypatch.setenv("HFW_SEED", "7")
    wits = incomparability_witnesses(count=5)
    assert len(wits) == 5
    for w in wits:
        _check_incomparability_witness(w)


def _searched_difference(p, vx, vy, height):
    """The height-bounded search that the closed form replaced: the first
    u = t*p^vx, w = s*p^vy (t, s prime to p) with u - w in a positive class."""
    T = QSubgroup("punits", p)
    for t in range(1, height + 1):
        for s in range(1, height + 1):
            u, w = t * p**vx, s * p**vy
            if t % p and s % p and u > w:
                cls = q_factor_class(Fraction(u - w), T)
                if cls.sign() > 0:
                    return (Fraction(u), Fraction(w), Fraction(u - w), cls.label())
    return None


def test_difference_closed_form_matches_search():
    cases = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 9):
            for m in range(n):
                height = p ** (n - m) + 2
                if height > 400:
                    continue
                for vx, vy in ((n, m), (m, n)):
                    assert compat._difference_member(p, vx, vy) == _searched_difference(p, vx, vy, height)
                    cases += 1
    assert cases == 216


def test_incomparability_at_odd_primes_and_wide_gaps(monkeypatch):
    monkeypatch.delenv("HFW_SEED", raising=False)
    for p in (3, 5, 7):
        wits = incomparability_witnesses(count=5, p=p)
        assert ("(+,3)", "(+,0)") in [(w.x_label, w.y_label) for w in wits]  # gap 3 needs t > p^3
        for w in wits:
            _check_incomparability_witness(w, QSubgroup("punits", p))
    monkeypatch.setenv("HFW_SEED", "11")
    for w in incomparability_witnesses(count=36, p=7):
        _check_incomparability_witness(w, QSubgroup("punits", 7))


def _check_incomparability_witness(w, T=PU2):
    u, w1, d, cls = w.x_minus_y
    assert d == u - w1 and d > 0
    assert q_factor_class(Fraction(u), T).label() == w.x_label
    assert q_factor_class(Fraction(w1), T).label() == w.y_label
    assert q_factor_class(Fraction(d), T).label() == cls
    u2, w2, d2, cls2 = w.y_minus_x
    assert d2 == u2 - w2 and d2 > 0
    assert q_factor_class(Fraction(u2), T).label() == w.y_label
    assert q_factor_class(Fraction(w2), T).label() == w.x_label
    assert q_factor_class(Fraction(d2), T).label() == cls2


def test_lift_tropical_rank_one(tropical1):
    v = canonical_valuation(tropical1)
    res = sym_residue(tropical1)
    (pbar,) = enumerate_orderings(res.structure)
    lifts = lift_ordering(tropical1, v, pbar, all_extensions=True)
    assert [P.label() for P in lifts] == ["P(+)", "P(-)"]
    greedy = lift_ordering(tropical1, v, pbar)
    assert [P.label() for P in greedy] == ["P(+)"]


def test_lift_tropical_rank_two(tropical2):
    v = canonical_valuation(tropical2)
    res = sym_residue(tropical2)
    (pbar,) = enumerate_orderings(res.structure)
    lifts = lift_ordering(tropical2, v, pbar, all_extensions=True)
    assert len(lifts) == 4


def test_lift_refuses_non_real_residue(punits2):
    with pytest.raises(DomainError):
        lift_ordering(punits2, canonical_valuation(punits2), frozenset({1}))


def test_lift_finite_trivial_valuation():
    S = sign_hyperfield()
    v = trivial_valuation_on(S)
    lifts = lift_ordering(S, v, frozenset({1}), all_extensions=True)
    assert lifts == [frozenset({1})]


@pytest.mark.parametrize("entry", [
    lambda S, v: natural_valuation(S, {1}),
    lambda S, v: residue_ordering_archimedean_check(S, {1}),
    lambda S, v: compatibility_report(S, v, {1}),
    lambda S, v: lift_ordering(S, v, {1}),
])
def test_finite_entry_points_check_the_ring_once(count_calls, entry):
    """One ring record per call, and the valuation checked at most once."""
    S = sign_hyperfield()
    v = trivial_valuation_on(S)
    calls, _ = count_calls([valtheory._ring_pass, valtheory.is_valuation], lambda: entry(S, v))
    assert calls[("_ring_pass", "sign")] == 1
    assert calls[("is_valuation", "sign")] <= 1


def test_trivial_symbolic_lift_is_the_cone_itself(tropical1):
    (P, Q) = sym_orderings(tropical1)
    assert lift_ordering(tropical1, trivial_valuation(), Q) == [Q]


def test_characters():
    chars = characters_of(LexGroup(2))
    assert len(chars) == 4
    assert chars[0].label("chi") == "chi(++)"
    chi = SymOrdering((-1, 1))
    assert chi.chi((1, 0)) == -1
    assert chi.chi((2, 0)) == 1
    assert chi.chi((1, 1)) == -1
    for g1 in ((0, 1), (1, 2), (-1, 3)):
        for g2 in ((2, 2), (1, 0), (-3, 1)):
            total = (g1[0] + g2[0], g1[1] + g2[1])
            assert chi.chi(total) == chi.chi(g1) * chi.chi(g2)
    with pytest.raises(DomainError):
        SymOrdering((2, 1))


def test_baer_krull_forward_and_inverse(tropical1):
    v = canonical_valuation(tropical1)
    res = sym_residue(tropical1)
    (pbar,) = enumerate_orderings(res.structure)
    base = {pbar: lift_ordering(tropical1, v, pbar)[0]}
    Pp, Pm = sym_orderings(tropical1)
    cone1, chi1 = baer_krull_forward(tropical1, v, Pp, base)
    assert cone1 == pbar and chi1.images == (1,)
    cone2, chi2 = baer_krull_forward(tropical1, v, Pm, base)
    assert cone2 == pbar and chi2.images == (-1,)
    # inverse of the forward image is the original cone
    assert baer_krull_inverse(tropical1, v, cone2, chi2, base) == Pm
    assert baer_krull_inverse(tropical1, v, cone1, chi1, base) == Pp


def test_baer_krull_table_rank_one(tropical1):
    table = baer_krull_table(tropical1)
    assert table.count == 2  # one residue cone times two characters
    labels = [row[2] for row in table.rows]
    assert labels == ["P(+)", "P(-)"]
    data = table.to_json()
    assert data["residue_cone_count"] == 1
    assert data["character_count"] == 2


def test_baer_krull_table_rank_two(tropical2):
    table = baer_krull_table(tropical2)
    assert table.count == 4  # one residue cone times four characters
    assert len({row[2] for row in table.rows}) == 4


def test_baer_krull_table_empty_for_punits(punits2):
    table = baer_krull_table(punits2)
    assert table.count == 0
    assert table.rows == []


def test_window_cone_pattern_counts(tropical1, tropical2, punits2):
    assert window_cone_pattern_count(tropical1, B=4) == 2
    assert window_cone_pattern_count(tropical2, B=3) == 4
    assert window_cone_pattern_count(punits2, B=4) == 1
