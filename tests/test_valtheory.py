import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from hfw import constructions, hypercore
from hfw.hypercore import DomainError, check_hyperfield, find_isomorphism, induced_subhyperring
from hfw.constructions import (
    QSubgroup,
    factor_hyperfield,
    fp_squares,
    prime_field_hyperfield,
    sign_hyperfield,
)
from hfw.sgntrop import (
    ALL,
    canonical_valuation,
    make_stset,
    st,
    sym_is_valuation,
    sym_subset,
    trivial_valuation,
)
from hfw.valtheory import (
    LexGroup,
    Valuation,
    enumerate_valuation_hyperrings,
    induced_valuation_on_factor,
    inclusion_reversal_check,
    is_valuation,
    is_valuation_hyperring,
    residue_hyperfield,
    ring_from_valuation,
    sym_valuation_from_ring,
    trivial_valuation_on,
    valuation_from_hyperring,
    valuation_report,
    valuations_equivalent,
)


def test_trivial_valuation_on_builtins(finite_builtins):
    for F in finite_builtins:
        v = trivial_valuation_on(F)
        assert is_valuation(F, v).ok
        O, M = ring_from_valuation(F, v)
        assert O == frozenset(F.elements())
        assert M == frozenset({F.zero})


def test_proper_subset_is_not_a_valuation_ring():
    S = sign_hyperfield()
    rep = is_valuation_hyperring(S, {0, 1})
    assert not rep.ok
    assert "VR-inverse" in rep.counts  # -1 and its inverse both missing


def test_enumerate_rings_whole_carrier_only(finite_builtins):
    # the two 13-element hyperfields get the theorem's answer with no powerset sweep behind it
    for F in finite_builtins + [prime_field_hyperfield(13), factor_hyperfield(61, [9]).structure]:
        rings = enumerate_valuation_hyperrings(F)
        assert rings == [frozenset(F.elements())]
        assert inclusion_reversal_check([residue_hyperfield(F, O) for O in rings])


def test_enumerate_rings_of_non_hyperfields():
    small = prime_field_hyperfield(5).with_add_cell(1, 1, frozenset({2, 3}))
    assert not check_hyperfield(small).ok
    assert enumerate_valuation_hyperrings(small) == []  # the sweep still runs up to 8 elements
    large = prime_field_hyperfield(11).with_add_cell(1, 1, frozenset({2, 3}))
    assert not check_hyperfield(large).ok
    with pytest.raises(DomainError):
        enumerate_valuation_hyperrings(large)


def test_residue_runs_each_battery_once(monkeypatch):
    """One pass: the induced subring, the quotient and the residue's own
    battery are the only hyperring checks."""
    calls = []
    battery = hypercore.check_hyperring

    def counting(H, *args, **kwargs):
        calls.append(H.name)
        return battery(H, *args, **kwargs)

    monkeypatch.setattr(hypercore, "check_hyperring", counting)
    monkeypatch.setattr(constructions, "check_hyperring", counting)
    F = prime_field_hyperfield(13)
    res = residue_hyperfield(F, frozenset(F.elements()))
    assert res.structure.size == 13
    assert 0 < len(calls) <= 3


def test_round_trip_ring_to_valuation(finite_builtins):
    for F in finite_builtins:
        whole = frozenset(F.elements())
        v = valuation_from_hyperring(F, whole)
        assert is_valuation(F, v).ok
        O, M = ring_from_valuation(F, v)
        assert O == whole
        ideal = residue_hyperfield(F, whole).ideal
        assert M == ideal == frozenset({F.zero})
        # and back again: the rebuilt valuation compares like the original
        v2 = valuation_from_hyperring(F, O)
        assert valuations_equivalent(F, v, v2)
        assert valuations_equivalent(F, v, trivial_valuation_on(F))


def test_valuation_ring_strictness(finite_builtins):
    for F in finite_builtins:
        sub = induced_subhyperring(F, frozenset(F.elements()))
        assert sub is not None and sub.strict


def test_bad_value_tables_are_caught():
    F = fp_squares(5).structure
    G = LexGroup(1)
    # multiplicativity breaks: [2]*[2] = [1] would need value 2, table says 0
    v = Valuation(F.name, G, (None, (0,), (1,)))
    rep = is_valuation(F, v)
    assert not rep.ok and "V2" in rep.counts
    # ultrametric breaks: members of [1]+[1] = {[0],[2]} sit above min = 0 only
    # if v([2]) >= 0, so drive it negative on a positive-valued partner
    v2 = Valuation(F.name, G, (None, (0,), (-1,)))
    rep2 = is_valuation(F, v2)
    assert not rep2.ok


def test_value_missing_at_nonzero_is_rejected():
    S = sign_hyperfield()
    v = Valuation(S.name, LexGroup(0), (None, (), None))
    rep = is_valuation(S, v)
    assert not rep.ok and "V1" in rep.counts


def test_residue_of_whole_ring_is_the_structure(finite_builtins):
    for F in finite_builtins:
        res = residue_hyperfield(F, frozenset(F.elements()))
        assert res.structure.size == F.size
        assert find_isomorphism(res.structure, F) is not None
        assert res.ideal == frozenset({F.zero})
        assert res.class_of(F.one) == res.structure.one


def test_residue_class_of_rejects_outside_elements():
    F = fp_squares(5).structure
    res = residue_hyperfield(F, frozenset(F.elements()))
    with pytest.raises(DomainError):
        res.class_of(F.size + 3)


def test_valuation_report_shapes():
    S = sign_hyperfield()
    rep = valuation_report(S, trivial_valuation_on(S))
    assert rep["group_kind"] == "lex"
    assert rep["generators"] == []
    assert rep["table"][0] == {"element": "0", "value": "inf"}
    assert all(row["value"] in ("inf", "0") for row in rep["table"])

    v = valuation_from_hyperring(S, frozenset(S.elements()))
    rep2 = valuation_report(S, v)
    assert rep2["group_kind"] == "quotient"
    assert len(rep2["generators"]) == 1  # single unit coset


def test_sym_ring_round_trip(tropical1, tropical2, punits2):
    for H in (tropical1, tropical2, punits2):
        v = canonical_valuation(H)
        assert sym_is_valuation(H, v, B=3).ok
        O = H.valuation_ring()
        rebuilt = sym_valuation_from_ring(H, O)
        assert rebuilt == v
        assert sym_valuation_from_ring(H, ALL) == trivial_valuation()
        with pytest.raises(DomainError):
            sym_valuation_from_ring(H, H.valuation_ideal())


def test_sym_inclusion_reversal(tropical1):
    H = tropical1
    O_canonical = H.valuation_ring()
    M_canonical = H.valuation_ideal()
    M_trivial = make_stset(has_zero=True)
    # smaller ring, larger ideal
    assert sym_subset(O_canonical, ALL)
    assert sym_subset(M_trivial, M_canonical)
    assert not sym_subset(M_canonical, M_trivial)
    assert sym_subset(M_canonical, O_canonical)


def test_induced_valuation_on_punits_factor():
    for p in (2, 3):
        H, v = induced_valuation_on_factor(p, QSubgroup("punits", p))
        assert H.p == p
        assert v.prefix == 1
        assert v.value(st(1, 3)) == (3,)
        assert v.value(st(-1, 3)) == (3,)


def test_induced_valuation_rejects_mismatched_subgroup():
    with pytest.raises(DomainError):
        induced_valuation_on_factor(3, QSubgroup("punits", 2))
    with pytest.raises(DomainError):
        induced_valuation_on_factor(2, QSubgroup("squares"))


@settings(max_examples=80, deadline=None)
@given(
    strat.tuples(strat.integers(-9, 9), strat.integers(-9, 9)),
    strat.tuples(strat.integers(-9, 9), strat.integers(-9, 9)),
    strat.tuples(strat.integers(-9, 9), strat.integers(-9, 9)),
)
def test_lex_group_is_ordered_abelian(a, b, c):
    G = LexGroup(2)
    assert G.le(a, b) or G.le(b, a)
    if G.le(a, b) and G.le(b, a):
        assert a == b
    if G.le(a, b):
        assert G.le(G.add(a, c), G.add(b, c))
    assert G.add(a, G.neg(a)) == G.zero()
