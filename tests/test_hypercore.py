from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfw.constructions import (
    factor_hyperfield,
    factor_subgroup,
    field_f2,
    fp_squares,
    krasner_hyperfield,
    sign_hyperfield,
)
from hfw.hypercore import (
    EQUALITY_WITNESSES,
    DomainError,
    FiniteHyperstructure,
    HomomorphismSpec,
    check_canonical_hypergroup,
    check_double_distributivity,
    check_hyperfield,
    check_hyperring,
    check_homomorphism,
    find_isomorphism,
    add_table_mutants,
    hset,
    induced_subhyperring,
    kernel,
    mutation_coverage,
    zero_sum_theorem_holds,
)


def test_axiom_battery_passes_on_builtins(finite_builtins):
    for F in finite_builtins:
        rep = check_hyperfield(F)
        assert rep.ok, rep.summary()


def test_hypergroup_axioms_isolated():
    sg = sign_hyperfield()
    assert check_canonical_hypergroup(sg).ok
    assert check_hyperring(sg).ok


def test_add_must_contain_reversibility():
    # drop 1 from 1 + (-1) in the sign structure: reversibility breaks
    sg = sign_hyperfield()
    bad = sg.with_add_cell(1, 2, hset(0))
    rep = check_canonical_hypergroup(bad)
    assert not rep.ok
    assert "H4" in rep.counts or "H3" in rep.counts


def test_mutation_coverage_sign_is_total():
    total, caught, escapes = mutation_coverage(sign_hyperfield())
    assert total == 54
    assert caught == total
    assert escapes == []


def test_krasner_single_escape_is_the_two_element_field():
    # mutating the Krasner cell 1+1 from {0,1} to {0} yields the field F_2,
    # a hyperfield in its own right, so one mutant necessarily survives
    total, caught, escapes = mutation_coverage(krasner_hyperfield())
    assert total == 8
    assert caught == total - 1
    assert len(escapes) == 1
    (x, y, cell) = escapes[0]
    assert (x, y, set(cell)) == (1, 1, {0})
    mutant = krasner_hyperfield().with_add_cell(x, y, cell)
    assert find_isomorphism(mutant, field_f2()) is not None


def test_double_distributivity_inclusion_on_builtins(finite_builtins):
    saw_equality_failure = False
    for F in finite_builtins:
        rep = check_double_distributivity(F)
        assert rep.inclusion_ok, F.name
        saw_equality_failure = saw_equality_failure or bool(rep.equality_failures)
    assert saw_equality_failure, "no equality failure anywhere in the corpus"


def test_double_distributivity_equality_fails_on_f5_factor():
    from hfw.constructions import fp_squares

    F = fp_squares(5).structure
    rep = check_double_distributivity(F)
    assert rep.equality_failures


def _double_distributivity_by_frozensets(H):
    """The quadruple loop on frozensets: the right side folds set_add left to
    right, ((ac+ad)+bc)+bd.  Returns (inclusion failures, equality failures)."""
    add, mul = H.add_table, H.mul_table

    def plus(A, e):
        return frozenset().union(*(add[a][e] for a in A))

    incl, eq = [], []
    for a, b, c, d in product(H.elements(), repeat=4):
        lhs = frozenset(mul[s][t] for s in add[a][b] for t in add[c][d])
        rhs = plus(plus(plus(frozenset({mul[a][c]}), mul[a][d]), mul[b][c]), mul[b][d])
        if not lhs <= rhs:
            incl.append((a, b, c, d))
        elif lhs != rhs:
            eq.append((a, b, c, d))
    return incl, eq


def _small_factor_tables():
    """Every F_p/T of at most 13 elements."""
    out = []
    for p in (q for q in range(2, 102) if all(q % d for d in range(2, q))):
        seen = set()
        for g in range(1, p):
            T = factor_subgroup(p, [g])
            if T not in seen and (p - 1) // len(T) + 1 <= 13:
                seen.add(T)
                out.append(factor_hyperfield(p, [g]).structure)
    return out


def test_double_distributivity_matches_frozenset_route(enumerated_small):
    structures = [F for n in (2, 3, 4) for F in enumerated_small[n]] + _small_factor_tables()
    for base in (sign_hyperfield(), krasner_hyperfield(), fp_squares(5).structure):
        structures += [mutant for _, _, _, mutant in add_table_mutants(base)]
    inclusion_failed = 0
    for H in structures:
        incl, eq = _double_distributivity_by_frozensets(H)
        rep = check_double_distributivity(H)
        assert rep.inclusion_ok == (not incl), H.name
        assert rep.inclusion_failures == tuple(incl), H.name
        assert rep.equality_failure_count == len(eq), H.name
        assert rep.equality_failures == tuple(eq[:EQUALITY_WITNESSES]), H.name
        inclusion_failed += bool(incl)
    assert inclusion_failed, "no structure in the corpus fails inclusion"


def test_double_distributivity_makes_no_calls_per_quadruple(count_calls):
    H = factor_hyperfield(61, [9]).structure
    assert H.size == 13
    S = FiniteHyperstructure
    calls, rep = count_calls([S.add, S.mul, S._check_index, S.set_add, S.set_mul],
                             lambda: check_double_distributivity(H))
    assert rep.inclusion_ok and rep.equality_failure_count
    assert sum(calls.values()) < H.size ** 2, calls


def test_violation_details_formatted_only_when_kept(count_calls):
    n = 6  # x + y = {x}: neither commutative nor reversible
    H = FiniteHyperstructure(
        name="left", labels=tuple(map(str, range(n))), zero=0, one=1, neg_table=tuple(range(n)),
        mul_table=tuple(tuple(a * b % n for b in range(n)) for a in range(n)),
        add_table=tuple(tuple(hset(x) for _ in range(n)) for x in range(n)),
    )
    calls, rep = count_calls([FiniteHyperstructure.label], lambda: check_hyperfield(H, max_witnesses=1))
    kept = len(rep.violations)
    assert sum(rep.counts.values()) > 10 * kept
    # a detail names at most 8 elements
    assert sum(calls.values()) <= 8 * kept


def test_homomorphism_identity_and_kernel():
    sg = sign_hyperfield()
    ident = HomomorphismSpec(sg, sg, (0, 1, 2))
    rep = check_homomorphism(ident, strict=True)
    assert rep.ok
    assert kernel(ident) == frozenset({0})


def test_homomorphism_rejects_non_multiplicative():
    sg = sign_hyperfield()
    swap = HomomorphismSpec(sg, sg, (0, 2, 1))  # sends 1 to -1
    rep = check_homomorphism(swap)
    assert not rep.ok


def test_find_isomorphism_instances():
    assert find_isomorphism(sign_hyperfield(), sign_hyperfield()) is not None
    assert find_isomorphism(field_f2(), field_f2()) is not None
    assert find_isomorphism(sign_hyperfield(), krasner_hyperfield()) is None


def test_induced_subhyperring():
    sg = sign_hyperfield()
    whole = induced_subhyperring(sg, {0, 1, 2})
    assert whole is not None and whole.strict
    # {0, 1} is multiplicatively fine but 1 + (-1) leaves it, and the
    # induced object drops that: still a subhyperring test via closure
    assert induced_subhyperring(sg, {0, 1}) is None


def test_zero_sum_theorem_on_builtins(finite_builtins):
    for F in finite_builtins:
        assert zero_sum_theorem_holds(F), F.name


def test_json_round_trip(finite_builtins):
    for F in finite_builtins:
        G = FiniteHyperstructure.from_json(F.to_json())
        assert G.labels == F.labels
        assert G.add_table == F.add_table
        assert check_hyperfield(G).ok


def test_index_guard():
    sg = sign_hyperfield()
    with pytest.raises(DomainError):
        sg.add(0, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.sets(st.integers(0, 2), min_size=1))
def test_mutants_never_slip_through_silently(x, y, cell):
    """Any single-cell rewrite of the sign table either reproduces the
    original cell or is rejected by the battery."""
    sg = sign_hyperfield()
    new = frozenset(cell)
    if new == sg.add(x, y):
        return
    mutant = sg.with_add_cell(x, y, new)
    assert not check_hyperfield(mutant).ok
