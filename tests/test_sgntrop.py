import inspect
from itertools import product
import types

from hypothesis import given, settings
from hypothesis import strategies as strat

from hfw import sgntrop
from hfw.hypercore import ViolationReport, find_isomorphism, check_homomorphism
from hfw.sgntrop import (
    ALL,
    STElem,
    STSet,
    SignedValueHyperfield,
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
    st_singleton,
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


def test_equal_values_are_one_object():
    assert STElem(1, (0,)) is st(1, 0)
    assert STSet(frozenset(), None, None, True) is make_stset(has_zero=True)
    assert make_stset([st(1, 4)], pos_ball=(3,)) is make_stset(pos_ball=(3,))
    # equal results computed on separate structures, in either orientation
    H1, H2 = signed_tropical(1), signed_tropical(1)
    ball = H1.add(st(1, 1), st(-1, 1))
    assert ball is H2.add(st(-1, 1), st(1, 1))
    assert H1.set_add(ball, st_singleton(st(1, 0))) is H2.set_add(st_singleton(st(1, 0)), ball)
    assert H1.set_mul(ball, st_singleton(st(-1, 2))) is H2.set_mul(st_singleton(st(-1, 2)), ball)
    # a patched row built with the constructor is the shared object too
    both = STSet(frozenset({st(1, 0), st(-1, 0)}), None, None, False)

    def patch(H, a, b):
        return STSet({a, b.neg()}, None, None, False) if {a, b} == {st(1, 0)} else None

    P = SignedValueHyperfield("punits", p=3, row_patch=patch)
    assert P.add(st(1, 0), st(1, 0)) is both is make_stset([st(-1, 0), st(1, 0)])
    assert P.set_add(st_singleton(st(1, 0)), st_singleton(st(1, 0))) is both


def _by_value(S):
    """A set by value: its members as (sign, value) pairs, tails and zero flag."""
    return frozenset((e.sign, e.gamma) for e in S.finite), S.pos_ball, S.neg_ball, S.has_zero


def _reference_axiom_check(H, B):
    """st_axiom_check's quantifiers with every set and element compared and
    memoised by value, not by identity."""
    rep = ViolationReport(H.name, max_per_axiom=10)
    elems = H.window_elements(B, include_zero=True)
    key = {e: (e.sign, e.gamma) for e in elems}
    sing = {key[e]: st_singleton(e) for e in elems}
    n = len(elems)
    for i, x in enumerate(elems):
        for y in elems[i:]:
            if _by_value(H.add(x, y)) != _by_value(H.add(y, x)):
                rep.record("H2", (str(x), str(y)), "sum not commutative")
    rows, sums, samples, backs, lhss = {}, {}, {}, {}, {}

    def row(a, b):
        k = ((a.sign, a.gamma), (b.sign, b.gamma))
        if k not in rows:
            rows[k] = rows[k[::-1]] = H.add(a, b)
        return rows[k]

    def plus(S, e):
        k = (_by_value(S), key[e])
        if k not in sums:
            sums[k] = H.set_add(S, sing[key[e]])
        return _by_value(sums[k])

    for i in range(n):
        for j in range(i, n):
            for l in range(j, n):
                x, y, z = elems[i], elems[j], elems[l]
                t1 = plus(row(x, y), z)
                if t1 != plus(row(y, z), x) or t1 != plus(row(x, z), y):
                    rep.record("H1", (str(x), str(y), str(z)), "set sum not associative")
    neg = {key[e]: e.neg() for e in elems}
    for x in elems:
        negs = [y for y in elems if row(x, y).has_zero]
        if key[neg[key[x]]] not in [key[y] for y in negs]:
            rep.record("H3", (str(x),), "0 not in x + (-x)")
        for y in negs:
            if key[y] != key[neg[key[x]]]:
                rep.record("H3-unique", (str(x), str(y)), "second negative in window")
    for x in elems:
        nx = neg[key[x]]
        for y in elems:
            S = row(x, y)
            for z in samples.setdefault(_by_value(S), S.sample_members()):
                k = ((z.sign, z.gamma), key[nx])
                if k not in backs:
                    backs[k] = H.set_add(st_singleton(z), sing[key[nx]])
                if not backs[k].contains(y):
                    rep.record("H4", (str(x), str(y), str(z)), "reversibility fails")
    mulc = {(key[x], key[y]): st_mul(x, y) for x in elems for y in elems}
    for x in elems[1:]:
        for y in elems[1:]:
            if mulc[key[x], key[y]].is_zero():
                rep.record("F-closure", (str(x), str(y)), "zero divisor")
    for i in range(n):
        for j in range(i, n):
            x, y = elems[i], elems[j]
            rxy = row(x, y)
            for z in elems:
                k = (key[z], _by_value(rxy))
                if k not in lhss:
                    lhss[k] = H.set_mul(sing[key[z]], rxy)
                rhs = row(mulc[key[z], key[x]], mulc[key[z], key[y]])
                if _by_value(lhss[k]) != _by_value(rhs):
                    rep.record("R3", (str(z), str(x), str(y)), "distributivity fails")
    for x in elems[1:]:
        u, v = st_mul(x, x.inv()), st_mul(H.one, x)
        if (u.sign, u.gamma) != key[H.one]:
            rep.record("F-inverse", (str(x),), "inverse fails")
        if (v.sign, v.gamma) != key[x]:
            rep.record("R2-unity", (str(x),), "unity fails")
    return rep


def _patched(kind, cells, p=None):
    """A structure whose rows at the given (x, y) cells are replaced;
    cells maps a pair to its new set, and an unordered pair patches both
    orientations."""
    def patch(H, a, b):
        return cells.get((a, b), cells.get(frozenset((a, b))))

    return SignedValueHyperfield(kind, p=p, row_patch=patch)


_SINGLE_CELL_MUTANTS = {
    "sgntrop(1)": lambda: signed_tropical(1),
    "q_p_units(2)": lambda: q_punits_hyperfield(2),
    # 1 + (-1) = {0}: the field-like cell breaks associativity and reversibility
    "sgntrop(1)*1-1": lambda: _patched("tropical", {frozenset((st(1, 0), st(-1, 0))): make_stset(has_zero=True)}),
    # 1 + 1 gains -1
    "sgntrop(1)*11": lambda: _patched("tropical", {(st(1, 0), st(1, 0)): make_stset([st(1, 0), st(-1, 0)])}),
    # (+,0) + (+,1) = {(+,1)}, only in that orientation: commutativity fails too
    "sgntrop(1)*01": lambda: _patched("tropical", {(st(1, 0), st(1, 1)): st_singleton(st(1, 1))}),
    # (+,2) + (-,2) = {(+,2)}, only in that orientation: at B = 1 the cell lies
    # outside the window, and R3 meets it as a sum of two products
    "sgntrop(1)*2-2": lambda: _patched("tropical", {(st(1, 2), st(-1, 2)): st_singleton(st(1, 2))}),
    # 1 + 1 keeps value 0 on the 2-adic structure
    "q_p_units(2)*11": lambda: _patched("punits", {frozenset((st(1, 0),)): make_stset(pos_ball=(0,))}, p=2),
    # (+,0) + (-,1) loses (-,0)
    "q_p_units(2)*0-1": lambda: _patched("punits", {frozenset((st(1, 0), st(-1, 1))): st_singleton(st(1, 0))}, p=2),
}


def test_axiom_check_matches_check_by_value():
    """Identity comparisons give the verdicts, counts and witnesses that
    comparing by value gives, on the builtins and on single-cell mutants
    failing H1, H4 and R3."""
    failed = set()
    for name, build in _SINGLE_CELL_MUTANTS.items():
        for B in (1, 2):
            got = st_axiom_check(build(), B=B).to_json()
            assert got == _reference_axiom_check(build(), B).to_json(), (name, B)
            failed |= set(got["counts"])
    assert {"H1", "H2", "H4", "R3"} <= failed, failed


def _code_objects(module):
    """Every function body defined in module, nested ones included."""
    funcs = []
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for attr in vars(obj).values():
                funcs += [attr, getattr(attr, "__func__", None), getattr(attr, "fget", None)]
        funcs.append(obj)
    stack = [f.__code__ for f in funcs if inspect.isfunction(f) and f.__module__ == module.__name__]
    codes = set()
    while stack:
        code = stack.pop()
        if code not in codes:
            codes.add(code)
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return codes


def test_axiom_check_makes_no_calls_per_triple(count_calls):
    """Once a structure's rows, sums and products are cached, a second check
    reads them with dict lookups: fewer calls into sgntrop than there are
    sorted triples in the window."""
    H = signed_tropical(2)
    first = st_axiom_check(H, B=2)
    funcs = [types.SimpleNamespace(__code__=c, __name__=c.co_name) for c in _code_objects(sgntrop)]
    calls, rep = count_calls(funcs, lambda: st_axiom_check(H, B=2))
    n = len(H.window_elements(2, include_zero=True))
    assert rep.to_json() == first.to_json() and rep.ok
    assert sum(calls.values()) < n * (n + 1) * (n + 2) // 6, calls.most_common(5)


def _reference_is_ordering(H, P, B):
    """sym_is_ordering's sweep with a Python call per pair: membership,
    rows and products recomputed for each pair of window elements."""
    window = H.window_elements(B)
    ok, witness = True, None
    for x in window:
        if not P.contains(x):
            continue
        for y in window:
            if not P.contains(y):
                continue
            if not P.contains_set(H.add(x, y)) or not P.contains(st_mul(x, y)):
                ok, witness = False, (x, y)
                break
        if not ok:
            break
    by_cases, case_witness = sgntrop.sym_ordering_case_analysis(H, P)
    if by_cases != ok:
        raise sgntrop.InternalCheckError(
            "ordering verdicts disagree for %s on %s: window=%s cases=%s (witness %s/%s)"
            % (P.label(), H.name, ok, by_cases, witness, case_witness))
    return ok


def _reference_is_valuation(H, v, B):
    """sym_is_valuation's sweep with values, products and bounds recomputed
    for each pair of window elements."""
    rep = ViolationReport("%s with %s" % (H.name, v.label()), max_per_axiom=10)
    window = H.window_elements(B)
    for x in window:
        for y in window:
            if v.value(st_mul(x, y)) != sgntrop.gadd(v.value(x), v.value(y)):
                rep.record("V2", (str(x), str(y)), "value not additive on a product")
    if v.value(H.one) != (0,) * v.prefix:
        rep.record("V2", ("1",), "value of 1 not zero")
    for x in window:
        for y in window:
            m = min(v.value(x), v.value(y))
            S = H.add(x, y)
            if not sgntrop._set_values_at_least(S, v, m):
                rep.record("V3", (str(x), str(y)), "sum member below min value")
            if v.value(x) != v.value(y) and not sgntrop._set_values_exactly(S, v, m):
                rep.record("V3-sharp", (str(x), str(y)), "distinct values but sum not pinned at min")
    for x in window:
        if v.value(x.neg()) != v.value(x):
            rep.record("V-neg", (str(x),), "value changed by negation")
        if v.value(x.inv()) != sgntrop.gneg(v.value(x)):
            rep.record("V-inv", (str(x),), "value of inverse not negated")
    return rep


def _verdict(f, *args):
    """f's result, or the cross-check it failed with its message (on some
    mutants the case analysis fails its own assertion)."""
    try:
        return f(*args)
    except (sgntrop.InternalCheckError, AssertionError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


# the builtins at the windows the benchmark catalogue uses for orderings and
# valuations, then the single-cell mutants at rank-1 windows
_SWEEP_WINDOWS = [
    (lambda: signed_tropical(1), (2, 3, 4, 5, 6), (4,)),
    (lambda: signed_tropical(2), (2, 3), (2, 3)),
    (lambda: signed_tropical(3), (1, 2), (1,)),
] + [(lambda p=p: q_punits_hyperfield(p), (2, 4, 6), (4,)) for p in (2, 3, 5, 7)] + [
    (build, (1, 2, 4), (1, 4)) for name, build in _SINGLE_CELL_MUTANTS.items() if "*" in name]


def test_window_sweeps_match_reference_loops():
    """The table-driven ordering and valuation sweeps give the verdicts,
    cross-check failures, counts and witnesses of the per-pair loops."""
    failed, raised = set(), 0
    for build, ordering_windows, valuation_windows in _SWEEP_WINDOWS:
        H = build()
        for B in ordering_windows:
            for images in product((1, -1), repeat=H.k):
                P = SymOrdering(images)
                got = _verdict(sym_is_ordering, H, P, B)
                assert got == _verdict(_reference_is_ordering, H, P, B), (H.name, P.label(), B)
                raised += isinstance(got, str)
        vals = [sgntrop.trivial_valuation(), canonical_valuation(H),
                SymValuation(prefix=H.k, neg_shift=1), SymValuation(prefix=1, neg_shift=-2)]
        for B in valuation_windows:
            for v in vals:
                got = sym_is_valuation(H, v, B).to_json()
                assert got == _reference_is_valuation(H, v, B).to_json(), (H.name, v, B)
                failed |= set(got["counts"])
    # the mutants reach the cross-check, and the shifted valuations fail V2 and V3
    assert raised and {"V2", "V3", "V3-sharp"} <= failed, (raised, failed)


def _window_pairs_and_calls(count_calls, sweep):
    """Calls into sgntrop of a second, warm run of sweep(H, B) on sgntrop(2)
    at B = 3, with the number of ordered window pairs."""
    H = signed_tropical(2)
    first = sweep(H, 3)
    funcs = [types.SimpleNamespace(__code__=c, __name__=c.co_name) for c in _code_objects(sgntrop)]
    calls, again = count_calls(funcs, lambda: sweep(H, 3))
    assert again == first
    return len(H.window_elements(3)) ** 2, calls


def test_ordering_sweep_makes_no_calls_per_pair(count_calls):
    for images in ((1, 1), (-1, 1)):
        pairs, calls = _window_pairs_and_calls(
            count_calls, lambda H, B: sym_is_ordering(H, SymOrdering(images), B))
        assert sum(calls.values()) < pairs // 4, calls.most_common(5)


def test_valuation_sweep_makes_no_calls_per_pair(count_calls):
    for v in (sgntrop.trivial_valuation(), SymValuation(prefix=2)):
        pairs, calls = _window_pairs_and_calls(
            count_calls, lambda H, B: sym_is_valuation(H, v, B).to_json())
        assert sum(calls.values()) < pairs // 2, calls.most_common(5)


def test_patched_set_sums_do_not_depend_on_call_order():
    """A patched row need not commute, so a set sum is cached for the
    orientation it was asked in only: with (+,0) + (+,1) patched to {(+,1)},
    either call order gives the same sets and the same H1 witnesses."""
    one, two = st_singleton(st(1, 0)), st_singleton(st(1, 1))
    build = _SINGLE_CELL_MUTANTS["sgntrop(1)*01"]
    results = []
    for order in ((one, two), (two, one)):
        H = build()
        sums = {(A, B): H.set_add(A, B) for A, B in (order, order[::-1])}
        rep = st_axiom_check(H, B=2).to_json()
        results.append((sums, [w for w in rep["violations"] if w["axiom"] == "H1"], rep))
    (sums1, h1_1, rep1), (sums2, h1_2, rep2) = results
    assert sums1 == sums2 and sums1[one, two] is two and sums1[two, one] is one
    assert h1_1 == h1_2 and h1_1 and rep1 == rep2
