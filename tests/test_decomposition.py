from collections import Counter

import pytest

from finsemi import (
    NotACongruence,
    canonical_form,
    chain_semilattice,
    classify,
    cyclic_group,
    decompose,
    is_quasi_separative,
    is_semilattice,
    left_zero,
    monogenic,
    null_semigroup,
    run_checks,
    search_cor15_converse,
    strictness_witnesses,
    validate,
)
from finsemi.decomposition import (
    CHECK_IDS,
    CHECKS,
    diagram_report,
    merge_reports,
    normalize_check_id,
    verify_balanced_cancellation,
    verify_cancellative_components,
    verify_class_separation,
    verify_congruence_construction,
    verify_corpus,
    verify_semilattice_decomposition,
    verify_separative_cancellation,
    verify_square_descent_claim,
    verify_table_diagram,
    verify_weakly_cancellative_components,
)

import oracles

L2 = left_zero(2)
Z2 = cyclic_group(2)
CHAIN2 = chain_semilattice(2)
N2 = null_semigroup(2)


def test_decompose_chain():
    d = decompose(CHAIN2)
    assert d.congruence.classes == ((0,), (1,))
    assert d.quotient == CHAIN2
    assert d.quotient_is_semilattice
    assert all(c is not None and c.table.n == 1 for c in d.components)


def test_decompose_left_zero():
    d = decompose(L2)
    assert d.congruence.classes == ((0, 1),)
    assert d.quotient.rows == ((0,),)
    assert d.components[0].table == L2
    assert d.components[0].elements == (0, 1)


def test_decompose_group():
    d = decompose(Z2)
    assert len(d.components) == 1
    assert d.components[0].table == Z2


def test_decompose_components_are_closed_subsemigroups():
    for s in oracles.corpus_up_to(3):
        try:
            d = decompose(s)
        except NotACongruence:
            continue
        for comp in d.components:
            if comp is None:
                continue
            members = set(comp.elements)
            for x in comp.elements:
                for y in comp.elements:
                    assert s.mul(x, y) in members
            # back-map transports the component product to the source
            for i, gi in enumerate(comp.elements):
                for j, gj in enumerate(comp.elements):
                    assert comp.elements[comp.table.mul(i, j)] == s.mul(gi, gj)


def test_decompose_never_raises_on_quasi_separative():
    for s in oracles.corpus_up_to(3):
        if is_quasi_separative(s)[0]:
            d = decompose(s)
            assert d.quotient_is_semilattice
            assert all(c is not None for c in d.components)


def test_decompose_reports_non_congruence_cases_as_data():
    failures = 0
    non_semilattice = 0
    for s in oracles.corpus_up_to(3):
        try:
            d = decompose(s)
        except NotACongruence:
            failures += 1
            continue
        if not d.quotient_is_semilattice:
            non_semilattice += 1
    print(
        f"order <= 3 decomposition data: {failures} non-congruences, "
        f"{non_semilattice} non-semilattice quotients"
    )


def test_verify_congruence_construction():
    for s in (L2, Z2, CHAIN2, N2, monogenic(3, 1)):
        r = verify_congruence_construction(s)
        assert r.verdict == "verified"
        assert dict(r.counts)["relations_checked"] >= 1


def test_verify_semilattice_decomposition_examples():
    assert verify_semilattice_decomposition(L2).verdict == "verified"
    assert verify_semilattice_decomposition(CHAIN2).verdict == "verified"
    assert verify_semilattice_decomposition(N2).verdict == "not-applicable"


def test_verify_class_separation_examples():
    assert verify_class_separation(L2).verdict == "verified"
    assert verify_class_separation(Z2).verdict == "verified"
    assert verify_class_separation(CHAIN2).verdict == "verified"
    assert verify_class_separation(N2).verdict == "not-applicable"


def test_verify_cancellation_propositions():
    assert verify_separative_cancellation(Z2).verdict == "verified"
    assert verify_separative_cancellation(L2).verdict == "not-applicable"
    assert verify_balanced_cancellation(Z2).verdict == "verified"
    assert verify_balanced_cancellation(N2).verdict == "not-applicable"


def test_verify_component_corollaries():
    z2x = oracles.direct_product(Z2, CHAIN2)
    for s in (CHAIN2, Z2, z2x):
        assert verify_cancellative_components(s).verdict == "verified"
        assert verify_weakly_cancellative_components(s).verdict == "verified"
    d = decompose(z2x)
    assert len(d.components) == 2
    for comp in d.components:
        assert canonical_form(comp.table) == canonical_form(Z2)
    assert verify_cancellative_components(L2).verdict == "not-applicable"


def test_verify_square_descent_claim():
    assert verify_square_descent_claim(L2).verdict == "verified"
    assert verify_square_descent_claim(Z2).verdict == "verified"
    r = verify_square_descent_claim(monogenic(3, 1))
    assert r.verdict == "not-applicable"
    from finsemi import has_square_descent

    assert not has_square_descent(monogenic(3, 1))[0]


def test_verify_diagram_per_table():
    assert verify_table_diagram(L2).verdict == "verified"
    counts = dict(verify_table_diagram(Z2).counts)
    assert counts["cancellative->separative"] == 1
    # the trivial table satisfies every hypothesis
    assert verify_table_diagram(validate([[0]])).verdict == "verified"


def test_diagram_report_flags_fabricated_violation():
    from finsemi import PropertyProfile

    fake = PropertyProfile(
        commutative=True,
        band=False,
        cancellative=True,
        left_cancellative=True,
        right_cancellative=True,
        separative=False,
        quasi_separative=True,
        weakly_cancellative=True,
        weakly_balanced=True,
        quasi_cancellative=True,
        square_descent=True,
    )
    r = diagram_report(fake)
    assert r.verdict == "violated"
    assert ("cancellative->separative",) in r.witnesses


def test_strictness_witnesses_all_hold():
    rows = strictness_witnesses()
    assert len(rows) == 4
    assert all(holds for _, _, holds in rows)
    names = [name for name, _, _ in rows]
    assert names == [
        "left_zero(2)",
        "chain_semilattice(2)",
        "null_semigroup(2)",
        "bicyclic monoid",
    ]


def test_run_checks_corpus_order2():
    tables = list(oracles.labeled_corpus(2))
    reports = run_checks(tables, ["t4", "t6", "diagram"])
    by_id = {r.check: r for r in reports}
    assert by_id["t4"].verdict == "verified"
    assert dict(by_id["t4"].counts)["applicable"] == 8
    assert by_id["t6"].verdict == "verified"
    assert by_id["diagram"].verdict == "verified"


def test_run_checks_worker_counts_agree():
    tables = list(oracles.labeled_corpus(3))
    ids = ["t4", "t6", "p7", "c15", "diagram"]
    sequential = run_checks(tables, ids, workers=1)
    parallel = run_checks(tables, ids, workers=3)
    assert sequential == parallel


def test_merge_reports_is_order_insensitive_for_totals():
    tables = list(oracles.labeled_corpus(2))
    singles = [verify_congruence_construction(s) for s in tables]
    merged = merge_reports(singles)
    left = merge_reports([merge_reports(singles[:3]), merge_reports(singles[3:])])
    assert merged == left


def test_normalize_check_id():
    assert normalize_check_id("t10") == "t6"
    assert normalize_check_id("all") == "all"
    assert normalize_check_id("diagram") == "diagram"
    with pytest.raises(ValueError):
        normalize_check_id("t99")


def test_search_converse_exhausts_order_two():
    assert search_cor15_converse(2) is None


def test_search_converse_finds_order_three_witness():
    # the first hit is the two-element left-zero band with a zero
    # adjoined: quasi-separative, splits into weakly cancellative
    # components, yet not weakly balanced
    hit = search_cor15_converse(3)
    assert hit is not None
    assert hit.rows == ((0, 0, 0), (0, 1, 1), (0, 2, 2))
    assert search_cor15_converse(4) == hit
    # independent re-check of each clause
    from finsemi import is_weakly_balanced, is_weakly_cancellative

    assert is_quasi_separative(hit)[0]
    assert not is_weakly_balanced(hit)[0]
    d = decompose(hit)
    assert d.quotient_is_semilattice
    assert all(is_weakly_cancellative(c.table)[0] for c in d.components)


def test_search_converse_worker_counts_agree():
    assert search_cor15_converse(3, workers=2) == search_cor15_converse(3)
    assert search_cor15_converse(2, workers=2) is None


def test_search_converse_order_bounds():
    from finsemi import OrderTooLarge

    with pytest.raises(OrderTooLarge):
        search_cor15_converse(0)
    with pytest.raises(OrderTooLarge):
        search_cor15_converse(9)


def test_known_gap_components_are_not_always_quasi_cancellative():
    # Regression for a structural fact this suite uncovered: the
    # canonical-relation decomposition of a quasi-separative table can
    # produce a component that is not quasi-cancellative.  Elements
    # outside a class can separate pairs that are context-equivalent
    # inside it, so the component's own canonical relation need not
    # embed in the ambient one.  First witness at order 4:
    s = validate([[0, 0, 0, 0], [0, 1, 0, 1], [2, 2, 2, 2], [0, 1, 2, 3]])
    assert is_quasi_separative(s)[0]
    d = decompose(s)
    assert d.quotient_is_semilattice
    assert d.congruence.classes == ((0, 2), (1, 3))
    chain_component = d.components[1]
    assert chain_component.table == chain_semilattice(2)
    from finsemi import is_quasi_cancellative

    assert not is_quasi_cancellative(chain_component.table)[0]
    assert verify_semilattice_decomposition(s).verdict == "violated"
    # the phenomenon needs order 4: every smaller table conforms
    small = [
        verify_semilattice_decomposition(t)
        for t in oracles.corpus_up_to(3)
    ]
    assert all(r.verdict != "violated" for r in small)
    # the table still is a semilattice of quasi-separative
    # quasi-cancellative subsemigroups, via the finer partition
    # {0,2} {1} {3}; only the constructed decomposition misses it
    from finsemi import Congruence, quotient, is_semilattice

    finer = Congruence(4, (0, 1, 0, 2), ((0, 2), (1,), (3,)))
    assert is_semilattice(quotient(s, finer))


def test_known_gap_order4_violation_count():
    # exhaustively derived: exactly 48 labeled order-4 tables exhibit
    # the gap, and every witness is of the same kind
    violated = []
    for s in oracles.labeled_corpus(4):
        r = verify_semilattice_decomposition(s)
        if r.verdict == "violated":
            violated.append(r)
    assert len(violated) == 48
    assert all(
        w[0] == "component_not_quasi_cancellative"
        for r in violated
        for w in r.witnesses
    )


def test_run_checks_keeps_every_t6_witness():
    # the aggregate keeps all 48 misses of test_known_gap_order4_violation_count,
    # each tagged with its table, in corpus order
    tables = oracles.labeled_corpus(4)
    expected = [
        (s.rows, w) for s in tables for w in verify_semilattice_decomposition(s).witnesses
    ]
    (r,) = run_checks(tables, ["t6"])
    assert len(r.witnesses) == 48
    assert list(r.witnesses) == expected


def test_check_registry_complete():
    assert set(CHECKS) == {
        "t4",
        "t6",
        "p7",
        "p11",
        "p14",
        "c12",
        "c15",
        "square-descent",
        "diagram",
    }


def test_run_checks_decomposes_each_table_once_per_call(monkeypatch):
    import finsemi.decomposition as decomposition

    calls = []
    original = decomposition.decompose

    def counting(s):
        calls.append(s.rows)
        return original(s)

    monkeypatch.setattr(decomposition, "decompose", counting)
    tables = list(oracles.labeled_corpus(3))
    run_checks(tables, list(CHECKS))
    first = Counter(calls)
    assert first and max(first.values()) == 1
    # the facts die with the call: a second run decomposes again
    run_checks(tables, list(CHECKS))
    assert Counter(calls) == first + first


def test_run_checks_induces_each_congruence_once(monkeypatch):
    import finsemi.decomposition as decomposition

    calls = []
    original = decomposition.induced_congruence

    def counting(s, rel):
        calls.append((s.rows, rel.rows))
        return original(s, rel)

    monkeypatch.setattr(decomposition, "induced_congruence", counting)
    run_checks(list(oracles.labeled_corpus(3)), list(CHECKS))
    assert calls and max(Counter(calls).values()) == 1


def test_checks_and_classify_run_each_predicate_once_per_table(monkeypatch):
    import finsemi.properties as properties

    computed = Counter()
    tables = []  # keeps every counted table alive, so ids stay distinct
    for key, predicate in list(properties._PREDICATES.items()):
        def counting(s, key=key, predicate=predicate):
            computed[id(s), key] += 1
            tables.append(s)
            return predicate(s)

        monkeypatch.setitem(properties._PREDICATES, key, counting)
    sources = [validate(s.rows) for s in oracles.labeled_corpus(3)]
    for s in sources:
        for check in CHECKS.values():
            check(s)
        classify(s)
    # component tables were counted too
    assert {id(t) for t in tables} > {id(s) for s in sources}
    assert max(computed.values()) == 1


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace multiprocessing.Pool by a stub that records the requested
    process count and maps serially in this process; report 3 CPUs."""
    import multiprocessing
    import os

    requested = []

    class Pool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return requested


def test_pool_is_capped_by_cpus_and_chunks(recording_pool):
    tables = list(oracles.labeled_corpus(3))
    ids = ["t4", "t6", "p7", "c15", "diagram"]
    serial = run_checks(tables, ids)
    assert recording_pool == []
    assert run_checks(tables, ids, workers=100000) == serial
    assert run_checks(tables, ids, workers=2) == serial
    assert run_checks(tables[:2], ids, workers=100000) == run_checks(tables[:2], ids)
    assert search_cor15_converse(3, workers=100000) == search_cor15_converse(3)
    # order 1 (one table) runs here; order 2 has 4 tables, in chunks of 2
    assert recording_pool == [3, 2, 2, 2, 3]


def test_verify_corpus_equals_run_checks_over_labeled_tables(recording_pool):
    # the whole reports, every witness and its order included; three
    # chunks put the classes with t6 witnesses in different chunks; the
    # single class of order 1 starts no pool
    for n in (1, 2, 3, 4):
        labeled = run_checks(oracles.labeled_corpus(n), CHECK_IDS)
        assert verify_corpus(n, CHECK_IDS) == labeled
        assert verify_corpus(n, CHECK_IDS, workers=3) == labeled
    assert recording_pool == [3, 3, 3]


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_rejected(recording_pool, workers):
    tables = list(oracles.labeled_corpus(2))
    for given in (tables, []):
        with pytest.raises(ValueError, match=f"got {workers}"):
            run_checks(given, ["t4"], workers=workers)
    with pytest.raises(ValueError, match=f"got {workers}"):
        search_cor15_converse(2, workers=workers)
    with pytest.raises(ValueError, match=f"got {workers}"):
        verify_corpus(2, ["t4"], workers=workers)
    assert recording_pool == []
