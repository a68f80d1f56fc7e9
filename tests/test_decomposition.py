from collections import Counter
from dataclasses import fields
from itertools import permutations
import weakref

import pytest

from finsemi import (
    CayleyTable,
    admissible_candidates,
    canonical_form,
    canonical_relation,
    chain_semilattice,
    classify,
    cyclic_group,
    decompose,
    enumerate_canonical,
    is_band,
    is_commutative,
    is_quasi_separative,
    is_semilattice,
    left_zero,
    monogenic,
    null_semigroup,
    rectangular_band,
    run_checks,
    search_cor15_converse,
    strictness_witnesses,
    validate,
)
from finsemi.enumeration import _leader_keys, _relabeled_keys, _table
from finsemi.properties import _commutative_with_witness
from finsemi.decomposition import (
    CHECK_IDS,
    CHECKS,
    VerificationReport,
    _WITNESSES_SHOWN,
    _report,
    merge_reports,
    normalize_check_id,
    summarize_corpus,
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
    assert all(c is not None and c.n == 1 for c in d.components)


def test_decompose_left_zero():
    d = decompose(L2)
    assert d.congruence.classes == ((0, 1),)
    assert d.quotient.rows == ((0,),)
    assert d.components[0] == L2


def test_decompose_group():
    d = decompose(Z2)
    assert len(d.components) == 1
    assert d.components[0] == Z2


def test_result_records_store_only_their_evidence():
    import finsemi
    from finsemi.zoo import BicyclicBalanceWitness

    def names(record):
        return [f.name for f in fields(record)]

    assert names(finsemi.AdmissibilityReport) == [
        "balanced_witness",
        "left_witness",
        "right_witness",
    ]
    assert names(finsemi.Congruence) == ["classes"]
    assert names(BicyclicBalanceWitness) == ["a", "b", "x", "y"]
    assert not hasattr(finsemi, "Component")
    # each component is a table, or None for an unclosed class
    comps = [c for s in (L2, Z2, N2, monogenic(3, 1)) for c in decompose(s).components]
    assert sum(c is None for c in comps) == 1
    assert all(isinstance(c, CayleyTable) for c in comps if c is not None)


def test_decompose_components_are_closed_subsemigroups():
    # components and quotients are built without validate's associativity
    # scan, so the oracle checks each of them
    for s in oracles.corpus_up_to(4) + list(enumerate_canonical(5, "iso")):
        d = decompose(s)
        assert oracles.grid_is_associative(d.quotient.rows), s.rows
        for cls, comp in zip(d.congruence.classes, d.components):
            if comp is None:
                continue
            assert oracles.grid_is_associative(comp.rows), s.rows
            members = set(cls)
            for x in cls:
                for y in cls:
                    assert s.mul(x, y) in members
            # the class is the back-map: it transports the component
            # product to the source
            for i, gi in enumerate(cls):
                for j, gj in enumerate(cls):
                    assert cls[comp.mul(i, j)] == s.mul(gi, gj)


def test_decompose_never_raises_on_quasi_separative():
    for s in oracles.corpus_up_to(3):
        if is_quasi_separative(s)[0]:
            d = decompose(s)
            assert d.quotient_is_semilattice
            assert all(c is not None for c in d.components)


def test_verify_congruence_construction():
    for s in (L2, Z2, CHAIN2, N2, monogenic(3, 1)):
        r = verify_congruence_construction(s)
        assert r.verdict == "verified"
        assert dict(r.counts)["relations_checked"] >= 1


def test_admissible_full_relation_induces_a_congruence():
    # the last case of t4's argument, checked by the oracles: wherever the
    # full relation is admissible, the partition it induces is compatible
    for s in oracles.corpus_up_to(4) + list(enumerate_canonical(5, "iso")):
        full = {(x, y) for x in range(s.n) for y in range(s.n)}
        if oracles.naive_admissibility(s, full)[0]:
            classes = oracles.naive_induced_partition(s, full, "left")
            assert oracles.naive_compatibility_witness(s, classes) is None, s.rows


def test_verify_semilattice_decomposition_examples():
    assert verify_semilattice_decomposition(L2).verdict == "verified"
    assert verify_semilattice_decomposition(CHAIN2).verdict == "verified"
    assert verify_semilattice_decomposition(N2).verdict == "not-applicable"


def test_verify_class_separation_examples():
    assert verify_class_separation(L2).verdict == "verified"
    assert verify_class_separation(Z2).verdict == "verified"
    assert verify_class_separation(CHAIN2).verdict == "verified"
    assert verify_class_separation(N2).verdict == "not-applicable"


def test_class_separation_matches_the_literal_triple_loop(monkeypatch):
    # p7 scans only the members x related to another member of their
    # class; its witnesses must be those of the full triple loop, also
    # with its quasi-separative premise lifted so that it runs on every
    # table
    import finsemi.decomposition as decomposition

    canonical4 = list(enumerate_canonical(4))
    assert len(canonical4) == 126
    tables = oracles.corpus_up_to(3) + canonical4 + oracles.zoo_tables()
    expected = [
        oracles.literal_class_separation(s, decompose(s).congruence.classes)
        for s in tables
    ]
    applicable = 0
    for s, witnesses in zip(tables, expected):
        r = verify_class_separation(s)
        if r.verdict == "not-applicable":
            assert not is_quasi_separative(s)[0]
            continue
        applicable += 1
        assert r.witnesses == tuple(witnesses), s.rows
    monkeypatch.setattr(decomposition, "_holds", lambda s, key: (True, None))
    lifted = [verify_class_separation(s).witnesses for s in tables]
    assert lifted == [tuple(w) for w in expected]
    assert applicable > 0 and sum(map(len, lifted)) > 0


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
        assert canonical_form(comp) == canonical_form(Z2)
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
    # the check reads the verdicts it needs, as the whole profile gives them
    for s in oracles.corpus_up_to(4):
        assert verify_table_diagram(s) == oracles.diagram_report(classify(s)), s.rows


def test_verify_diagram_flags_fabricated_violation(monkeypatch):
    # no table breaks an implication, so a stubbed classifier lookup
    # reports a cancellative table that is not separative
    import finsemi.decomposition as decomposition
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
    monkeypatch.setattr(decomposition, "_holds", lambda s, key: (getattr(fake, key), None))
    r = verify_table_diagram(Z2)
    assert r.verdict == "violated"
    assert r.witnesses == (("cancellative->separative",),)
    assert r == oracles.diagram_report(fake)


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
    assert all(is_weakly_cancellative(c)[0] for c in d.components)


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
    assert chain_component == chain_semilattice(2)
    from finsemi import is_quasi_cancellative

    assert not is_quasi_cancellative(chain_component)[0]
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

    finer = Congruence(((0, 2), (1,), (3,)))
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


def test_every_report_follows_the_report_rule():
    # each single-table report counts exactly one of applicable=1 (its
    # premises hold) and skipped=1 (they fail), and is not-applicable
    # exactly when it is skipped
    tables = (
        oracles.corpus_up_to(3)
        + list(enumerate_canonical(4, "iso_anti"))
        + oracles.zoo_tables()
        + oracles.noncommutative_zoo()
    )
    for s in tables:
        for check_id, check in CHECKS.items():
            r = check(s)
            counts = dict(r.counts)
            assert [counts.get(k) for k in ("applicable", "skipped")] in (
                [1, None],
                [None, 1],
            ), (check_id, s.rows)
            assert (r.verdict == "not-applicable") == ("skipped" in counts)


def test_checks_report_a_non_congruence(no_congruence):
    witness, detail = no_congruence
    s = chain_semilattice(2)
    names = [name for name, _ in admissible_candidates(s)]
    assert names == ["diagonal", "canonical", "full"]
    r = verify_congruence_construction(s)
    assert r.verdict == "violated"
    assert r.witnesses == tuple((name, witness, detail) for name in names)


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


def test_run_checks_builds_kernels_and_canonical_relation_once_per_table(monkeypatch):
    import finsemi.congruence as congruence
    import finsemi.decomposition as decomposition
    import finsemi.properties as properties
    import finsemi.relations as relations

    built = {"_kernels": Counter(), "canonical_relation": Counter()}
    counted = []  # keeps every counted table alive, so ids stay distinct
    for name, modules in (
        ("_kernels", (relations, congruence, properties, decomposition)),
        ("canonical_relation", (properties, decomposition)),
    ):
        def counting(s, name=name, original=getattr(relations, name)):
            built[name][id(s)] += 1
            counted.append(s)
            return original(s)

        for module in modules:
            monkeypatch.setattr(module, name, counting)
    tables = list(oracles.labeled_corpus(3))
    run_checks(tables, CHECKS)
    first = {name: sum(c.values()) for name, c in built.items()}
    assert all(first.values())
    assert max(max(c.values()) for c in built.values()) == 1
    # the facts die with the call: a second run builds them again, once each
    run_checks(tables, CHECKS)
    assert {name: sum(c.values()) for name, c in built.items()} == {
        name: 2 * k for name, k in first.items()
    }
    assert max(max(c.values()) for c in built.values()) == 1


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
        # the boolean helpers read the same facts as the checks
        is_band(s), is_commutative(s), is_semilattice(s)
        assert computed[id(s), "band"] == computed[id(s), "commutative"] == 1
        for check in CHECKS.values():
            check(s)
        classify(s)
        # a quotient's semilattice verdict is a fact of the quotient table
        d = decompose(s)
        d.quotient_is_semilattice
        classify(d.quotient)
    # component and quotient tables were counted too
    assert {id(t) for t in tables} > {id(s) for s in sources}
    assert max(computed.values()) == 1


class PoolRequests(list):
    """The process counts requested of the pool, in order; `mapped` holds
    the number of items each pool was handed."""

    def __init__(self):
        super().__init__()
        self.mapped = []


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace multiprocessing.Pool by a stub that records the requested
    process count and the items handed to it, and maps serially in this
    process, `map` and `imap` alike; report 3 CPUs."""
    import multiprocessing
    import os

    requested = PoolRequests()

    class Pool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            requested.mapped.append(len(items))
            return [fn(x) for x in items]

        def imap(self, fn, items, chunksize=1):
            assert chunksize >= 1
            requested.mapped.append(len(items))
            return map(fn, items)

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
    # the converse search scans in this process
    assert search_cor15_converse(3) is not None
    hit = search_cor15_converse(5)
    assert hit.rows == ((0, 0, 0), (0, 1, 1), (0, 2, 2))
    # each pool is handed every table
    assert recording_pool == [3, 2, 2]
    assert recording_pool.mapped == [113, 113, 2]


def test_verify_corpus_equals_run_checks_over_labeled_tables(recording_pool):
    # the whole reports, every witness and its order included; the
    # single class of order 1 starts no pool
    for n in (1, 2, 3, 4):
        labeled = run_checks(oracles.labeled_corpus(n), CHECK_IDS)
        assert verify_corpus(n, CHECK_IDS) == labeled
        assert verify_corpus(n, CHECK_IDS, workers=3) == labeled
    assert recording_pool == [3, 3, 3]
    # the pool is handed the iso_anti classes (4, 18 and 126 of them), so
    # the order-4 class with t6 witnesses, which carries all 48 expanded
    # members, is scheduled like any other class
    assert recording_pool.mapped == [4, 18, 126]


def test_verify_corpus_checks_each_labeled_table_at_most_once(monkeypatch):
    # order 4 has 126 iso_anti classes; the 1 whose representative has t6
    # witnesses is expanded into its 48 members, and it reuses its
    # representative's report for the member that is the representative
    calls = []
    original = CHECKS["t6"]

    def counting(s):
        calls.append(s.rows)
        return original(s)

    monkeypatch.setitem(CHECKS, "t6", counting)
    verify_corpus(4, CHECK_IDS)
    assert len(calls) == 126 + 48 - 1
    assert max(Counter(calls).values()) == 1


def test_verify_corpus_builds_orbits_only_for_witnessed_classes(monkeypatch):
    # the fill hands over every class's size, so of the 126 order-4
    # iso_anti classes only the 1 whose representative has t6 witnesses
    # relabels its leader key into its members, the union of its two iso
    # orbits, to check them
    import finsemi.decomposition as decomposition

    built = []
    original = decomposition._relabeled_keys

    def counting(key, n, mode):
        built.append((key, mode))
        return original(key, n, mode)

    monkeypatch.setattr(decomposition, "_relabeled_keys", counting)
    t6 = verify_corpus(4, CHECK_IDS)[CHECK_IDS.index("t6")]
    assert len(built) == 1
    key = bytes(v for row in canonical_form(validate(t6.witnesses[0][0])).rows for v in row)
    assert built == [(key, "iso_anti")]
    assert {canonical_form(validate(grid)) for grid, _ in t6.witnesses} == {_table(key, 4)}
    # the two iso classes of the 48 witnesses are mirror images
    a, b = {canonical_form(validate(grid), "iso") for grid, _ in t6.witnesses}
    assert canonical_form(a.transpose(), "iso") == b


def test_corpus_routes_build_no_checked_table(monkeypatch):
    # every table of the class route, representatives, members, components
    # and quotients, is read from a byte key or rows known to be in the
    # carrier, so none pays the constructor's entry scan
    calls = []
    original = CayleyTable.__init__

    def counting(self, rows):
        calls.append(rows)
        original(self, rows)

    monkeypatch.setattr(CayleyTable, "__init__", counting)
    for run in (summarize_corpus, verify_corpus):
        reports = run(4, CHECK_IDS)
        assert reports[CHECK_IDS.index("t6")].verdict == "violated"
    assert calls == []


def test_verify_corpus_expands_every_witnessed_class(monkeypatch):
    # Whether a table commutes does not depend on its labeling, but the
    # first non-commuting pair does; a check that reports it has a witness
    # on every class that is not commutative, beside the two t6 classes,
    # so the capped merge of `summarize_corpus` runs over many classes
    def noncommuting(s):
        ok, w = _commutative_with_witness(s)
        return _report("noncommuting", [] if ok else [w], tables=1)

    monkeypatch.setitem(CHECKS, "noncommuting", noncommuting)
    ids = ["noncommuting", "t6"]
    for n in (2, 3, 4):
        labeled = oracles.labeled_corpus(n)
        reports = verify_corpus(n, ids)
        assert reports == run_checks(labeled, ids)
        noncommutative = [s for s in labeled if not is_commutative(s)]
        assert len(reports[0].witnesses) == len(noncommutative)
        short = summarize_corpus(n, ids)[0]
        assert short.counts == reports[0].counts
        assert short.witnesses == reports[0].witnesses[:_WITNESSES_SHOWN]
        assert (short.total or len(short.witnesses)) == len(noncommutative)


def test_verify_corpus_drops_each_member_once_checked(monkeypatch):
    # a member's facts die with its checks: when a decomposition is built,
    # no earlier one is alive, so the expanded members of a witnessed
    # class (47 at order 4) are never held together
    import finsemi.decomposition as decomposition

    original = decomposition.decompose
    built = []
    alive = []

    def tracking(s):
        alive.append(sum(ref() is not None for ref in built))
        d = original(s)
        built.append(weakref.ref(d))
        return d

    monkeypatch.setattr(decomposition, "decompose", tracking)
    verify_corpus(4, CHECK_IDS)
    assert len(built) == 126 + 48 - 1
    assert max(alive) == 0


def _shared_sub_tables(monkeypatch, run) -> tuple[int, int, list]:
    """Call `run()` with `decompose` wrapped, and return the number of
    distinct component and quotient tables it built, how many times one
    of them was handed to a second source table, and weak references to
    each; the wrapper requires that equal rows are one table throughout
    the run."""
    import finsemi.decomposition as decomposition

    original = decomposition.decompose
    first: dict[tuple, tuple] = {}  # rows -> (source rows, weakref to the table)
    shared = 0

    def tracking(s):
        nonlocal shared
        d = original(s)
        for t in (d.quotient, *d.components):
            if t is not None:
                source, ref = first.setdefault(t.rows, (s.rows, weakref.ref(t)))
                assert ref() is t
                shared += source != s.rows
        return d

    monkeypatch.setattr(decomposition, "decompose", tracking)
    run()
    monkeypatch.undo()
    return len(first), shared, [ref for _, ref in first.values()]


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_checks(oracles.labeled_corpus(4), CHECK_IDS),
        lambda: verify_corpus(4, CHECK_IDS),
        lambda: summarize_corpus(4, CHECK_IDS),
    ],
    ids=["run_checks", "verify_corpus", "summarize_corpus"],
)
def test_sub_tables_are_shared_within_one_run_only(monkeypatch, run):
    # equal components and quotients of different tables are one table
    # while a run lasts, and all of them die when it ends
    import gc
    import finsemi.core as core

    counts = []
    for _ in range(2):
        built, shared, refs = _shared_sub_tables(monkeypatch, run)
        assert shared > 0
        assert core._sub_tables is None
        gc.collect()
        assert all(ref() is None for ref in refs)
        counts.append(built)
    # the second run shares nothing with the first
    assert counts[0] == counts[1] > 0


def test_sub_tables_die_with_a_run_that_raises(monkeypatch):
    import gc
    import finsemi.core as core

    original = CHECKS["p7"]
    calls = 0

    def failing(s):
        nonlocal calls
        calls += 1
        if calls == 60:
            raise RuntimeError("check failed")
        return original(s)

    def run():
        monkeypatch.setitem(CHECKS, "p7", failing)
        with pytest.raises(RuntimeError, match="check failed"):
            verify_corpus(4, CHECK_IDS)

    built, shared, refs = _shared_sub_tables(monkeypatch, run)
    assert built > 0 and shared > 0
    assert core._sub_tables is None
    gc.collect()
    assert all(ref() is None for ref in refs)
    # complete runs after it build all their tables, as many each time
    def complete():
        verify_corpus(4, CHECK_IDS)

    counts = [_shared_sub_tables(monkeypatch, complete)[0] for _ in range(2)]
    assert counts[0] == counts[1] > built


def test_shared_sub_tables_pass_the_oracle_scans():
    # inside a run, components and quotients skip the entry scan and are
    # shared with every equal one, facts included; each must be a valid
    # semigroup table classified as a fresh validated copy is
    from finsemi.core import _sharing, _sub_table

    checked = set()
    with _sharing():
        for s in oracles.corpus_up_to(4) + list(enumerate_canonical(5, "iso")):
            d = decompose(s)
            for t in (d.quotient, *d.components):
                if t is None:
                    continue
                assert _sub_table(t.rows) is t
                if t.rows not in checked:
                    checked.add(t.rows)
                    shared, fresh = classify(t), classify(validate(t.rows))
                    assert shared.as_dict() == fresh.as_dict(), t.rows
                    assert shared.witnesses == fresh.witnesses, t.rows
    assert len(checked) > 100


@pytest.mark.parametrize(
    "table",
    [
        cyclic_group(12),
        oracles.direct_product(rectangular_band(2, 2), cyclic_group(3)),
    ],
    ids=["cyclic12", "rectangular2x2_times_cyclic3"],
)
def test_one_class_decomposition_reads_the_tables_own_facts(
    monkeypatch, capsys, tmp_path, table
):
    # the one component is a copy of the table, not the table (no
    # reference cycle), yet the checks and the component profile of
    # `decompose` read the table's own kernels and canonical relation
    from finsemi.cli import main
    from finsemi.relations import _kernels

    d = decompose(table)
    assert len(d.congruence.classes) == 1
    assert d.components[0] == table and d.components[0] is not table

    computed = Counter()
    fact = CayleyTable.fact

    def counting(self, compute):
        computed[compute] += compute not in self._facts
        return fact(self, compute)

    monkeypatch.setattr(CayleyTable, "fact", counting)
    path = tmp_path / "table.txt"
    path.write_text(oracles.format_table(table.rows))
    for run in (
        lambda: run_checks([table], CHECK_IDS),
        lambda: main(["decompose", str(path)]),
    ):
        computed.clear()
        run()
        assert computed[_kernels] == computed[canonical_relation] == 1
    assert "component 0: elements" in capsys.readouterr().out


def test_run_checks_on_no_tables_is_not_applicable():
    reports = run_checks([], ["t4", "diagram"])
    assert reports == [VerificationReport("t4"), VerificationReport("diagram")]
    assert all(r.verdict == "not-applicable" for r in reports)


def test_merge_reports_rejects_an_empty_list():
    with pytest.raises(ValueError, match="empty list of reports"):
        merge_reports([])


def test_merge_reports_rejects_reports_of_different_checks():
    s = left_zero(2)
    with pytest.raises(ValueError, match="different checks"):
        merge_reports([verify_congruence_construction(s), verify_table_diagram(s)])


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_rejected(recording_pool, workers):
    tables = list(oracles.labeled_corpus(2))
    for given in (tables, []):
        with pytest.raises(ValueError, match=f"got {workers}"):
            run_checks(given, ["t4"], workers=workers)
    with pytest.raises(ValueError, match=f"got {workers}"):
        verify_corpus(2, ["t4"], workers=workers)
    assert recording_pool == []


def test_bad_worker_count_is_rejected_before_any_table(monkeypatch):
    # the order-6 class fill takes seconds, and a worker count below 1
    # fails before it starts, as before the tables of `run_checks` are read
    import finsemi.decomposition as decomposition

    def fill(*args):
        raise AssertionError("the class fill ran")

    def tables():
        raise AssertionError("the tables were read")
        yield

    monkeypatch.setattr(decomposition, "_leader_keys", fill)
    for run in (verify_corpus, summarize_corpus):
        with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
            run(6, CHECK_IDS, workers=0)
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        run_checks(tables(), CHECK_IDS, workers=0)


@pytest.mark.parametrize("ids", [["bogus"], ["t4", "bogus"], ["all"], ["t10"]])
def test_unknown_check_ids_are_rejected_before_any_table(monkeypatch, recording_pool, ids):
    # the library takes only the keys of CHECKS, checked before the class
    # fill starts or a table is read, with no table list or an empty one;
    # the CLI normalizes the alias and 'all' first
    import finsemi.decomposition as decomposition

    def fill(*args):
        raise AssertionError("the class fill ran")

    def tables():
        raise AssertionError("the tables were read")
        yield

    monkeypatch.setattr(decomposition, "_leader_keys", fill)
    message = f"unknown check {ids[-1]!r}; choose from t4, t6, "
    for run in (verify_corpus, summarize_corpus):
        for workers in (1, 2):
            with pytest.raises(ValueError, match=message):
                run(6, ids, workers=workers)
    for given in (tables(), []):
        for workers in (1, 2):
            with pytest.raises(ValueError, match=message):
                run_checks(given, ids, workers=workers)
    assert recording_pool == []


def test_class_route_keeps_only_the_witnessed_classes_reports(monkeypatch):
    # each class's reports are folded as they arrive: when the member merge
    # starts, no report of the 1,145 witness-free order-5 classes is alive
    # but the shared not-applicable ones, at most one per check
    import finsemi.decomposition as decomposition

    check_table, members = decomposition._check_table, decomposition._members
    free = []  # weak references to the reports of the witness-free classes
    witnessed = 0
    alive = None

    def recording(ids, cells):
        nonlocal witnessed
        reports = check_table(ids, cells)
        if any(r.witnesses for r in reports):
            witnessed += 1
        else:
            free.extend(weakref.ref(r) for r in reports)
        return reports

    def merging(key, n, i):
        nonlocal alive
        if alive is None:
            alive = {id(r): r for r in (ref() for ref in free) if r is not None}
        return members(key, n, i)

    monkeypatch.setattr(decomposition, "_check_table", recording)
    monkeypatch.setattr(decomposition, "_members", merging)
    verify_corpus(5, CHECK_IDS)
    assert (witnessed, len(free)) == (15, (1160 - 15) * len(CHECK_IDS))
    assert all(r.verdict == "not-applicable" for r in alive.values())
    assert max(Counter(r.check for r in alive.values()).values(), default=0) <= 1


@pytest.fixture(scope="module")
def iso_classes_with_mirrors() -> tuple:
    """Every iso class representative T of order <= 5 with its transpose
    T', as (T, T') pairs, shared by this module's mirror tests."""
    return tuple(
        (rep, rep.transpose())
        for n in range(1, 6)
        for rep in enumerate_canonical(n, "iso")
    )


def test_canonical_relation_is_mirror_invariant(iso_classes_with_mirrors):
    # `verify_corpus` checks one table per iso_anti class; a table and its
    # transpose have one canonical relation (its docstring says why)
    pairs = iso_classes_with_mirrors
    assert len(pairs) == 1 + 5 + 24 + 188 + 1915  # OEIS A001423
    for s, mirror in pairs:
        assert canonical_relation(s) == canonical_relation(mirror), s.rows


def test_canonical_relation_is_relabeling_equivariant():
    # the other half of the class argument: relabeling a table by p
    # relabels its canonical relation by p, checked against the oracle's
    # literal relabeling for every iso class of order <= 4
    cases = 0
    for n in range(1, 5):
        for t in enumerate_canonical(n, "iso"):
            pairs = list(canonical_relation(t).pairs())
            for p in permutations(range(n)):
                image = canonical_relation(CayleyTable(oracles.relabel(t.rows, p)))
                assert set(image.pairs()) == {(p[x], p[y]) for x, y in pairs}, (t.rows, p)
                cases += 1
    assert cases == 1 * 1 + 5 * 2 + 24 * 6 + 188 * 24


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_checks_are_mirror_invariant(iso_classes_with_mirrors, check_id):
    # every check, a future one included, must report the same verdict
    # and counts on a table and its transpose for the class route to
    # stand for both; the witnesses may differ and are checked per member
    check = CHECKS[check_id]
    for s, mirror in iso_classes_with_mirrors:
        r, m = check(s), check(mirror)
        assert (r.verdict, r.counts) == (m.verdict, m.counts), s.rows


def test_witness_counts_are_class_invariants():
    # every member of a witnessed iso_anti class has as many witnesses per
    # check as its representative (the `verify_corpus` docstring says why),
    # so a check's witness total is the representative's count times the
    # class size
    witnessed = members = 0
    for n in range(1, 6):
        for key, size in _leader_keys(n, "iso_anti"):
            rep = _table(key, n)
            counts = [len(CHECKS[c](rep).witnesses) for c in CHECK_IDS]
            if not any(counts):
                continue
            orbit = sorted(set(_relabeled_keys(key, n, "iso_anti")))
            assert len(orbit) == size
            assert orbit[0] == key
            for m in orbit[1:]:  # the first member is the representative
                member = _table(m, n)
                got = [len(CHECKS[c](member).witnesses) for c in CHECK_IDS]
                assert got == counts, (rep.rows, member.rows)
            witnessed += 1
            members += size - 1
    assert (witnessed, members) == (16, 3272)
