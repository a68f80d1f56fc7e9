"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with `pytest tests/test_acceptance.py
-v -s` to see them).  Expected values are either independently derived by
the brute-force oracles in oracles.py or exact identities re-checked in
place; nothing here trusts the code path it is checking.

Criterion 2 checks the decomposition claim (every quasi-separative
semigroup is a semilattice of quasi-separative, quasi-cancellative
semigroups) on the least semilattice congruence, the finest
decomposition into a semilattice of pieces.  The canonical-relation
construction that check t6 runs is coarser on some tables and misses
quasi-cancellativity on 48 labeled order-4 tables (e.g.
[[0,0,0,0],[0,1,0,1],[2,2,2,2],[0,1,2,3]], whose class {1,3} is a
2-chain); the criterion reports that count, and
tests/test_decomposition.py::test_known_gap_* pins it.
"""

import random
import time

import pytest

from finsemi import (
    BicyclicElement,
    CayleyTable,
    admissible_candidates,
    bicyclic_bounded_check,
    bicyclic_mul,
    bicyclic_weakly_balanced_witness,
    canonical_form,
    classify,
    decompose,
    enumerate_canonical,
    enumerate_labeled,
    has_square_descent,
    is_quasi_separative,
    least_semilattice_congruence,
    left_equalizer,
    left_zero,
    monogenic,
    quotient,
    random_table,
    right_equalizer,
    search_cor15_converse,
)
from finsemi.cli import main as cli_main
from finsemi.decomposition import (
    run_checks,
    verify_congruence_construction,
    verify_semilattice_decomposition,
    verify_square_descent_claim,
)

import oracles

EXPECTED_LABELED = {1: 1, 2: 8, 3: 113, 4: 3492}
EXPECTED_CANONICAL = {1: 1, 2: 4, 3: 18, 4: 126}


@pytest.fixture(scope="module")
def corpus():
    return {n: list(enumerate_labeled(n)) for n in (1, 2, 3, 4)}


def announce(num: int, label: str, ok: bool):
    print(f"\ncriterion {num} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_01_congruence_suite(corpus):
    start = time.perf_counter()
    for n, tables in corpus.items():
        assert len(tables) == EXPECTED_LABELED[n]
    for n in (1, 2, 3):
        assert len(corpus[n]) == len(oracles.brute_force_semigroups(n))
    violations = []
    relations_checked = 0
    for tables in corpus.values():
        for s in tables:
            r = verify_congruence_construction(s)
            relations_checked += dict(r.counts)["relations_checked"]
            if r.verdict != "verified":
                violations.append((s.rows, r.witnesses))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120.0
    announce(
        1,
        f"congruence construction, {relations_checked} admissible relations "
        f"over orders <= 4 in {elapsed:.1f}s",
        ok,
    )
    assert not violations, violations[:3]
    assert elapsed < 120.0


def _eta_decomposition_witnesses(s) -> list:
    """Everything wrong with the least semilattice congruence as a
    semilattice decomposition of `s` into quasi-separative,
    quasi-cancellative components, by direct loops and the oracles."""
    eta = least_semilattice_congruence(s)
    q = quotient(s, eta).rows
    witnesses = []
    if any(q[i][i] != i for i in range(len(q))):
        witnesses.append(("quotient_not_band",))
    if any(q[i][j] != q[j][i] for i in range(len(q)) for j in range(len(q))):
        witnesses.append(("quotient_not_commutative",))
    rows = s.rows
    for idx, cls in enumerate(eta.classes):
        if any(eta.class_of[rows[x][y]] != idx for x in cls for y in cls):
            witnesses.append(("class_not_closed", idx))
            continue
        local = {g: i for i, g in enumerate(cls)}
        comp = CayleyTable([[local[rows[x][y]] for y in cls] for x in cls])
        if not oracles.naive_quasi_separative_chain(comp):
            witnesses.append(("component_not_quasi_separative", idx))
        if not oracles.naive_quasi_cancellative(comp):
            witnesses.append(("component_not_quasi_cancellative", idx))
    d = decompose(s)
    if d.quotient_is_semilattice:
        # eta is the least semilattice congruence, so it must refine
        # every other one
        coarse = d.congruence.class_of
        for cls in eta.classes:
            if len({coarse[x] for x in cls}) != 1:
                witnesses.append(("eta_not_finer_than_canonical", cls))
    return witnesses


def test_criterion_02_decomposition_suite(corpus):
    violations = []
    applicable = 0
    construction_misses = 0
    for tables in corpus.values():
        for s in tables:
            if not oracles.naive_quasi_separative_chain(s):
                continue
            applicable += 1
            witnesses = _eta_decomposition_witnesses(s)
            if witnesses:
                violations.append((s.rows, witnesses))
            if verify_semilattice_decomposition(s).verdict == "violated":
                construction_misses += 1
    ok = applicable > 0 and not violations
    announce(
        2,
        f"semilattice decomposition on {applicable} quasi-separative tables, "
        f"{len(violations)} violations by the least semilattice congruence; "
        f"the canonical-relation construction (t6) misses {construction_misses}",
        ok,
    )
    assert applicable > 0
    assert not violations, (
        f"{len(violations)} quasi-separative tables of order <= 4 fail to "
        f"decompose by the least semilattice congruence into a semilattice of "
        f"quasi-separative, quasi-cancellative components; first witness: "
        f"{violations[0]}"
    )


def test_criterion_03_secondary_suites(corpus):
    tables = [s for ts in corpus.values() for s in ts]
    ids = ["p7", "p11", "p14", "c12", "c15"]
    reports = run_checks(tables, ids)
    summary = {
        r.check: (r.verdict, dict(r.counts).get("applicable", 0)) for r in reports
    }
    ok = all(v == "verified" and n >= 1 for v, n in summary.values())
    announce(3, f"supporting suites {summary}", ok)
    for r in reports:
        assert r.verdict == "verified", (r.check, r.witnesses)
        assert dict(r.counts).get("applicable", 0) >= 1, f"{r.check} was vacuous"


def _equalizer_form_verdict(s) -> bool:
    # membership formulation evaluated through the library's equalizers
    return all(
        a == b
        for a in range(s.n)
        for b in range(s.n)
        if (a, b) in set(left_equalizer(s, a).pairs())
        and (a, b) in set(right_equalizer(s, b).pairs())
    )


def test_criterion_04_equivalent_formulations(corpus):
    disagreements = []
    for tables in corpus.values():
        for s in tables:
            verdicts = {
                "chain": oracles.naive_quasi_separative_chain(s),
                "short": oracles.naive_quasi_separative_short(s),
                "equalizer_naive": oracles.naive_quasi_separative_equalizer_form(s),
                "equalizer_relations": _equalizer_form_verdict(s),
                "library": is_quasi_separative(s)[0],
            }
            if len(set(verdicts.values())) != 1:
                disagreements.append((s.rows, verdicts))
    ok = not disagreements
    announce(4, "four-term, three-term, and equalizer formulations agree", ok)
    assert not disagreements, disagreements[:3]


def _translation_laws_hold(s) -> bool:
    # equalizers as literal pair sets, translated by x -> b*x and x -> x*a
    mul = s.mul
    left = [oracles.left_kernel_pairs(s, a) for a in range(s.n)]
    right = [oracles.right_kernel_pairs(s, a) for a in range(s.n)]
    for a in range(s.n):
        for b in range(s.n):
            ab = mul(a, b)
            if not left[b] <= left[ab]:
                return False
            if not right[a] <= right[ab]:
                return False
            if not {(mul(b, x), mul(b, y)) for x, y in left[ab]} <= left[a]:
                return False
            if not {(mul(x, a), mul(y, a)) for x, y in right[ab]} <= right[b]:
                return False
    return True


def _meet_monotonicity_holds(s) -> bool:
    left = [oracles.left_kernel_pairs(s, a) for a in range(s.n)]
    for _, rel in admissible_candidates(s):
        pairs = set(rel.pairs())
        for a in range(s.n):
            base = pairs & left[a]
            for b in range(s.n):
                if not base <= pairs & left[s.mul(a, b)]:
                    return False
                if not base <= pairs & left[s.mul(b, a)]:
                    return False
    return True


def test_criterion_05_relation_laws(corpus):
    failures = []
    for n in (1, 2, 3):
        for s in corpus[n]:
            if not (_translation_laws_hold(s) and _meet_monotonicity_holds(s)):
                failures.append(s.rows)
    rng = random.Random(1789)
    random_tables = [random_table(4, rng) for _ in range(500)]
    random_tables += [random_table(5, rng) for _ in range(500)]
    for s in random_tables:
        if not (_translation_laws_hold(s) and _meet_monotonicity_holds(s)):
            failures.append(s.rows)
    ok = not failures
    announce(
        5,
        "translation laws and meet monotonicity, exhaustive <= 3 plus "
        "1000 random order-4/5 tables",
        ok,
    )
    assert not failures, failures[:3]


def test_criterion_06_strictness_witnesses():
    checks = []
    p = classify(left_zero(2))
    checks.append(p.weakly_cancellative and not p.separative)
    from finsemi import chain_semilattice, null_semigroup

    p = classify(chain_semilattice(2))
    checks.append(p.separative and not p.quasi_cancellative)
    p = classify(null_semigroup(2))
    checks.append(p.weakly_balanced and not p.quasi_separative)

    w = bicyclic_weakly_balanced_witness()
    b2, a, one, ab = (
        BicyclicElement(0, 2),
        BicyclicElement(1, 0),
        BicyclicElement(0, 0),
        BicyclicElement(1, 1),
    )
    checks.append((w.a, w.b, w.x, w.y) == (b2, a, one, ab))
    # premise equalities, exact
    checks.append(bicyclic_mul(b2, one) == bicyclic_mul(b2, ab) == BicyclicElement(0, 2))
    checks.append(bicyclic_mul(one, a) == bicyclic_mul(ab, a) == BicyclicElement(1, 0))
    # conclusion failure, exact
    checks.append(bicyclic_mul(a, one) == BicyclicElement(1, 0))
    checks.append(bicyclic_mul(a, ab) == BicyclicElement(2, 1))
    checks.append(bicyclic_mul(a, one) != bicyclic_mul(a, ab))
    checks.append(w.premise_holds and not w.conclusion_holds)
    ok = all(checks)
    announce(6, "diagram strictness witnesses reproduce exactly", ok)
    assert all(checks), checks


def test_criterion_07_bicyclic_bounded_probes():
    t0 = time.perf_counter()
    qs_ok = bicyclic_bounded_check("quasi_separative", 12)
    qs_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    qc_ok = bicyclic_bounded_check("quasi_cancellative", 6)
    qc_time = time.perf_counter() - t0
    ok = qs_ok and qc_ok and qs_time < 10.0 and qc_time < 10.0
    announce(
        7,
        f"bounded probes (not proofs): quasi-separative at 12 in {qs_time:.1f}s, "
        f"quasi-cancellative at 6 in {qc_time:.1f}s",
        ok,
    )
    assert qs_ok and qc_ok
    assert qs_time < 10.0 and qc_time < 10.0


def test_criterion_08_square_descent_claim(corpus):
    violations = []
    applicable = 0
    for tables in corpus.values():
        for s in tables:
            r = verify_square_descent_claim(s)
            if r.verdict == "violated":
                violations.append((s.rows, r.witnesses))
            elif r.verdict == "verified":
                applicable += 1
    m31 = monogenic(3, 1)
    holds, witness = has_square_descent(m31)
    monogenic_ok = not holds and witness == (0, 0, 1)
    claim_skips_monogenic = verify_square_descent_claim(m31).verdict == "not-applicable"
    ok = not violations and applicable > 0 and monogenic_ok and claim_skips_monogenic
    announce(
        8,
        f"square descent holds on all {applicable} applicable tables; "
        f"monogenic(3,1) violates it with witness (0, 0, 1)",
        ok,
    )
    assert not violations, violations[:3]
    assert applicable > 0
    assert monogenic_ok
    assert claim_skips_monogenic


def test_criterion_09_enumeration_counts(corpus):
    labeled = {n: len(corpus[n]) for n in corpus}
    canonical = {n: sum(1 for _ in enumerate_canonical(n)) for n in (1, 2, 3, 4)}
    oracle_ok = all(
        tuple(s.rows for s in corpus[n]) == tuple(sorted(oracles.brute_force_semigroups(n)))
        for n in (1, 2, 3)
    )
    ok = labeled == EXPECTED_LABELED and canonical == EXPECTED_CANONICAL and oracle_ok
    announce(9, f"labeled {labeled}, canonical {canonical}, oracle agreement", ok)
    assert labeled == EXPECTED_LABELED
    assert canonical == EXPECTED_CANONICAL
    assert oracle_ok


def test_criterion_10_converse_search_determinism(capsys):
    results = [search_cor15_converse(4), search_cor15_converse(4)]
    assert results[0] is not None
    same_result = results[0] == results[1]

    outputs = []
    for argv in (
        ["search-converse-c15", "--max-order", "4"],
        ["search-converse-c15", "--max-order", "4"],
    ):
        code = cli_main(argv)
        outputs.append((code, capsys.readouterr().out))
    same_output = outputs[0] == outputs[1] and outputs[0][0] == 0

    # regression pin for the deterministic outcome: the scan finds the
    # two-element left-zero band with a zero adjoined at order 3
    pinned = results[0].rows == ((0, 0, 0), (0, 1, 1), (0, 2, 2))
    ok = same_result and same_output and pinned
    announce(
        10,
        "converse probe outcome is reproducible bit-for-bit across runs "
        "(a counterexample exists at order 3)",
        ok,
    )
    assert same_result
    assert same_output, outputs
    assert pinned, results[0].rows


def test_acceptance_profile_invariance_spot_check(corpus):
    # canonical representatives classify identically to their class
    rng = random.Random(4)
    sample = rng.sample(corpus[4], 40)
    for s in sample:
        assert classify(canonical_form(s, "iso")).as_dict() == classify(s).as_dict()
