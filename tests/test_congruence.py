import pytest

from finsemi import (
    BinaryRelation,
    Congruence,
    NotACongruence,
    admissible_candidates,
    canonical_relation,
    chain_semilattice,
    check_admissibility,
    cyclic_group,
    enumerate_canonical,
    induced_congruence,
    is_band,
    is_semilattice,
    is_quasi_separative,
    least_semilattice_congruence,
    left_zero,
    null_semigroup,
    quotient,
    validate,
)

import oracles

L2 = left_zero(2)
Z2 = cyclic_group(2)
CHAIN2 = chain_semilattice(2)
FLIP_FLOP = validate(oracles.FLIP_FLOP)


def test_induced_congruence_chain_full():
    cong = induced_congruence(CHAIN2, BinaryRelation.full(2))
    assert cong.classes == ((0,), (1,))
    assert cong.class_of == (0, 1)


def test_induced_congruence_left_zero_diagonal():
    cong = induced_congruence(L2, canonical_relation(L2))
    assert cong.classes == ((0, 1),)


def test_induced_congruence_group_full():
    cong = induced_congruence(Z2, BinaryRelation.full(2))
    assert cong.classes == ((0, 1),)


def test_induced_congruence_rejects_incompatible_relation():
    rel = BinaryRelation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    with pytest.raises(NotACongruence) as exc:
        induced_congruence(FLIP_FLOP, rel)
    x, y, c = exc.value.witness
    assert (x, y, c) == (0, 2, 1)
    # the relation indeed fails admissibility, consistent with the
    # congruence guarantee holding only for admissible relations
    assert not check_admissibility(FLIP_FLOP, rel).all_satisfied


def test_a_relation_that_is_not_admissible_can_induce_a_congruence():
    # admissible implies a congruence, but not conversely: the full
    # relation on the left-zero band of order 2 fails balance, yet every
    # element meets it identically, giving the one-class congruence
    full = BinaryRelation.full(2)
    assert check_admissibility(L2, full).balanced_witness == (0, 0, 1)
    assert induced_congruence(L2, full).classes == ((0, 1),)


def dual_induced_agrees(s, rel) -> bool:
    pairs = set(rel.pairs())
    left = oracles.naive_induced_partition(s, pairs, "left")
    return left == oracles.naive_induced_partition(s, pairs, "right")


def test_dual_induced_agrees_examples():
    assert dual_induced_agrees(CHAIN2, BinaryRelation.full(2))
    assert dual_induced_agrees(L2, BinaryRelation.diagonal(2))
    for s in oracles.corpus_up_to(3):
        assert dual_induced_agrees(s, BinaryRelation.diagonal(s.n))


def test_dual_induced_agrees_whenever_balanced():
    for s in oracles.corpus_up_to(3):
        full = BinaryRelation.full(s.n)
        if check_admissibility(s, full).balanced:
            assert dual_induced_agrees(s, full)
        rel = canonical_relation(s)
        assert dual_induced_agrees(s, rel)


def test_induced_partitions_match_oracle():
    cases = [
        (s, pairs)
        for s in oracles.corpus_up_to(3) + oracles.zoo_tables()
        for pairs in oracles.sample_relations(s)
    ]
    # none of those inputs reaches the right-multiplication witness; this
    # order-4 one does, at (0, 2, 1)
    order4 = validate(((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 2, 0), (0, 0, 0, 3)))
    cases.append((order4, {(3, 0)}))
    for s, pairs in cases:
        rel = BinaryRelation.from_pairs(s.n, pairs)
        left = oracles.naive_induced_partition(s, pairs, "left")
        expected = oracles.naive_compatibility_witness(s, left)
        try:
            assert induced_congruence(s, rel).classes == tuple(left)
        except NotACongruence as exc:
            assert (exc.witness, exc.detail) == expected
        else:
            assert expected is None


def test_quotient_examples():
    cong = induced_congruence(CHAIN2, BinaryRelation.full(2))
    assert quotient(CHAIN2, cong) == CHAIN2

    cong = induced_congruence(L2, canonical_relation(L2))
    assert quotient(L2, cong).rows == ((0,),)

    cong = induced_congruence(Z2, BinaryRelation.full(2))
    assert quotient(Z2, cong).rows == ((0,),)


def test_quotient_matches_the_compatibility_oracle_on_every_partition():
    # quotient raises exactly on the partitions that are no congruence;
    # otherwise its entry (i, j) is the class of every product of a
    # member of class i by one of class j, and one class gives ((0,),)
    tables = oracles.corpus_up_to(3) + list(enumerate_canonical(4, "iso_anti"))
    assert len(tables) == 122 + 126
    for s in tables:
        for blocks in oracles.set_partitions(s.n):
            cong = Congruence(tuple(map(tuple, blocks)))
            failing = oracles.naive_compatibility_witness(s, blocks) is not None
            try:
                q = quotient(s, cong)
            except NotACongruence:
                assert failing, (s.rows, blocks)
                continue
            assert not failing, (s.rows, blocks)
            c = cong.class_of
            assert all(
                q.rows[c[x]][c[y]] == c[s.rows[x][y]]
                for x in range(s.n)
                for y in range(s.n)
            ), (s.rows, blocks)
            if len(blocks) == 1:
                assert q.rows == ((0,),)


def test_quotient_detects_representative_dependence():
    # {0, 2} vs {1} is not a congruence of the flip-flop monoid
    bad = Congruence(((0, 2), (1,)))
    with pytest.raises(NotACongruence):
        quotient(FLIP_FLOP, bad)


def test_congruence_derives_class_of_from_classes():
    # class_of is read from the classes, so no stored copy can disagree
    # with them and turn a congruence into a NotACongruence
    cong = Congruence(((0, 1), (2,)))
    assert cong.class_of == (0, 0, 1)
    assert quotient(chain_semilattice(3), cong).n == 2


def test_is_band_and_semilattice():
    assert is_band(CHAIN2) and is_semilattice(CHAIN2)
    assert is_band(L2) and not is_semilattice(L2)
    assert not is_band(Z2)
    assert not is_band(null_semigroup(2))
    assert not is_semilattice(null_semigroup(2))


def test_admissible_candidates_never_fail_congruence():
    # congruence construction holds for every admissible relation
    for s in oracles.corpus_up_to(3):
        for name, rel in admissible_candidates(s):
            cong = induced_congruence(s, rel)
            assert sorted(x for cls in cong.classes for x in cls) == list(range(s.n))


def test_congruence_classes_ordered_by_min_representative():
    for s in oracles.corpus_up_to(3):
        for _, rel in admissible_candidates(s):
            cong = induced_congruence(s, rel)
            mins = [cls[0] for cls in cong.classes]
            assert mins == sorted(mins)
            for cls in cong.classes:
                assert list(cls) == sorted(cls)


def test_idempotent_power_and_commutation_meet_laws():
    # with the canonical relation on quasi-separative tables, the meet
    # with the left equalizer is invariant under squaring and swapping
    for s in oracles.corpus_up_to(3):
        if not is_quasi_separative(s)[0]:
            continue
        rel = set(canonical_relation(s).pairs())
        left = [rel & oracles.left_kernel_pairs(s, a) for a in range(s.n)]
        for a in range(s.n):
            assert left[a] == left[s.mul(a, a)]
            for b in range(s.n):
                assert left[s.mul(a, b)] == left[s.mul(b, a)]


def test_quotient_of_quasi_separative_is_semilattice():
    for s in oracles.corpus_up_to(3):
        if not is_quasi_separative(s)[0]:
            continue
        for _, rel in admissible_candidates(s):
            assert is_semilattice(quotient(s, induced_congruence(s, rel)))


def _same_class_pairs(cong: Congruence) -> set:
    c = cong.class_of
    n = len(c)
    return {(x, y) for x in range(n) for y in range(n) if c[x] == c[y]}


def test_least_semilattice_congruence_matches_oracle():
    tables = oracles.corpus_up_to(4)
    assert len(tables) == 3614
    for s in tables + oracles.zoo_tables() + oracles.noncommutative_zoo():
        eta = least_semilattice_congruence(s)
        assert _same_class_pairs(eta) == oracles.naive_least_semilattice_congruence(s)
        mins = [cls[0] for cls in eta.classes]
        assert mins == sorted(mins)
        for ci, cls in enumerate(eta.classes):
            assert list(cls) == sorted(cls)
            assert all(eta.class_of[x] == ci for x in cls)


def test_least_semilattice_congruence_is_least():
    # every partition that is a congruence with a semilattice quotient
    # must contain eta; eta itself must be one of them
    for s in oracles.corpus_up_to(4):
        n, rows = s.n, s.rows
        eta = _same_class_pairs(least_semilattice_congruence(s))
        found_eta = False
        for blocks in oracles.set_partitions(n):
            block = {x: i for i, b in enumerate(blocks) for x in b}
            compatible = all(
                block[rows[c][x]] == block[rows[c][y]]
                and block[rows[x][c]] == block[rows[y][c]]
                for x in range(n)
                for y in range(n)
                if block[x] == block[y]
                for c in range(n)
            )
            semilattice = all(
                block[rows[x][x]] == block[x]
                and block[rows[x][y]] == block[rows[y][x]]
                for x in range(n)
                for y in range(n)
            )
            if compatible and semilattice:
                pairs = {(x, y) for x in range(n) for y in range(n) if block[x] == block[y]}
                assert eta <= pairs, (s.rows, blocks)
                found_eta = found_eta or pairs == eta
        assert found_eta, s.rows


def test_least_semilattice_congruence_examples():
    # a band, so a eta b iff aba = a and bab = b: only 0 and 2 qualify
    s = validate([[0, 0, 0, 0], [0, 1, 0, 1], [2, 2, 2, 2], [0, 1, 2, 3]])
    eta = least_semilattice_congruence(s)
    assert eta.classes == ((0, 2), (1,), (3,))
    assert eta.class_of == (0, 1, 0, 2)
    assert least_semilattice_congruence(CHAIN2).classes == ((0,), (1,))
    assert least_semilattice_congruence(L2).classes == ((0, 1),)
    assert least_semilattice_congruence(cyclic_group(5)).classes == ((0, 1, 2, 3, 4),)
