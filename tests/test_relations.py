import pytest

from finsemi import (
    BicyclicElement,
    BinaryRelation,
    FormatError,
    bicyclic_mul,
    canonical_relation,
    chain_semilattice,
    check_admissibility,
    cyclic_group,
    enumerate_canonical,
    format_relation,
    induced_congruence,
    left_equalizer,
    left_zero,
    null_semigroup,
    parse_relation,
    rectangular_band,
    right_equalizer,
    validate,
)
from finsemi.relations import _kernel, _kernels, context_equivalent

import oracles

L2 = left_zero(2)
N2 = null_semigroup(2)
Z2 = cyclic_group(2)
CHAIN2 = chain_semilattice(2)


def pairs_set(rel):
    return set(rel.pairs())


def is_equivalence(pairs, n):
    return (
        all((x, x) in pairs for x in range(n))
        and all((y, x) in pairs for x, y in pairs)
        and all((x, z) in pairs for x, y in pairs for w, z in pairs if y == w)
    )


def test_left_equalizer_examples():
    assert pairs_set(left_equalizer(L2, 0)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert left_equalizer(CHAIN2, 1) == BinaryRelation.diagonal(2)
    assert left_equalizer(N2, 0) == BinaryRelation.full(2)


def test_right_equalizer_examples():
    assert right_equalizer(L2, 0) == BinaryRelation.diagonal(2)
    assert right_equalizer(N2, 1) == BinaryRelation.full(2)
    assert right_equalizer(Z2, 0) == BinaryRelation.diagonal(2)


def test_equalizers_match_naive_kernels():
    for s in oracles.corpus_up_to(3):
        for a in range(s.n):
            assert pairs_set(left_equalizer(s, a)) == oracles.left_kernel_pairs(s, a)
            assert pairs_set(right_equalizer(s, a)) == oracles.right_kernel_pairs(s, a)


def test_equal_kernels_are_one_object():
    s = rectangular_band(2, 3)
    left, right = s.fact(_kernels)
    kernels = left + right
    # every a*x keeps the column of x, every x*b the row of x
    assert len({id(k) for k in left}) == len({id(k) for k in right}) == 1
    assert left[0] != right[0]
    for k in kernels:
        for other in kernels:
            assert (k == other) == (k is other)
    for a in range(s.n):
        assert left[a] == _kernel(s.rows[a])
        assert right[a] == _kernel([r[a] for r in s.rows])


def test_equalizers_are_equivalences():
    for s in oracles.corpus_up_to(3):
        for a in range(s.n):
            assert is_equivalence(pairs_set(left_equalizer(s, a)), s.n)
            assert is_equivalence(pairs_set(right_equalizer(s, a)), s.n)


def test_translation_monotonicity_laws():
    # the four inclusion laws between equalizers of b, a, and a*b, with
    # the translations x -> b*x and x -> x*a applied to pair sets
    for s in oracles.corpus_up_to(3):
        mul = s.mul
        left = [oracles.left_kernel_pairs(s, a) for a in range(s.n)]
        right = [oracles.right_kernel_pairs(s, a) for a in range(s.n)]
        for a in range(s.n):
            for b in range(s.n):
                ab = mul(a, b)
                assert left[b] <= left[ab]
                assert right[a] <= right[ab]
                assert {(mul(b, x), mul(b, y)) for x, y in left[ab]} <= left[a]
                assert {(mul(x, a), mul(y, a)) for x, y in right[ab]} <= right[b]


def test_admissibility_full_relation_on_commutative():
    for s in (CHAIN2, N2, Z2, chain_semilattice(3)):
        rep = check_admissibility(s, BinaryRelation.full(s.n))
        assert rep.all_satisfied


def test_admissibility_diagonal_always():
    for s in oracles.corpus_up_to(3):
        assert check_admissibility(s, BinaryRelation.diagonal(s.n)).all_satisfied


def test_admissibility_full_on_left_zero_unbalanced():
    rep = check_admissibility(L2, BinaryRelation.full(2))
    assert not rep.balanced
    a, x, y = rep.balanced_witness
    assert a == 0
    # witness re-check: (x, y) sits in exactly one of the two meets
    in_left = (x, y) in oracles.left_kernel_pairs(L2, a)
    in_right = (x, y) in oracles.right_kernel_pairs(L2, a)
    assert in_left != in_right


def test_admissibility_witnesses_recheck():
    # scan small tables with assorted relations, compare verdicts and first
    # witnesses with the oracles, and re-check every witness
    for s in oracles.corpus_up_to(3):
        for pairs in oracles.sample_relations(s) + [{(0, 0)}]:
            rel = BinaryRelation.from_pairs(s.n, pairs)
            rep = check_admissibility(s, rel)
            naive = oracles.naive_admissibility(s, pairs)
            assert (rep.balanced, rep.left_stable, rep.right_stable) == naive
            assert (
                rep.balanced_witness,
                rep.left_witness,
                rep.right_witness,
            ) == oracles.naive_admissibility_witnesses(s, pairs)
            if not rep.left_stable:
                a, b, x, y = rep.left_witness
                ab = s.mul(a, b)
                assert (x, y) in pairs & oracles.left_kernel_pairs(s, ab)
                assert (s.mul(b, x), s.mul(b, y)) not in pairs
            if not rep.right_stable:
                a, b, x, y = rep.right_witness
                ab = s.mul(a, b)
                assert (x, y) in pairs & oracles.right_kernel_pairs(s, ab)
                assert (s.mul(x, a), s.mul(y, a)) not in pairs


def test_admissibility_witnesses_match_oracle_on_zoo_tables():
    # larger tables, where many (a, b) share one kernel meet and translation
    for s in oracles.zoo_tables():
        for pairs in oracles.sample_relations(s):
            rep = check_admissibility(s, BinaryRelation.from_pairs(s.n, pairs))
            assert (
                rep.balanced_witness,
                rep.left_witness,
                rep.right_witness,
            ) == oracles.naive_admissibility_witnesses(s, pairs), s.rows


def test_admissibility_of_the_full_relation_matches_oracle_on_order4():
    # the library skips both stability scans for the full relation; the
    # literal oracle runs them, on every order-4 iso representative and
    # its transpose, and agrees on all three verdicts and first witnesses
    full = {(x, y) for x in range(4) for y in range(4)}
    for rep in enumerate_canonical(4, "iso"):
        for s in (rep, rep.transpose()):
            report = check_admissibility(s, BinaryRelation.full(4))
            assert (
                report.balanced_witness,
                report.left_witness,
                report.right_witness,
            ) == oracles.naive_admissibility_witnesses(s, full), s.rows
            assert (report.balanced, report.left_stable, report.right_stable) == (
                oracles.naive_admissibility(s, full)
            ), s.rows


def test_admissibility_rejects_other_carrier():
    with pytest.raises(ValueError):
        check_admissibility(L2, BinaryRelation.full(3))


def test_canonical_relation_examples():
    # commutativity makes every pair context independent
    for s in (CHAIN2, N2, Z2, chain_semilattice(3)):
        assert canonical_relation(s) == BinaryRelation.full(s.n)
    assert canonical_relation(L2) == BinaryRelation.diagonal(2)
    assert pairs_set(canonical_relation(validate([[0]]))) == {(0, 0)}


def test_canonical_relation_matches_naive_oracle():
    for s in oracles.oracle_tables():
        assert pairs_set(canonical_relation(s)) == oracles.naive_canonical_relation(s)
    # every order-5 class and the larger noncommutative tables, each with
    # its transpose
    tables = list(enumerate_canonical(5, "iso")) + oracles.noncommutative_zoo()
    for t in tables:
        for s in (t, t.transpose()):
            got = pairs_set(canonical_relation(s))
            assert got == oracles.naive_canonical_relation(s), s.rows


def test_canonical_relation_matches_right_translation_form():
    # the library pulls the balanced pairs back along left translations;
    # the mirrored form along right translations gives the same relation
    for s in oracles.corpus_up_to(4):
        want = oracles.right_translation_relation(s)
        assert pairs_set(canonical_relation(s)) == want, s.rows


def test_context_equivalent_matches_naive_oracle():
    for s in oracles.corpus_up_to(3):
        mt = oracles.adjoin_identity_grid(s.rows)
        mul = s.mul
        for x in range(s.n):
            for y in range(s.n):
                got = context_equivalent(lambda a, b: mt[a][b], range(s.n + 1), x, y)
                assert got == oracles.naive_context_equivalent(s, x, y), (s.rows, x, y)
                # over a context set closed under the product and holding an
                # identity any two equalities imply the third; the carrier
                # alone and bounded bicyclic elements are not such sets
                assert context_equivalent(
                    mul, range(s.n), x, y
                ) == oracles.literal_context_equivalent(mul, range(s.n), x, y)
    elems = [BicyclicElement(m, n) for m in range(3) for n in range(3)]
    for x in elems:
        for y in elems:
            assert context_equivalent(
                bicyclic_mul, elems, x, y
            ) == oracles.literal_context_equivalent(bicyclic_mul, elems, x, y)


def test_canonical_relation_reflexive_symmetric():
    for s in oracles.corpus_up_to(3):
        pairs = pairs_set(canonical_relation(s))
        assert all((x, x) in pairs for x in range(s.n))
        assert all((y, x) in pairs for x, y in pairs)


def test_canonical_relation_always_balanced():
    for s in oracles.corpus_up_to(3):
        assert check_admissibility(s, canonical_relation(s)).balanced


def test_canonical_relation_always_induces_a_congruence():
    # the proof in the canonical_relation docstring, checked literally:
    # the relation is closed under translation on both sides and lies in
    # the balanced pairs, so it is admissible and its induced equivalence
    # is a congruence on every table
    for s in oracles.oracle_tables() + list(enumerate_canonical(5, "iso")):
        rel = canonical_relation(s)
        pairs = pairs_set(rel)
        for x, y in pairs:
            for a in range(s.n):
                ax, ay, xa, ya = s.mul(a, x), s.mul(a, y), s.mul(x, a), s.mul(y, a)
                assert (ax, ay) in pairs and (xa, ya) in pairs, (s.rows, x, y, a)
                assert (ax == ay) == (xa == ya), (s.rows, x, y, a)
        assert check_admissibility(s, rel).all_satisfied, s.rows
        induced_congruence(s, rel)


def test_canonical_relation_stable_on_quasi_separative():
    from finsemi import enumerate_labeled, is_quasi_separative

    unstable_elsewhere = 0
    tables = oracles.corpus_up_to(3) + list(enumerate_labeled(4))
    for s in tables:
        rep = check_admissibility(s, canonical_relation(s))
        if is_quasi_separative(s)[0]:
            assert rep.all_satisfied
        elif not (rep.left_stable and rep.right_stable):
            unstable_elsewhere += 1
    # stability can fail off the quasi-separative class; that is data,
    # not an error (observed count at these orders: zero)
    print(f"non-quasi-separative stability failures at order <= 4: {unstable_elsewhere}")


def test_meet_monotone_under_admissible_relations():
    # rel meet the left equalizer of a is inside the meet for a*b and b*a
    from finsemi import admissible_candidates

    for s in oracles.corpus_up_to(3):
        left = [oracles.left_kernel_pairs(s, a) for a in range(s.n)]
        for _, rel in admissible_candidates(s):
            pairs = pairs_set(rel)
            for a in range(s.n):
                base = pairs & left[a]
                for b in range(s.n):
                    assert base <= pairs & left[s.mul(a, b)]
                    assert base <= pairs & left[s.mul(b, a)]


def test_relation_format_roundtrip():
    rel = BinaryRelation.from_pairs(3, [(0, 1), (2, 2), (1, 0)])
    assert len(rel) == 3 and list(rel.pairs()) == [(0, 1), (1, 0), (2, 2)]
    assert parse_relation(format_relation(rel), 3) == rel
    assert parse_relation("# nothing\n", 2) == BinaryRelation(2, (0, 0))


def test_relation_parse_errors():
    with pytest.raises(FormatError):
        parse_relation("0 1 2\n", 3)
    with pytest.raises(FormatError):
        parse_relation("0 x\n", 3)
    with pytest.raises(FormatError):
        parse_relation("0 7\n", 3)


@pytest.mark.parametrize("line", ["0_0 0\n", "0 1_0\n", "\u0660 0\n"])
def test_relation_parse_reads_only_ascii_decimal_integers(line):
    with pytest.raises(FormatError, match="non-integer pair"):
        parse_relation(line, 11)


def test_relation_parse_signed_integers_keep_their_range_check():
    assert list(parse_relation("+0 +1\n", 2).pairs()) == [(0, 1)]
    with pytest.raises(FormatError, match=r"pair \(-1, 0\) outside carrier 2"):
        parse_relation("-1 0\n", 2)


def test_relation_constructors_reject_bad_input():
    with pytest.raises(ValueError):
        BinaryRelation.from_pairs(2, [(0, 2)])
    with pytest.raises(ValueError):
        BinaryRelation(2, (0b100, 0))
    with pytest.raises(ValueError):
        BinaryRelation(2, (0,))
