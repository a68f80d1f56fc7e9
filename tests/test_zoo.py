import pytest

from finsemi import (
    BICYCLIC_IDENTITY,
    BicyclicElement,
    NotAssociative,
    bicyclic_bounded_check,
    bicyclic_mul,
    bicyclic_weakly_balanced_witness,
    canonical_form,
    chain_semilattice,
    classify,
    cyclic_group,
    is_quasi_separative,
    left_zero,
    monogenic,
    null_semigroup,
    rectangular_band,
    right_zero,
    semilattice_of_components,
    validate,
)
from finsemi.decomposition import verify_semilattice_decomposition

import oracles


def test_constructor_grids():
    assert left_zero(2).rows == ((0, 0), (1, 1))
    assert right_zero(2).rows == ((0, 1), (0, 1))
    assert null_semigroup(2).rows == ((0, 0), (0, 0))
    assert chain_semilattice(2).rows == ((0, 0), (0, 1))
    assert cyclic_group(2).rows == ((0, 1), (1, 0))
    assert monogenic(3, 1).rows == ((1, 2, 2), (2, 2, 2), (2, 2, 2))
    assert left_zero(1).rows == ((0,),)


def test_constructors_validate():
    tables = [
        left_zero(3),
        right_zero(3),
        null_semigroup(4),
        chain_semilattice(5),
        cyclic_group(6),
        monogenic(2, 3),
        rectangular_band(2, 3),
    ]
    for s in tables:
        assert validate([list(r) for r in s.rows]) == s


def test_constructors_reject_bad_parameters():
    for ctor in (left_zero, right_zero, null_semigroup, chain_semilattice, cyclic_group):
        with pytest.raises(ValueError):
            ctor(0)
    with pytest.raises(ValueError):
        monogenic(0, 1)
    with pytest.raises(ValueError):
        rectangular_band(1, 0)


def test_rectangular_band_degenerate_cases():
    assert rectangular_band(2, 1) == left_zero(2)
    assert rectangular_band(1, 2) == right_zero(2)
    assert rectangular_band(1, 1).rows == ((0,),)


def test_rectangular_band_classification():
    for p in range(1, 4):
        for q in range(1, 4):
            prof = classify(rectangular_band(p, q))
            assert prof.weakly_cancellative
            assert prof.separative == (p * q == 1)


def test_null_and_chain_classification():
    for n in range(2, 5):
        prof = classify(null_semigroup(n))
        assert prof.weakly_balanced and not prof.quasi_separative
    for n in range(1, 6):
        assert classify(chain_semilattice(n)).separative
    for n in range(2, 6):
        assert not classify(chain_semilattice(n)).quasi_cancellative


def test_monogenic_group_case():
    assert canonical_form(monogenic(1, 2)) == canonical_form(cyclic_group(2))
    assert canonical_form(monogenic(1, 5)) == canonical_form(cyclic_group(5))


def test_monogenic_size_and_wraparound():
    s = monogenic(2, 3)
    assert s.n == 4
    # powers of the generator wrap back by the period: the 5th power is
    # the 2nd, so index 3 times index 0 lands on index 1
    assert s.mul(3, 0) == 1
    assert s.mul(3, 3) == 1
    assert s.mul(0, 0) == 1 and s.mul(0, 1) == 2


def test_bicyclic_identity_and_relation():
    a = BicyclicElement(1, 0)
    b = BicyclicElement(0, 1)
    assert bicyclic_mul(b, a) == BICYCLIC_IDENTITY
    assert bicyclic_mul(a, b) == BicyclicElement(1, 1)
    for e in (a, b, BicyclicElement(3, 2)):
        assert bicyclic_mul(e, BICYCLIC_IDENTITY) == e
        assert bicyclic_mul(BICYCLIC_IDENTITY, e) == e


def test_bicyclic_known_products():
    assert bicyclic_mul(BicyclicElement(0, 2), BicyclicElement(1, 1)) == BicyclicElement(0, 2)
    assert bicyclic_mul(BicyclicElement(1, 1), BicyclicElement(1, 0)) == BicyclicElement(1, 0)


def test_bicyclic_operator_overload():
    assert BicyclicElement(0, 1) * BicyclicElement(1, 0) == BICYCLIC_IDENTITY


def test_bicyclic_rejects_negative_exponents():
    with pytest.raises(ValueError):
        BicyclicElement(-1, 0)


def test_bicyclic_associative_exhaustive():
    elems = [BicyclicElement(m, n) for m in range(6) for n in range(6)]
    for x in elems:
        for y in elems:
            xy = bicyclic_mul(x, y)
            for z in elems:
                assert bicyclic_mul(xy, z) == bicyclic_mul(x, bicyclic_mul(y, z))


def test_bicyclic_balance_witness_record():
    w = bicyclic_weakly_balanced_witness()
    assert (w.a, w.b, w.x, w.y) == (
        BicyclicElement(0, 2),
        BicyclicElement(1, 0),
        BicyclicElement(0, 0),
        BicyclicElement(1, 1),
    )
    a, b, x, y = w.a, w.b, w.x, w.y
    assert bicyclic_mul(a, x) == bicyclic_mul(a, y) == BicyclicElement(0, 2)
    assert bicyclic_mul(x, b) == bicyclic_mul(y, b) == BicyclicElement(1, 0)
    assert bicyclic_mul(x, a) == BicyclicElement(0, 2)
    assert bicyclic_mul(y, a) == BicyclicElement(1, 3)
    assert bicyclic_mul(b, x) == BicyclicElement(1, 0)
    assert bicyclic_mul(b, y) == BicyclicElement(2, 1)
    assert w.premise_holds
    assert not w.conclusion_holds


def test_bicyclic_bounded_checks_small():
    assert bicyclic_bounded_check("quasi_separative", 1)
    assert bicyclic_bounded_check("quasi_separative", 6)
    assert bicyclic_bounded_check("quasi_cancellative", 4)
    with pytest.raises(ValueError):
        bicyclic_bounded_check("separative", 3)
    with pytest.raises(ValueError):
        bicyclic_bounded_check("quasi_separative", 0)


def test_semilattice_of_trivial_components_is_base():
    trivial = validate([[0]])
    built = semilattice_of_components(
        chain_semilattice(2), [trivial, trivial], {(1, 0): [0]}
    )
    assert built == chain_semilattice(2)


def test_semilattice_of_groups_is_product_like():
    z2 = cyclic_group(2)
    built = semilattice_of_components(
        chain_semilattice(2), [z2, z2], {(1, 0): [0, 1]}
    )
    prof = classify(built)
    assert built.n == 4 and prof.commutative and prof.separative
    assert canonical_form(built) == canonical_form(
        oracles.direct_product(z2, chain_semilattice(2))
    )


def test_semilattice_of_trivial_and_left_zero():
    built = semilattice_of_components(
        chain_semilattice(2), [validate([[0]]), left_zero(2)], {(1, 0): [0, 0]}
    )
    assert built.n == 3
    assert is_quasi_separative(built)[0]
    assert verify_semilattice_decomposition(built).verdict == "verified"


def test_semilattice_of_components_error_cases():
    z2 = cyclic_group(2)
    with pytest.raises(ValueError):
        semilattice_of_components(z2, [z2, z2], {})  # base is not a semilattice
    with pytest.raises(ValueError):
        semilattice_of_components(chain_semilattice(2), [z2], {})
    with pytest.raises(ValueError):
        semilattice_of_components(chain_semilattice(2), [z2, z2], {})  # missing map
    with pytest.raises(ValueError):
        semilattice_of_components(chain_semilattice(2), [z2, z2], {(1, 0): [0]})
    with pytest.raises(NotAssociative):
        # x -> 1 is not a homomorphism of the two-element group
        semilattice_of_components(chain_semilattice(2), [z2, z2], {(1, 0): [1, 1]})


def test_semilattice_sufficiency_direction():
    # gluing quasi-separative components over a semilattice stays
    # quasi-separative
    builds = [
        semilattice_of_components(
            chain_semilattice(2), [validate([[0]]), left_zero(2)], {(1, 0): [0, 0]}
        ),
        semilattice_of_components(
            chain_semilattice(2),
            [cyclic_group(2), cyclic_group(2)],
            {(1, 0): [0, 1]},
        ),
        semilattice_of_components(
            chain_semilattice(2),
            [left_zero(2), rectangular_band(2, 2)],
            {(1, 0): [0, 0, 1, 1]},
        ),
    ]
    for s in builds:
        assert is_quasi_separative(s)[0]
