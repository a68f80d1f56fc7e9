import pytest

from finsemi import (
    PROFILE_KEYS,
    chain_semilattice,
    classify,
    cyclic_group,
    format_profile,
    has_square_descent,
    is_cancellative,
    is_left_cancellative,
    is_quasi_cancellative,
    is_quasi_separative,
    is_right_cancellative,
    is_separative,
    is_weakly_balanced,
    is_weakly_cancellative,
    left_zero,
    monogenic,
    null_semigroup,
)
from finsemi import properties

import oracles

L2 = left_zero(2)
N2 = null_semigroup(2)
Z2 = cyclic_group(2)
CHAIN2 = chain_semilattice(2)


def test_separative_examples():
    assert is_separative(CHAIN2) == (True, None)
    assert is_separative(L2) == (False, (0, 1))
    assert is_separative(N2) == (False, (0, 1))


def test_quasi_separative_examples():
    assert is_quasi_separative(L2) == (True, None)
    assert is_quasi_separative(N2) == (False, (0, 1))
    assert is_quasi_separative(CHAIN2) == (True, None)


def test_weakly_cancellative_examples():
    assert is_weakly_cancellative(L2) == (True, None)
    assert is_weakly_cancellative(N2) == (False, (0, 0, 0, 1))
    assert is_weakly_cancellative(Z2) == (True, None)


def test_weakly_balanced_examples():
    assert is_weakly_balanced(L2) == (True, None)
    for s in oracles.corpus_up_to(3):
        from finsemi import is_commutative

        if is_commutative(s):
            assert is_weakly_balanced(s)[0]


def test_quasi_cancellative_examples():
    assert is_quasi_cancellative(Z2) == (True, None)
    assert is_quasi_cancellative(CHAIN2) == (False, (0, 1))
    assert is_quasi_cancellative(L2) == (True, None)


def test_cancellative_examples():
    assert is_cancellative(Z2) == (True, None)
    assert is_left_cancellative(L2) == (False, (0, 0, 1))
    assert is_right_cancellative(L2) == (True, None)
    assert is_cancellative(L2) == (False, (0, 0, 1))
    assert is_cancellative(N2)[0] is False


def test_classify_scans_each_cancellation_side_once(monkeypatch):
    calls = []
    scan = properties._first_collision

    def counted(kernels):
        calls.append(kernels)
        return scan(kernels)

    monkeypatch.setattr(properties, "_first_collision", counted)
    p = classify(cyclic_group(3))
    assert len(calls) == 2
    assert p.cancellative and p.left_cancellative and p.right_cancellative
    calls.clear()
    p = classify(left_zero(2))
    assert len(calls) == 2
    assert p.witnesses["cancellative"] == p.witnesses["left_cancellative"] == (0, 0, 1)


def test_square_descent_examples():
    assert has_square_descent(CHAIN2) == (True, None)
    assert has_square_descent(monogenic(3, 1)) == (False, (0, 0, 1))
    assert has_square_descent(L2) == (True, None)


def test_square_descent_witness_rechecks():
    s = monogenic(3, 1)
    a, x, y = has_square_descent(s)[1]
    aa = s.mul(a, a)
    assert s.mul(aa, x) == s.mul(aa, y)
    assert s.mul(x, aa) == s.mul(y, aa)
    assert s.mul(a, x) != s.mul(a, y)


def test_classify_left_zero_profile():
    p = classify(L2)
    assert p.as_dict() == {
        "commutative": False,
        "band": True,
        "cancellative": False,
        "left_cancellative": False,
        "right_cancellative": True,
        "separative": False,
        "quasi_separative": True,
        "weakly_cancellative": True,
        "weakly_balanced": True,
        "quasi_cancellative": True,
        "square_descent": True,
    }


def test_classify_null_profile():
    p = classify(N2)
    assert p.commutative and p.weakly_balanced and p.square_descent
    assert not (
        p.separative
        or p.quasi_separative
        or p.weakly_cancellative
        or p.quasi_cancellative
        or p.band
        or p.cancellative
    )


def test_classify_group_profile():
    p = classify(Z2)
    assert all(v for k, v in p.as_dict().items() if k != "band")
    assert not p.band


def test_every_false_property_has_rechecking_witness():
    recheckers = {
        "commutative": lambda s, w: s.mul(w[0], w[1]) != s.mul(w[1], w[0]),
        "band": lambda s, w: s.mul(w[0], w[0]) != w[0],
        "left_cancellative": lambda s, w: w[1] != w[2]
        and s.mul(w[0], w[1]) == s.mul(w[0], w[2]),
        "right_cancellative": lambda s, w: w[1] != w[2]
        and s.mul(w[1], w[0]) == s.mul(w[2], w[0]),
        "cancellative": lambda s, w: (
            s.mul(w[0], w[1]) == s.mul(w[0], w[2])
            or s.mul(w[1], w[0]) == s.mul(w[2], w[0])
        )
        and w[1] != w[2],
        "separative": lambda s, w: w[0] != w[1]
        and (
            (
                s.mul(w[0], w[0]) == s.mul(w[0], w[1])
                and s.mul(w[1], w[1]) == s.mul(w[1], w[0])
            )
            or (
                s.mul(w[0], w[0]) == s.mul(w[1], w[0])
                and s.mul(w[1], w[1]) == s.mul(w[0], w[1])
            )
        ),
        "quasi_separative": lambda s, w: w[0] != w[1]
        and s.mul(w[0], w[0])
        == s.mul(w[0], w[1])
        == s.mul(w[1], w[0])
        == s.mul(w[1], w[1]),
        "weakly_cancellative": lambda s, w: w[2] != w[3]
        and s.mul(w[0], w[2]) == s.mul(w[0], w[3])
        and s.mul(w[2], w[1]) == s.mul(w[3], w[1]),
        "weakly_balanced": lambda s, w: s.mul(w[0], w[2]) == s.mul(w[0], w[3])
        and s.mul(w[2], w[1]) == s.mul(w[3], w[1])
        and (
            s.mul(w[2], w[0]) != s.mul(w[3], w[0])
            or s.mul(w[1], w[2]) != s.mul(w[1], w[3])
        ),
        "square_descent": lambda s, w: (
            lambda aa: s.mul(aa, w[1]) == s.mul(aa, w[2])
            and s.mul(w[1], aa) == s.mul(w[2], aa)
            and (
                s.mul(w[0], w[1]) != s.mul(w[0], w[2])
                or s.mul(w[1], w[0]) != s.mul(w[2], w[0])
            )
        )(s.mul(w[0], w[0])),
    }
    for s in oracles.corpus_up_to(3):
        p = classify(s)
        for key, value in p.as_dict().items():
            if value:
                assert key not in p.witnesses
                continue
            w = p.witnesses[key]
            if key == "quasi_cancellative":
                b, c = w
                assert b != c
                assert any(s.mul(a, b) == s.mul(a, c) for a in range(s.n))
                assert oracles.naive_context_equivalent(s, b, c)
            else:
                assert recheckers[key](s, w), (key, s, w)


def test_diagram_implications_small_orders():
    for s in oracles.corpus_up_to(3):
        p = classify(s)
        if p.separative:
            assert p.quasi_separative and p.weakly_balanced
        if p.cancellative:
            assert p.weakly_cancellative and p.separative
        if p.weakly_cancellative:
            assert p.quasi_separative and p.quasi_cancellative
        # separative + quasi-cancellative forces cancellative
        if p.separative and p.quasi_cancellative:
            assert p.cancellative
        # quasi-cancellative + weakly balanced forces weak cancellativity
        if p.quasi_cancellative and p.weakly_balanced:
            assert p.weakly_cancellative
        # commutative quasi-cancellative tables are cancellative
        if p.commutative and p.quasi_cancellative:
            assert p.cancellative


def _check_diagram_order5(s):
    p = classify(s)
    if p.separative:
        assert p.quasi_separative and p.weakly_balanced
    if p.cancellative:
        assert p.weakly_cancellative and p.separative
    if p.weakly_cancellative:
        assert p.quasi_separative and p.quasi_cancellative
    if p.separative and p.quasi_cancellative:
        assert p.cancellative
    if p.quasi_cancellative and p.weakly_balanced:
        assert p.weakly_cancellative
    assert is_quasi_separative(s)[0] == oracles.naive_quasi_separative_short(s)


def test_diagram_implications_sampled_order5():
    import random

    from finsemi import random_table

    rng = random.Random(31)
    for _ in range(200):
        _check_diagram_order5(random_table(5, rng))


def test_diagram_implications_every_order5_class():
    # every predicate here is invariant under relabeling and under the
    # transpose (test_profile_under_transpose_swaps_sides), so the 1,160
    # isomorphism-and-mirror classes (OEIS A027851) stand for all 183,732
    # labeled tables of order 5
    from finsemi import enumerate_canonical

    tables = list(enumerate_canonical(5, "iso_anti"))
    assert len(tables) == 1160
    for s in tables:
        _check_diagram_order5(s)


def test_quasi_separative_formulations_agree():
    for s in oracles.corpus_up_to(3):
        verdict = is_quasi_separative(s)[0]
        assert verdict == oracles.naive_quasi_separative_chain(s)
        assert verdict == oracles.naive_quasi_separative_short(s)
        assert verdict == oracles.naive_quasi_separative_equalizer_form(s)


def test_quasi_cancellative_matches_naive_oracle():
    for s in oracles.corpus_up_to(3):
        assert is_quasi_cancellative(s)[0] == oracles.naive_quasi_cancellative(s)


@pytest.mark.parametrize(
    "predicate, oracle",
    [
        (is_separative, oracles.literal_separative),
        (is_quasi_separative, oracles.literal_quasi_separative),
        (is_weakly_cancellative, oracles.literal_weakly_cancellative),
        (is_weakly_balanced, oracles.literal_weakly_balanced),
        (has_square_descent, oracles.literal_square_descent),
        (is_quasi_cancellative, oracles.literal_quasi_cancellative),
        (is_left_cancellative, oracles.literal_left_cancellative),
        (is_right_cancellative, oracles.literal_right_cancellative),
    ],
    ids=[
        "separative",
        "quasi_separative",
        "weakly_cancellative",
        "weakly_balanced",
        "square_descent",
        "quasi_cancellative",
        "left_cancellative",
        "right_cancellative",
    ],
)
def test_predicate_matches_literal_oracle(predicate, oracle):
    # verdict and first witness in scan order, not just a valid witness
    for s in oracles.oracle_tables():
        assert predicate(s) == oracle(s), s.rows


def test_weakly_balanced_matches_literal_oracle_on_every_order5_class():
    # the scan skips the pairs with L = R on both sides: checked here on
    # the 1,160 classes of order 5 as well as on oracle_tables()
    from finsemi import enumerate_canonical

    for s in enumerate_canonical(5, "iso_anti"):
        assert is_weakly_balanced(s) == oracles.literal_weakly_balanced(s), s.rows


def test_format_profile_stable_order():
    text = format_profile(classify(L2))
    lines = [l.split(":")[0] for l in text.splitlines() if not l.endswith("witness")]
    keys = [l for l in lines if not l.endswith("_witness")]
    assert keys == list(PROFILE_KEYS)
    assert "commutative: false" in text
    assert "commutative_witness: 0 1" in text
