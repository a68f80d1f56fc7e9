import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsemi import (
    CayleyTable,
    FormatError,
    NotAssociative,
    OutOfRangeEntry,
    adjoin_identity,
    chain_semilattice,
    cyclic_group,
    format_table,
    is_commutative,
    left_zero,
    null_semigroup,
    parse_table,
    rectangular_band,
    validate,
)
from finsemi.core import _row_line

import oracles

L2 = [[0, 0], [1, 1]]
N2 = [[0, 0], [0, 0]]
MAX2 = [[0, 1], [1, 1]]


def test_validate_accepts_known_semigroups():
    assert validate(L2).rows == ((0, 0), (1, 1))
    assert validate(N2).rows == ((0, 0), (0, 0))
    # max(i, j) on two elements is associative
    assert validate(MAX2).rows == ((0, 1), (1, 1))


def test_fact_is_computed_once_per_table():
    computed = []

    def compute(s):
        computed.append(s)
        return [s.n]

    s, twin = validate(L2), validate(L2)
    first = s.fact(compute)
    assert s.fact(compute) is first
    assert computed == [s]
    # an equal table built separately keeps facts of its own
    assert twin.fact(compute) == first and twin.fact(compute) is not first
    assert len(computed) == 2 and computed[1] is twin


def test_fact_that_raises_is_not_stored():
    calls = []

    def compute(s):
        calls.append(s)
        if len(calls) == 1:
            raise ValueError("first attempt")
        return s.n

    s = validate(L2)
    with pytest.raises(ValueError):
        s.fact(compute)
    assert s.fact(compute) == 2 and s.fact(compute) == 2
    assert calls == [s, s]


def test_validate_rejects_out_of_range():
    with pytest.raises(OutOfRangeEntry) as exc:
        validate([[0, 2], [1, 1]])
    assert exc.value.value == 2
    with pytest.raises(OutOfRangeEntry):
        validate([[0, -1], [1, 1]])


def test_validate_rejects_non_associative_with_witness():
    grid = [[1, 1], [0, 0]]
    with pytest.raises(NotAssociative) as exc:
        validate(grid)
    x, y, z = exc.value.witness
    assert grid[grid[x][y]][z] != grid[x][grid[y][z]]


def test_validate_reports_the_first_witness_of_the_triple_scan():
    from itertools import product as iproduct

    assert validate([[0]]).rows == ((0,),)
    rejected = 0
    for n in (1, 2, 3):
        for values in iproduct(range(n), repeat=n * n):
            grid = tuple(values[i * n : (i + 1) * n] for i in range(n))
            witness = oracles.first_associativity_witness(grid)
            if witness is None:
                assert validate(grid).rows == grid
                continue
            rejected += 1
            with pytest.raises(NotAssociative) as exc:
                validate(grid)
            assert exc.value.witness == witness
    assert rejected == (16 - 8) + (19683 - 113)


@pytest.mark.parametrize("n", [256, 257])
def test_validate_on_both_sides_of_the_byte_boundary(n):
    # up to 256 elements the rows are compared as bytes, above it as
    # tuples; both report the first witness of the triple scan
    grid = [[x] * n for x in range(n)]
    assert validate(grid).rows == tuple(map(tuple, grid))
    grid[3][5] = 7
    witness = oracles.first_associativity_witness(grid)
    assert witness == (3, 0, 5)
    with pytest.raises(NotAssociative) as exc:
        validate(grid)
    assert exc.value.witness == witness


def test_validate_rejects_non_square():
    with pytest.raises(FormatError):
        validate([[0, 0]])


def test_validate_agrees_with_brute_force_filter():
    from itertools import product as iproduct

    for n in (1, 2):
        accepted = set()
        for values in iproduct(range(n), repeat=n * n):
            grid = [values[i * n : (i + 1) * n] for i in range(n)]
            try:
                accepted.add(validate(grid).rows)
            except NotAssociative:
                pass
        assert accepted == set(oracles.brute_force_semigroups(n))


def assert_last_is_identity(m):
    e = m.n - 1
    assert m.rows[e] == tuple(range(m.n))
    assert tuple(r[e] for r in m.rows) == tuple(range(m.n))
    assert validate(m.rows) == m


def test_adjoin_identity_left_zero():
    m = adjoin_identity(validate(L2))
    assert_last_is_identity(m)
    assert m.rows == ((0, 0, 0), (1, 1, 1), (0, 1, 2))


def test_adjoin_identity_trivial():
    m = adjoin_identity(validate([[0]]))
    assert m.rows == ((0, 0), (0, 1))
    assert_last_is_identity(m)


def test_adjoin_identity_null():
    m = adjoin_identity(validate(N2))
    assert m.rows == ((0, 0, 0), (0, 0, 1), (0, 1, 2))


def test_adjoin_identity_restriction_is_original():
    for s in (validate(L2), cyclic_group(3), chain_semilattice(4)):
        m = adjoin_identity(s)
        assert tuple(r[: s.n] for r in m.rows[: s.n]) == s.rows
        assert_last_is_identity(m)


def test_adjoin_identity_always_fresh():
    z2 = cyclic_group(2)
    m = adjoin_identity(z2)
    assert m.n == 3
    assert_last_is_identity(m)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    idx=st.integers(min_value=0, max_value=2),
)
def test_product_splits_at_any_point(data, idx):
    s = (validate(L2), cyclic_group(3), chain_semilattice(3))[idx]
    word = data.draw(
        st.lists(st.integers(0, s.n - 1), min_size=2, max_size=8)
    )
    cut = data.draw(st.integers(1, len(word) - 1))
    left, right = word[:cut], word[cut:]
    # any bracketing of a word gives one product in a semigroup
    assert reduce(s.mul, word) == s.mul(reduce(s.mul, left), reduce(s.mul, right))


def test_is_commutative_examples():
    assert is_commutative(validate(N2))
    assert not is_commutative(validate(L2))
    assert is_commutative(cyclic_group(2))


def test_parse_table_basic_and_comments():
    text = "# two-element left-zero\n2\n0 0\n1 1\n# trailing comment ok\n"
    assert parse_table(text).rows == ((0, 0), (1, 1))


def test_parse_table_single_line():
    assert parse_table("2 0 0 1 1").rows == ((0, 0), (1, 1))


def test_parse_table_rejects_wrong_entry_count():
    # declares 3 but supplies 8 entries
    with pytest.raises(FormatError):
        parse_table("3\n0 0 0 0 0 0 0 0\n")


def test_parse_table_rejects_trailing_garbage():
    with pytest.raises(FormatError):
        parse_table("2\n0 0\n1 1\nextra")
    with pytest.raises(FormatError):
        parse_table("2\n0 0\n1 1 0\n")


def test_parse_table_rejects_non_integer_and_empty():
    with pytest.raises(FormatError):
        parse_table("x\n")
    with pytest.raises(FormatError):
        parse_table("# only comments\n")
    with pytest.raises(FormatError):
        parse_table("2\n0 0\n1 q\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1_0\n", "carrier size '1_0' is not an integer"),
        ("1\n0_0\n", "non-integer table entry: .*'0_0'"),
        ("1\n\u0660\n", "non-integer table entry: .*'\u0660'"),
        ("\uff11\n0\n", "carrier size '\uff11' is not an integer"),
    ],
)
def test_parse_table_reads_only_ascii_decimal_integers(text, message):
    # int() alone takes underscores and non-ASCII digits
    with pytest.raises(FormatError, match=message):
        parse_table(text)


def test_parse_table_signed_integers_keep_their_range_checks():
    assert parse_table("+1\n+0\n").rows == ((0,),)
    with pytest.raises(OutOfRangeEntry):
        parse_table("1\n-1\n")
    with pytest.raises(FormatError, match="carrier size must be >= 1, got -1"):
        parse_table("-1\n")


def test_format_parse_roundtrip():
    for s in (
        validate(L2),
        null_semigroup(3),
        cyclic_group(4),
        chain_semilattice(5),
        left_zero(1),
    ):
        assert parse_table(format_table(s)) == s


def test_tables_hashable_and_equal_by_rows():
    assert validate(L2) == validate(L2)
    assert hash(validate(L2)) == hash(validate(L2))
    assert validate(L2) != validate(N2)


def test_transpose():
    assert validate(L2).transpose().rows == ((0, 1), (0, 1))


def test_format_table_prints_bool_entries_as_ints():
    # the constructor takes bools as ints; the text is the same whichever
    # of two equal rows, bools or ints, was printed first
    bools = CayleyTable([[False, True], [True, False]])
    ints = CayleyTable([[0, 1], [1, 0]])
    for first, second in ((bools, ints), (ints, bools)):
        _row_line.cache_clear()
        assert format_table(first) == format_table(second) == "2\n0 1\n1 0\n"
    assert parse_table(format_table(bools)) == ints


def test_format_table_matches_per_entry_join():
    # the large zoo tables, whose entries reach two digits, and more random
    # closed tables than the row cache holds rows, against each entry
    # printed and joined on its own
    tables = [
        rectangular_band(6, 6),
        cyclic_group(36),
        chain_semilattice(28),
        null_semigroup(28),
    ]
    rng = random.Random(5)
    while len(tables) <= _row_line.cache_info().maxsize:
        n = rng.randrange(5, 12)
        tables.append(CayleyTable([rng.choices(range(n), k=n) for _ in range(n)]))
    for t in tables:
        assert format_table(t) == oracles.format_table(t.rows)
