import gc
import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsemi import (
    OrderTooLarge,
    canonical_form,
    classify,
    cyclic_group,
    enumerate_canonical,
    enumerate_labeled,
    left_zero,
    random_table,
    right_zero,
    validate,
)
from finsemi.decomposition import CHECK_IDS, verify_corpus
from finsemi.enumeration import (
    _fits,
    _leader_keys,
    _orbit,
    _relabeled,
    _relabelings,
    _table,
)

import oracles


def test_labeled_counts_small():
    # OEIS A023814
    assert sum(1 for _ in enumerate_labeled(1)) == 1
    assert sum(1 for _ in enumerate_labeled(2)) == 8
    assert sum(1 for _ in enumerate_labeled(3)) == 113
    assert sum(1 for _ in enumerate_labeled(4)) == 3492


def test_labeled_matches_brute_force_filter():
    for n in (1, 2, 3):
        assert tuple(s.rows for s in enumerate_labeled(n)) == tuple(
            sorted(oracles.brute_force_semigroups(n))
        )


def test_labeled_stream_is_lexicographic():
    # strictly increasing, so no table repeats; with the count (A023814)
    # and the associativity check below this pins the order-4 stream
    # without reading the canonical stream it is built from
    for n in (1, 2, 3, 4):
        flat = [tuple(v for row in s.rows for v in row) for s in enumerate_labeled(n)]
        assert all(a < b for a, b in zip(flat, flat[1:])), n


def test_labeled_tables_are_valid():
    for s in enumerate_labeled(3):
        assert validate([list(r) for r in s.rows]) == s
    for s in enumerate_labeled(4):
        assert oracles.grid_is_associative(s.rows)


def test_order_bounds():
    # the labeled stream and random draws stop at order 5, below the
    # class bound, 6: order 6 has 17,061,118 labeled tables
    with pytest.raises(OrderTooLarge, match=r"order 0 .* 1\.\.5$"):
        list(enumerate_labeled(0))
    with pytest.raises(OrderTooLarge, match=r"order 6 .* 1\.\.5$"):
        list(enumerate_labeled(6))
    with pytest.raises(OrderTooLarge, match=r"order 6 .* 1\.\.5$"):
        random_table(6, random.Random(0))


def test_canonical_form_modes():
    lz, rz = left_zero(2), right_zero(2)
    assert canonical_form(lz, "iso") == lz  # both relabelings coincide
    assert canonical_form(lz, "iso") != canonical_form(rz, "iso")
    assert canonical_form(lz, "iso_anti") == canonical_form(rz, "iso_anti")
    z2 = cyclic_group(2)
    assert canonical_form(z2, "iso") == z2
    assert canonical_form(z2, "iso_anti") == z2
    with pytest.raises(ValueError):
        canonical_form(lz, "both")


def test_canonical_form_is_class_invariant():
    rng = random.Random(7)
    tables = [random_table(4, rng) for _ in range(10)]
    for s in tables:
        cf = canonical_form(s)
        perm = list(range(4))
        rng.shuffle(perm)
        relabeled = validate(oracles.relabel(s.rows, perm))
        assert canonical_form(relabeled) == cf
        assert canonical_form(s.transpose()) == cf


def test_canonical_counts():
    assert sum(1 for _ in enumerate_canonical(1)) == 1
    assert sum(1 for _ in enumerate_canonical(2)) == 4
    assert sum(1 for _ in enumerate_canonical(3)) == 18


def test_canonical_counts_iso_mode_against_orbit_oracle():
    # independent count: partition the labeled tables into relabeling
    # orbits by exhausting all permutations
    for n in (2, 3):
        labeled = set(oracles.brute_force_semigroups(n))
        orbits = 0
        seen = set()
        for rows in sorted(labeled):
            if rows in seen:
                continue
            orbits += 1
            for p in permutations(range(n)):
                seen.add(oracles.relabel(rows, p))
        assert sum(1 for _ in enumerate_canonical(n, "iso")) == orbits


def test_canonical_stream_yields_canonical_representatives():
    # lex-leader oracle: a labeled table represents its class when it is
    # <= every relabeling of itself (and of its transpose in iso_anti
    # mode) built by oracles.relabel; the counts are OEIS A001423 (iso)
    # and A027851 (iso_anti)
    counts = {"iso": (1, 5, 24, 188), "iso_anti": (1, 4, 18, 126)}
    for n in (1, 2, 3, 4):
        perms = list(permutations(range(n)))
        leaders = {"iso": [], "iso_anti": []}
        for s in enumerate_labeled(n):
            least = {"iso": min(oracles.relabel(s.rows, p) for p in perms)}
            least["iso_anti"] = min(
                least["iso"],
                min(oracles.relabel(s.transpose().rows, p) for p in perms),
            )
            for mode, m in least.items():
                # the fill keeps only tables with 0 at (0, 0)
                assert m[0][0] == 0
                assert canonical_form(s, mode).rows == m
                if s.rows <= m:
                    leaders[mode].append(s.rows)
        for mode, expected in leaders.items():
            assert [s.rows for s in enumerate_canonical(n, mode)] == expected
            assert len(expected) == counts[mode][n - 1]


def test_every_least_relabeling_has_zero_at_the_first_cell():
    # the premise of the fill's first cell, on the oracle's tables: every
    # associative table of order <= 3, found by filtering all grids, has a
    # least relabeling (of it or of its transpose) with 0 at (0, 0)
    for n in (1, 2, 3):
        perms = list(permutations(range(n)))
        for rows in oracles.brute_force_semigroups(n):
            iso = min(oracles.relabel(rows, p) for p in perms)
            mirror = min(oracles.relabel(tuple(zip(*rows)), p) for p in perms)
            assert iso[0][0] == min(iso, mirror)[0][0] == 0, rows


def test_canonical_counts_order5_against_published_counts():
    # expected values from OEIS, not from the code under test: A001423
    # (iso), A027851 (iso and anti-iso), and A023814 (labeled) through
    # orbit-stabilizer: the class of S holds 5!/|Aut S| labeled tables
    from math import factorial

    perms = list(permutations(range(5)))
    iso = list(enumerate_canonical(5, "iso"))
    assert len(iso) == 1915
    assert sum(1 for _ in enumerate_canonical(5, "iso_anti")) == 1160
    labeled = 0
    for s in iso:
        automorphisms = sum(1 for p in perms if oracles.relabel(s.rows, p) == s.rows)
        labeled += factorial(5) // automorphisms
    assert labeled == 183732


@pytest.mark.parametrize("mode, classes", [("iso", 188), ("iso_anti", 126)])
def test_canonical_stream_builds_only_representatives(monkeypatch, mode, classes):
    # the fill cuts every partial table that a relabeling already
    # undercuts, so it builds a table for each class representative and
    # for no other of the 3,492 labeled tables of order 4
    import finsemi.enumeration as enumeration

    built = []
    table = enumeration._table

    def counting(key, n):
        built.append(key)
        return table(key, n)

    monkeypatch.setattr(enumeration, "_table", counting)
    assert sum(1 for _ in enumerate_canonical(4, mode)) == classes
    assert len(built) == classes


def test_canonical_argument_checks():
    with pytest.raises(ValueError):
        list(enumerate_canonical(3, "both"))
    with pytest.raises(OrderTooLarge, match=r"order 7 .* 1\.\.6$"):
        list(enumerate_canonical(7))
    with pytest.raises(OrderTooLarge, match=r"order 0 .* 1\.\.6$"):
        list(enumerate_canonical(0, "iso"))


def test_relabelings_are_built_once_per_order_and_mode():
    # `_orbit`, `canonical_form` and `enumerate_canonical` read one shared
    # tuple instead of building the n! source maps on every call
    for n, mode in ((4, "iso"), (5, "iso_anti")):
        first = _relabelings(n, mode)
        assert isinstance(first, tuple) and _relabelings(n, mode) is first
        assert len(first) == math.factorial(n) * (2 if mode == "iso_anti" else 1)
    with pytest.raises(ValueError, match="'both'"):
        _relabelings(3, "both")


def test_canonical_form_above_max_order_is_not_cached():
    # orders above MAX_CLASS_ORDER build their relabelings for the call
    # only, instead of keeping n! source maps resident (5,040 at order 7)
    cached = _relabelings.cache_info().currsize
    # every relabeling of a left-zero band is the band itself
    assert canonical_form(left_zero(7), "iso") == left_zero(7)
    form = canonical_form(cyclic_group(7))
    reversed_labels = validate(oracles.relabel(form.rows, [6, 5, 4, 3, 2, 1, 0]))
    assert canonical_form(reversed_labels) == form
    assert _relabelings.cache_info().currsize == cached


def test_profile_invariant_under_relabeling():
    rng = random.Random(20240817)
    for _ in range(50):
        s = random_table(4, rng)
        base = classify(s).as_dict()
        perm = list(range(4))
        rng.shuffle(perm)
        relabeled = validate(oracles.relabel(s.rows, perm))
        assert classify(relabeled).as_dict() == base


def test_profile_under_transpose_swaps_sides():
    rng = random.Random(99)
    for _ in range(25):
        s = random_table(4, rng)
        base = classify(s).as_dict()
        flipped = classify(validate([list(r) for r in s.transpose().rows])).as_dict()
        assert flipped["left_cancellative"] == base["right_cancellative"]
        assert flipped["right_cancellative"] == base["left_cancellative"]
        for key in (
            "commutative",
            "band",
            "cancellative",
            "separative",
            "quasi_separative",
            "weakly_cancellative",
            "weakly_balanced",
            "quasi_cancellative",
            "square_descent",
        ):
            assert flipped[key] == base[key], key


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_profile_relabeling_invariance_order3(data):
    rows = data.draw(st.sampled_from(oracles.brute_force_semigroups(3)))
    perm = data.draw(st.permutations(range(3)))
    s = validate(rows)
    relabeled = validate(oracles.relabel(rows, list(perm)))
    assert classify(relabeled).as_dict() == classify(s).as_dict()


def test_order4_stream_is_union_of_canonical_orbits():
    # independent structural consistency check where brute force is out
    # of reach: the 3492 labeled tables must be exactly the disjoint
    # union of the relabeling-and-transpose orbits of the 126 canonical
    # representatives
    labeled = {s.rows for s in enumerate_labeled(4)}
    assert len(labeled) == 3492
    covered = set()
    for rep in enumerate_canonical(4, "iso_anti"):
        orbit = set()
        for base in (rep.rows, tuple(zip(*rep.rows))):
            for perm in permutations(range(4)):
                orbit.add(oracles.relabel(base, perm))
        assert orbit <= labeled, "orbit member missing from the labeled stream"
        assert not (orbit & covered), "orbits of distinct classes overlap"
        covered |= orbit
    assert covered == labeled


def test_orbit_sizes_match_automorphism_counts():
    # orbit-stabilizer: a class of order n has n! / |Aut| labeled members,
    # which is also the weight the fill counts for it, and the orbits of
    # the iso representatives partition the labeled stream, each one in
    # stream order
    for n in (1, 2, 3, 4):
        members = []
        for key, weight in _leader_keys(n, "iso"):
            rep = _table(key, n)
            orbit = [m.rows for m in _orbit(rep, "iso")]
            automorphisms = oracles.automorphism_count(rep.rows)
            assert len(orbit) == weight == math.factorial(n) // automorphisms
            # the representative comes first: `verify_corpus` reuses its
            # reports for that member
            assert orbit == sorted(orbit) and orbit[0] == rep.rows
            members += orbit
        assert sorted(members) == [s.rows for s in enumerate_labeled(n)]


def test_mirror_orbits_match_class_weights():
    # an iso_anti class holds the relabelings of its representative and of
    # the transpose: as many as the weight the fill counts for it, in
    # stream order with the representative first, which `verify_corpus`
    # relies on, and the classes partition the labeled stream
    for n in (1, 2, 3, 4):
        members = []
        for key, weight in _leader_keys(n, "iso_anti"):
            rep = _table(key, n)
            orbit = [m.rows for m in _orbit(rep, "iso_anti")]
            assert len(orbit) == weight
            assert orbit == sorted(orbit) and orbit[0] == rep.rows
            assert set(orbit) == {
                oracles.relabel(base, perm)
                for base in (rep.rows, rep.transpose().rows)
                for perm in permutations(range(n))
            }
            members += orbit
        assert sorted(members) == [s.rows for s in enumerate_labeled(n)]


def test_orbit_sizes_sum_to_labeled_counts():
    # OEIS A023814: labeled semigroups of order n.  The fill's weight of
    # each class is its orbit size, built here from every relabeling, and
    # the weights sum to the labeled count in both modes, those of the
    # iso_anti classes counting the mirror images too
    for n, labeled in ((1, 1), (2, 8), (3, 113), (4, 3492), (5, 183732)):
        classes = list(_leader_keys(n, "iso"))
        for key, weight in classes:
            assert weight == len(_orbit(_table(key, n), "iso")), key
        assert sum(weight for _, weight in classes) == labeled
        assert sum(weight for _, weight in _leader_keys(n, "iso_anti")) == labeled


def _fits_as_oracle(grid, k):
    """The values that the fill's kernel gives the empty row-major cell k
    of `grid`, whose cells before k are filled and associate, checked
    against the oracle's; the grid is left as it was."""
    n = len(grid)
    r, c = divmod(k, n)
    at = [[] for _ in range(n)]
    for i in range(k):
        at[grid[i // n][i % n]].append(divmod(i, n))
    before = [row[:] for row in grid]
    fits = []
    for v in _fits(grid, at, r, c, range(n)):
        assert grid[r][c] == v
        fits.append(v)
    assert grid == before
    assert fits == oracles.oracle_next_values(grid, k), (before, k)
    return fits


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fit_kernel_matches_oracle_on_every_prefix(n):
    # every row-major prefix whose filled triples associate, found through
    # the oracle: the prefixes of every labeled table and every dead end
    grid = [[-1] * n for _ in range(n)]
    complete = []

    def extend(k):
        if k == n * n:
            complete.append(tuple(map(tuple, grid)))
            return
        r, c = divmod(k, n)
        for v in _fits_as_oracle(grid, k):
            grid[r][c] = v
            extend(k + 1)
        grid[r][c] = -1

    extend(0)
    assert complete == list(oracles.brute_force_semigroups(n))


@pytest.mark.parametrize("n, walks", [(4, 300), (5, 200)])
def test_fit_kernel_matches_oracle_on_sampled_prefixes(n, walks):
    # seeded walks through the oracle's prefixes: each step puts a random
    # value that the oracle accepts in the next cell, until a cell that no
    # value fits or a complete table; the sample holds both ends
    rng = random.Random(f"fits/{n}")
    ends = set()
    for _ in range(walks):
        grid = [[-1] * n for _ in range(n)]
        for k in range(n * n):
            fits = _fits_as_oracle(grid, k)
            if not fits:
                ends.add("dead")
                break
            grid[k // n][k % n] = rng.choice(fits)
        else:
            assert oracles.grid_is_associative(grid)
            ends.add("complete")
    assert ends == {"dead", "complete"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_random_table_is_valid_and_seeded(n):
    rng = random.Random(5)
    tables = [random_table(n, rng) for _ in range(5)]
    for s in tables:
        assert s.n == n
        assert validate([list(r) for r in s.rows]) == s
        assert all(type(v) is int for row in s.rows for v in row)
        assert oracles.grid_is_associative(s.rows)
    rng2 = random.Random(5)
    assert [random_table(n, rng2) for _ in range(5)] == tables


class _CountingRandom(random.Random):
    """Counts the value orders drawn: one per cell of each attempt."""

    shuffles = 0

    def shuffle(self, x):
        self.shuffles += 1
        super().shuffle(x)


def test_streams_leave_no_reference_cycles():
    # a finished stream and a finished draw leave nothing for the cycle
    # collector: their search state is freed as soon as they are
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert sum(1 for _ in enumerate_canonical(4, "iso_anti")) == 126
        assert gc.collect() == 0
        assert sum(1 for _ in enumerate_labeled(3)) == 113
        assert gc.collect() == 0
        rng = random.Random(11)
        for _ in range(5):
            random_table(4, rng)
        assert gc.collect() == 0
        # seeded order-5 draws, some of which meet a dead cell and restart
        shuffles = []
        for i in range(8):
            counting = _CountingRandom(f"1/{i}")
            s = random_table(5, counting)
            assert gc.collect() == 0
            assert oracles.grid_is_associative(s.rows)
            shuffles.append(counting.shuffles)
        # a draw that never restarts shuffles once per cell
        assert max(shuffles) > 5 * 5
    finally:
        if enabled:
            gc.enable()


def _naive_relabeled(s, mode):
    # each relabeling built cell by cell, for every permutation of the
    # carrier, of the table and then, in iso_anti mode, of its transpose
    bases = [s.rows] + ([s.transpose().rows] if mode == "iso_anti" else [])
    return [
        bytes(v for row in oracles.relabel(base, perm) for v in row)
        for perm in permutations(range(s.n))
        for base in bases
    ]


@pytest.mark.parametrize("mode", ["iso", "iso_anti"])
def test_relabeled_keys_match_per_cell_relabeling(mode):
    # the keys relabeled by itemgetter and bytes.translate, against the
    # oracle's relabeling of each table, for every iso class of orders 1
    # to 4 (order 1 has a one-byte key)
    for n in (1, 2, 3, 4):
        for rep in enumerate_canonical(n, "iso"):
            assert _relabeled(rep, mode) == _naive_relabeled(rep, mode), (n, rep.rows)
    # above MAX_CLASS_ORDER the relabelings are streamed, not cached
    for s in (cyclic_group(7), left_zero(7)):
        assert _relabeled(s, mode) == _naive_relabeled(s, mode), s.rows


def test_labeled_stream_tables_pass_the_checked_constructors():
    # the labeled stream and the fill's complete tables are built without
    # the closure check; each equals the table `validate` builds from its
    # rows, entries of type int
    for n in (1, 2, 3, 4):
        for s in [*enumerate_labeled(n), *enumerate_canonical(n, "iso")]:
            assert validate(s.rows) == s
            assert all(type(v) is int for row in s.rows for v in row)


def test_witnessed_class_members_pass_the_checked_constructor():
    # the members of each witnessed class are built without the closure
    # check; every member tagged on a witness of an order-4 report is a
    # table that `validate` accepts as it is
    members = {grid for r in verify_corpus(4, CHECK_IDS) for grid, _ in r.witnesses}
    assert len(members) == 48
    for grid in members:
        assert validate(grid).rows == grid
        assert all(type(v) is int for row in grid for v in row)
