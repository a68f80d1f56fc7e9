import gc
import math
import random

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
from finsemi import enumeration
from finsemi.enumeration import _orbit

import oracles


def test_labeled_counts_small():
    assert sum(1 for _ in enumerate_labeled(1)) == 1
    assert sum(1 for _ in enumerate_labeled(2)) == 8
    assert sum(1 for _ in enumerate_labeled(3)) == 113


def test_labeled_matches_brute_force_filter():
    for n in (1, 2, 3):
        assert tuple(s.rows for s in enumerate_labeled(n)) == tuple(
            sorted(oracles.brute_force_semigroups(n))
        )


def test_labeled_stream_is_lexicographic():
    flat = [
        tuple(v for row in s.rows for v in row) for s in enumerate_labeled(3)
    ]
    assert flat == sorted(flat)


def test_labeled_tables_are_valid():
    for s in enumerate_labeled(3):
        assert validate([list(r) for r in s.rows]) == s


def test_order_bounds():
    with pytest.raises(OrderTooLarge):
        list(enumerate_labeled(0))
    with pytest.raises(OrderTooLarge):
        list(enumerate_labeled(6))


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
    from itertools import permutations

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
    from itertools import permutations

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
                assert canonical_form(s, mode).rows == m
                if s.rows <= m:
                    leaders[mode].append(s.rows)
        for mode, expected in leaders.items():
            assert [s.rows for s in enumerate_canonical(n, mode)] == expected
            assert len(expected) == counts[mode][n - 1]


def test_canonical_counts_order5_against_published_counts():
    # expected values from OEIS, not from the code under test: A001423
    # (iso), A027851 (iso and anti-iso), and A023814 (labeled) through
    # orbit-stabilizer: the class of S holds 5!/|Aut S| labeled tables
    from itertools import permutations
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
    table = enumeration.CayleyTable

    def counting(rows):
        built.append(rows)
        return table(rows)

    monkeypatch.setattr(enumeration, "CayleyTable", counting)
    assert sum(1 for _ in enumerate_canonical(4, mode)) == classes
    assert len(built) == classes


def test_canonical_argument_checks():
    with pytest.raises(ValueError):
        list(enumerate_canonical(3, "both"))
    with pytest.raises(OrderTooLarge):
        list(enumerate_canonical(6))
    with pytest.raises(OrderTooLarge):
        list(enumerate_canonical(0, "iso"))


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
    from itertools import permutations

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
    # and the orbits of the iso representatives partition the labeled
    # stream, each one in stream order
    for n in (1, 2, 3, 4):
        members = []
        for rep in enumerate_canonical(n, "iso"):
            orbit = _orbit(rep)
            automorphisms = oracles.automorphism_count(rep.rows)
            assert len(orbit) == math.factorial(n) // automorphisms
            assert orbit == sorted(orbit) and orbit[0] == rep.rows
            members += orbit
        assert sorted(members) == [s.rows for s in enumerate_labeled(n)]


def test_orbit_sizes_sum_to_labeled_counts():
    # OEIS A023814: labeled semigroups of order n
    for n, labeled in ((1, 1), (2, 8), (3, 113), (4, 3492), (5, 183732)):
        assert sum(len(_orbit(rep)) for rep in enumerate_canonical(n, "iso")) == labeled


def test_random_table_is_valid_and_seeded():
    rng = random.Random(5)
    tables = [random_table(5, rng) for _ in range(5)]
    for s in tables:
        assert validate([list(r) for r in s.rows]) == s
        assert oracles.grid_is_associative(s.rows)
    rng2 = random.Random(5)
    assert [random_table(5, rng2) for _ in range(5)] == tables


def test_streams_leave_no_reference_cycles(monkeypatch):
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
        # a draw whose first attempts run out of cell visits and restart
        monkeypatch.setattr(enumeration, "_FIRST_CAP", 1)
        s = random_table(5, rng)
        assert gc.collect() == 0
        assert oracles.grid_is_associative(s.rows)
    finally:
        if enabled:
            gc.enable()
