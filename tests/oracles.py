"""Independent brute-force oracles for the test suite.

Everything here is written with plain nested loops and set-of-pairs
representations, deliberately sharing no code paths (bitmasks, early
exits, incremental pruning) with the library under test.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product as iproduct

from finsemi import (
    CayleyTable,
    chain_semilattice,
    cyclic_group,
    enumerate_labeled,
    monogenic,
    null_semigroup,
    rectangular_band,
)


def grid_is_associative(grid) -> bool:
    n = len(grid)
    r = range(n)
    return all(
        grid[grid[x][y]][z] == grid[x][grid[y][z]] for x in r for y in r for z in r
    )


@lru_cache(maxsize=None)
def brute_force_semigroups(n: int) -> tuple:
    """Every associative n x n grid, found by filtering all n^(n*n)
    grids.  Only feasible for n <= 3."""
    assert n <= 3
    out = []
    for values in iproduct(range(n), repeat=n * n):
        grid = [values[i * n : (i + 1) * n] for i in range(n)]
        if grid_is_associative(grid):
            out.append(tuple(tuple(row) for row in grid))
    return tuple(out)


@lru_cache(maxsize=None)
def labeled_corpus(n: int) -> tuple:
    return tuple(enumerate_labeled(n))


def corpus_up_to(n: int) -> list:
    tables = []
    for k in range(1, n + 1):
        tables.extend(labeled_corpus(k))
    return tables


def adjoin_identity_grid(rows) -> list:
    n = len(rows)
    out = [list(r) + [i] for i, r in enumerate(rows)]
    out.append(list(range(n + 1)))
    return out


def naive_canonical_relation(s: CayleyTable) -> set:
    """Recompute the canonical relation from its raw definition, with no
    early exits."""
    n = s.n
    mt = adjoin_identity_grid(s.rows)
    pairs = set()
    for x in range(n):
        for y in range(n):
            good = True
            for a in range(n + 1):
                for b in range(n + 1):
                    s1 = mt[mt[a][x]][b] == mt[mt[a][y]][b]
                    s2 = mt[mt[x][b]][a] == mt[mt[y][b]][a]
                    s3 = mt[mt[b][a]][x] == mt[mt[b][a]][y]
                    if not (s1 == s2 == s3):
                        good = False
            if good:
                pairs.add((x, y))
    return pairs


def left_kernel_pairs(s: CayleyTable, a: int) -> set:
    n = s.n
    return {(x, y) for x in range(n) for y in range(n) if s.rows[a][x] == s.rows[a][y]}


def right_kernel_pairs(s: CayleyTable, a: int) -> set:
    n = s.n
    return {(x, y) for x in range(n) for y in range(n) if s.rows[x][a] == s.rows[y][a]}


def naive_admissibility(s: CayleyTable, rel: set) -> tuple[bool, bool, bool]:
    n = s.n
    rows = s.rows
    balanced = all(
        rel & left_kernel_pairs(s, a) == rel & right_kernel_pairs(s, a)
        for a in range(n)
    )
    left = all(
        {(rows[b][x], rows[b][y]) for x, y in rel & left_kernel_pairs(s, rows[a][b])}
        <= rel
        for a in range(n)
        for b in range(n)
    )
    right = all(
        {(rows[x][a], rows[y][a]) for x, y in rel & right_kernel_pairs(s, rows[a][b])}
        <= rel
        for a in range(n)
        for b in range(n)
    )
    return balanced, left, right


def naive_admissibility_witnesses(s: CayleyTable, rel: set) -> tuple:
    """The first witness of each admissibility condition, or None when it
    holds, scanning a, then b, then x and y ascending:
    (balanced_witness, left_witness, right_witness)."""
    n = s.n
    rows = s.rows
    balanced_w = next(
        (
            (a, x, y)
            for a in range(n)
            for x, y in sorted(rel)
            if ((x, y) in left_kernel_pairs(s, a)) != ((x, y) in right_kernel_pairs(s, a))
        ),
        None,
    )
    left_w = next(
        (
            (a, b, x, y)
            for a in range(n)
            for b in range(n)
            for x, y in sorted(rel & left_kernel_pairs(s, rows[a][b]))
            if (rows[b][x], rows[b][y]) not in rel
        ),
        None,
    )
    right_w = next(
        (
            (a, b, x, y)
            for a in range(n)
            for b in range(n)
            for x, y in sorted(rel & right_kernel_pairs(s, rows[a][b]))
            if (rows[x][a], rows[y][a]) not in rel
        ),
        None,
    )
    return balanced_w, left_w, right_w


def naive_induced_partition(s: CayleyTable, rel: set, side: str) -> list:
    """Classes of the equivalence a ~ b iff rel meets the `side` ("left"
    or "right") kernels of a and b in the same pairs, each class
    ascending, ordered by least member."""
    kernel = {"left": left_kernel_pairs, "right": right_kernel_pairs}[side]
    meets = [rel & kernel(s, a) for a in range(s.n)]
    classes = []
    for a in range(s.n):
        if not any(a in cls for cls in classes):
            classes.append(tuple(b for b in range(s.n) if meets[b] == meets[a]))
    return classes


def naive_compatibility_witness(s: CayleyTable, classes) -> tuple | None:
    """The first (witness, detail) at which the partition `classes` fails
    compatibility with the product, or None: every pair x < y of a class,
    classes in the given order, then c ascending, left multiplication
    before right."""
    n, rows = s.n, s.rows
    class_of = {x: ci for ci, cls in enumerate(classes) for x in cls}
    for cls in classes:
        for i, x in enumerate(cls):
            for y in cls[i + 1 :]:
                for c in range(n):
                    if class_of[rows[c][x]] != class_of[rows[c][y]]:
                        return (x, y, c), "left multiplication separates related elements"
                    if class_of[rows[x][c]] != class_of[rows[y][c]]:
                        return (x, y, c), "right multiplication separates related elements"
    return None


def sample_relations(s: CayleyTable) -> list:
    """Relations to test admissibility and induced partitions on, as sets
    of pairs: the diagonal, the full relation, the canonical relation and
    three random relations seeded by the table."""
    n = s.n
    every = [(x, y) for x in range(n) for y in range(n)]
    rng = random.Random(repr(s.rows))
    return [
        {(x, x) for x in range(n)},
        set(every),
        naive_canonical_relation(s),
    ] + [{p for p in every if rng.random() < 0.5} for _ in range(3)]


def naive_quasi_separative_chain(s: CayleyTable) -> bool:
    """Four-term premise, raw loops."""
    n, rows = s.n, s.rows
    for x in range(n):
        for y in range(n):
            if x != y and rows[x][x] == rows[x][y] == rows[y][x] == rows[y][y]:
                return False
    return True


def naive_quasi_separative_short(s: CayleyTable) -> bool:
    """Three-term premise, raw loops."""
    n, rows = s.n, s.rows
    for x in range(n):
        for y in range(n):
            if x != y and rows[x][x] == rows[x][y] == rows[y][y]:
                return False
    return True


def naive_quasi_separative_equalizer_form(s: CayleyTable) -> bool:
    """Membership formulation: (a, b) in the left kernel of a and the
    right kernel of b forces a = b."""
    n = s.n
    for a in range(n):
        for b in range(n):
            if a != b and (a, b) in left_kernel_pairs(s, a) and (a, b) in right_kernel_pairs(s, b):
                return False
    return True


def literal_separative(s: CayleyTable) -> tuple:
    """x*x = x*y and y*y = y*x force x = y, and so do x*x = y*x and
    y*y = x*y; witness (x, y), x != y."""
    n, rows = s.n, s.rows
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            xx, xy, yx, yy = rows[x][x], rows[x][y], rows[y][x], rows[y][y]
            if (xx == xy and yy == yx) or (xx == yx and yy == xy):
                return False, (x, y)
    return True, None


def direct_product(s: CayleyTable, t: CayleyTable) -> CayleyTable:
    """Componentwise product table; element (i, j) gets index i*t.n + j."""
    n, m = s.n, t.n

    def idx(i, j):
        return i * m + j

    grid = [[0] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for j in range(m):
            for k in range(n):
                for l in range(m):
                    grid[idx(i, j)][idx(k, l)] = idx(s.rows[i][k], t.rows[j][l])
    return CayleyTable(grid)


def literal_context_equivalent(mul, elems, b, c) -> bool:
    """For all contexts x, y in `elems`, the three equalities
    (x*b)*y = (x*c)*y, (y*x)*b = (y*x)*c and b*(y*x) = c*(y*x) hold or
    fail together."""
    for x in elems:
        for y in elems:
            s1 = mul(mul(x, b), y) == mul(mul(x, c), y)
            s2 = mul(mul(y, x), b) == mul(mul(y, x), c)
            s3 = mul(b, mul(y, x)) == mul(c, mul(y, x))
            if not (s1 == s2 == s3):
                return False
    return True


def naive_context_equivalent(s: CayleyTable, b: int, c: int) -> bool:
    """The quasi-cancellativity premise for the pair (b, c), recomputed
    from scratch over the carrier plus a hand-adjoined identity."""
    mt = adjoin_identity_grid(s.rows)
    return literal_context_equivalent(lambda u, v: mt[u][v], range(s.n + 1), b, c)


def naive_quasi_cancellative(s: CayleyTable) -> bool:
    return literal_quasi_cancellative(s)[0]


# The literal quantifier sweeps below are the library's former classifier
# loops, kept verbatim as ground truth for the mask scans that replaced
# them.  Each returns (verdict, first witness in scan order).


def literal_weakly_cancellative(s: CayleyTable) -> tuple:
    """a*x = a*y and x*b = y*b jointly force x = y; witness (a, b, x, y)."""
    n, rows = s.n, s.rows
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            for x in range(n):
                rxb = rows[x][b]
                for y in range(n):
                    if x != y and ra[x] == ra[y] and rxb == rows[y][b]:
                        return False, (a, b, x, y)
    return True, None


def literal_weakly_balanced(s: CayleyTable) -> tuple:
    """a*x = a*y and x*b = y*b jointly force x*a = y*a and b*x = b*y;
    witness (a, b, x, y)."""
    n, rows = s.n, s.rows
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rb = rows[b]
            for x in range(n):
                rx = rows[x]
                for y in range(n):
                    if x == y:
                        continue
                    if ra[x] == ra[y] and rx[b] == rows[y][b]:
                        if rx[a] != rows[y][a] or rb[x] != rb[y]:
                            return False, (a, b, x, y)
    return True, None


def literal_square_descent(s: CayleyTable) -> tuple:
    """a2*x = a2*y and x*a2 = y*a2 force a*x = a*y and x*a = y*a;
    witness (a, x, y)."""
    n, rows = s.n, s.rows
    for a in range(n):
        aa = rows[a][a]
        raa = rows[aa]
        ra = rows[a]
        for x in range(n):
            rx = rows[x]
            for y in range(n):
                if x == y:
                    continue
                if raa[x] == raa[y] and rx[aa] == rows[y][aa]:
                    if ra[x] != ra[y] or rx[a] != rows[y][a]:
                        return False, (a, x, y)
    return True, None


def literal_left_cancellative(s: CayleyTable) -> tuple:
    """a*x = a*y forces x = y; witness (a, x, y) with x < y."""
    n, rows = s.n, s.rows
    for a in range(n):
        ra = rows[a]
        for x in range(n):
            for y in range(x + 1, n):
                if ra[x] == ra[y]:
                    return False, (a, x, y)
    return True, None


def literal_right_cancellative(s: CayleyTable) -> tuple:
    """x*a = y*a forces x = y; witness (a, x, y) with x < y."""
    n, rows = s.n, s.rows
    for a in range(n):
        for x in range(n):
            rxa = rows[x][a]
            for y in range(x + 1, n):
                if rxa == rows[y][a]:
                    return False, (a, x, y)
    return True, None


def literal_quasi_cancellative(s: CayleyTable) -> tuple:
    """No b != c that every context over the carrier plus an identity
    treats alike while some a has a*b = a*c; witness (b, c)."""
    n, rows = s.n, s.rows
    for b in range(n):
        for c in range(n):
            if b == c:
                continue
            if not any(rows[a][b] == rows[a][c] for a in range(n)):
                continue
            if naive_context_equivalent(s, b, c):
                return False, (b, c)
    return True, None


def zoo_tables() -> list:
    """Small zoo tables and a direct product, beyond the exhaustive orders."""
    return [
        rectangular_band(2, 3),
        cyclic_group(6),
        chain_semilattice(5),
        null_semigroup(5),
        monogenic(3, 2),
        direct_product(rectangular_band(2, 2), cyclic_group(3)),
    ]


def oracle_tables() -> list:
    """Every labeled table of order <= 4, then `zoo_tables`, for comparing
    library results with the oracles."""
    return corpus_up_to(4) + zoo_tables()


def naive_least_semilattice_congruence(s: CayleyTable) -> set:
    """The least semilattice congruence as a set of pairs: start from the
    diagonal plus every (a, aa) and (ab, ba), then close under symmetry,
    transitivity and multiplication on both sides until nothing is
    added."""
    n, rows = s.n, s.rows
    pairs = {(x, x) for x in range(n)}
    for a in range(n):
        pairs.add((a, rows[a][a]))
        for b in range(n):
            pairs.add((rows[a][b], rows[b][a]))
    while True:
        grown = set(pairs)
        grown |= {(y, x) for x, y in pairs}
        grown |= {(x, z) for x, y in pairs for w, z in pairs if y == w}
        for x, y in pairs:
            for c in range(n):
                grown.add((rows[c][x], rows[c][y]))
                grown.add((rows[x][c], rows[y][c]))
        if grown == pairs:
            return pairs
        pairs = grown


def set_partitions(n: int) -> list:
    """Every partition of {0..n-1}, each a list of blocks in order of
    their least member (Bell(n) of them)."""
    if n == 0:
        return [[]]
    out = []
    for part in set_partitions(n - 1):
        for i in range(len(part)):
            out.append(part[:i] + [part[i] + [n - 1]] + part[i + 1 :])
        out.append(part + [[n - 1]])
    return out


# The three-element monoid of an identity plus two right zeros; its
# induced partition under the relation {(0,0),(1,1),(2,2),(0,1),(1,0)}
# is not a congruence, which makes it the standard negative fixture.
FLIP_FLOP = ((0, 1, 2), (1, 1, 2), (2, 1, 2))


def relabel(rows, perm) -> tuple:
    """Apply a bijection to a table: new[p(i)][p(j)] = p(old[i][j])."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[rows[i][j]]
    return tuple(tuple(r) for r in out)


def automorphism_count(rows) -> int:
    """The permutations that map the table onto itself, found by trying
    every one of the n! relabelings."""
    return sum(
        1 for perm in permutations(range(len(rows))) if relabel(rows, perm) == rows
    )
