"""Exhaustive generation of small semigroups.

Tables are filled cell by cell in row-major order; after each assignment
every product triple that just became fully determined is checked, so
complete grids are associative by construction and stream out in
lexicographic order.  Canonical forms minimize over all relabelings and,
optionally, over the transpose as well, which identifies mirror-image
tables.  The canonical stream keeps the labeled tables that are their
own canonical form (lex leaders), and remembers nothing.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Iterator

from .core import CayleyTable

MAX_ORDER = 5


class OrderTooLarge(ValueError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"order {n} outside the supported range 1..{MAX_ORDER}")


def _check_order(n: int):
    if not 1 <= n <= MAX_ORDER:
        raise OrderTooLarge(n)


def _ok_after(t: list[list[int]], n: int, r: int, c: int) -> bool:
    """Check every associativity triple that the assignment t[r][c] just
    completed.  A triple (x, y, z) is checked once all four cells its
    evaluation touches are filled; -1 marks an unfilled cell."""
    v = t[r][c]
    tr = t[r]
    tv = t[v]
    rng = range(n)
    # (r, c, z): the pair product starts at the new cell
    tc = t[c]
    for z in rng:
        w = tc[z]
        if w >= 0:
            lhs = tv[z]
            if lhs >= 0:
                rhs = tr[w]
                if rhs >= 0 and lhs != rhs:
                    return False
    # (x, r, c): the inner pair ends at the new cell
    for x in rng:
        u = t[x][r]
        if u >= 0:
            lhs = t[u][c]
            if lhs >= 0:
                rhs = t[x][v]
                if rhs >= 0 and lhs != rhs:
                    return False
    # (x, y, c) where x*y lands on row r: the new cell is (x*y)*z
    for x in rng:
        tx = t[x]
        for y in rng:
            if tx[y] == r:
                w = t[y][c]
                if w >= 0:
                    rhs = tx[w]
                    if rhs >= 0 and rhs != v:
                        return False
    # (r, y, z) where y*z lands on column c: the new cell is x*(y*z)
    for y in rng:
        u = tr[y]
        if u >= 0:
            tu = t[u]
            ty = t[y]
            for z in rng:
                if ty[z] == c and tu[z] >= 0 and tu[z] != v:
                    return False
    return True


def _fills(n: int, values) -> Iterator[CayleyTable]:
    """Every associative n x n table, filled cell by cell in row-major
    order; each visit to a cell tries the values in the order of a fresh
    `values()` call."""
    t = [[-1] * n for _ in range(n)]
    last = n * n

    def fill(k: int) -> Iterator[CayleyTable]:
        if k == last:
            yield CayleyTable([row[:] for row in t])
            return
        r, c = divmod(k, n)
        row = t[r]
        for v in values():
            row[c] = v
            if _ok_after(t, n, r, c):
                yield from fill(k + 1)
        row[c] = -1

    return fill(0)


def enumerate_labeled(n: int) -> Iterator[CayleyTable]:
    """Yield every associative n x n table exactly once, in lexicographic
    row-major order."""
    _check_order(n)
    yield from _fills(n, lambda: range(n))


def random_table(n: int, rng: random.Random) -> CayleyTable:
    """A random associative table: the first of a backtracking fill that
    tries each cell's values in a fresh random order.

    Always succeeds, but one draw can take seconds at order 5, since a
    bad early choice is searched to the end before it is undone.  The
    distribution over semigroups is not uniform, which is fine for its
    use as fuzz input.
    """
    _check_order(n)

    def shuffled() -> list[int]:
        values = list(range(n))
        rng.shuffle(values)
        return values

    return next(_fills(n, shuffled))


def _relabelings(s: CayleyTable, mode: str) -> Iterator[tuple]:
    """Every relabeling of `s` as row tuples, and in "iso_anti" mode every
    relabeling of its transpose as well.  The relabeling by `perm` maps
    cell (i, j) to perm[base[inv[i]][inv[j]]], inv being perm's inverse."""
    if mode not in ("iso", "iso_anti"):
        raise ValueError(f"mode must be 'iso' or 'iso_anti', got {mode!r}")
    bases = [s.rows]
    if mode == "iso_anti":
        bases.append(tuple(zip(*s.rows)))
    for perm in permutations(range(s.n)):
        inv = sorted(range(s.n), key=perm.__getitem__)
        for base in bases:
            yield tuple([tuple([perm[base[a][b]] for b in inv]) for a in inv])


def canonical_form(s: CayleyTable, mode: str = "iso_anti") -> CayleyTable:
    """The lexicographically smallest row-major table among all
    relabelings of `s`; in "iso_anti" mode the minimum also ranges over
    relabelings of the transpose, so a table and its mirror image share
    one canonical form."""
    return CayleyTable(min(_relabelings(s, mode)))


def enumerate_canonical(n: int, mode: str = "iso_anti") -> Iterator[CayleyTable]:
    """One representative (the canonical form) per isomorphism class, or
    per isomorphism-and-mirror class in "iso_anti" mode, in order of
    first appearance in the labeled stream.

    A class is closed under relabeling (and transposing, in "iso_anti"
    mode) and the labeled stream holds all of it in lexicographic order,
    so a class first appears as its least member, which is its canonical
    form.  A labeled table is therefore yielded exactly when no
    relabeling of it is smaller; no memory of earlier classes is kept.
    """
    for s in enumerate_labeled(n):
        if all(s.rows <= t for t in _relabelings(s, mode)):
            yield s
