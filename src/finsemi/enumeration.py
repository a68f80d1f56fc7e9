"""Exhaustive generation of small semigroups.

Tables are filled cell by cell in row-major order; after each assignment
every product triple that just became fully determined is checked, so
complete grids are associative by construction and stream out in
lexicographic order.  Canonical forms minimize over all relabelings and,
optionally, over the transpose as well, which identifies mirror-image
tables.  The canonical stream is the labeled tables that are their own
canonical form (lex leaders).  The fill that makes it compares each
partial table with its relabelings and abandons a branch as soon as one
of them is smaller, so it builds few of the labeled tables, and it
remembers no earlier class.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Iterator, Optional

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


def _fills(n: int, values, relabelings=()) -> Iterator[CayleyTable]:
    """Every associative n x n table, filled cell by cell in row-major
    order; each visit to a cell tries the values in the order of a fresh
    `values()` call.

    `relabelings` lists (perm, src) pairs as `_relabelings` builds them.
    When it is nonempty, only the tables that are <= each of those
    relabelings of themselves come out, and the search is cut as soon as
    a partial table loses to one: every cell that decided the comparison
    is filled, so each completion loses the same way.  A relabeling whose
    comparison has stopped at position `pos` waits in `waiting` on the
    later of the cells `pos` and `src[pos]`; once that cell is accepted,
    it resumes until it meets a cell not yet filled, and is dropped once
    it compares greater.
    """
    t = [[-1] * n for _ in range(n)]
    last = n * n
    flat = [-1] * last  # the accepted cells of t in row-major order
    waiting = [[] for _ in range(last)]
    for perm, src in relabelings:
        waiting[src[0]].append((perm, src, 0))
    return _fill(0, t, flat, waiting, values)


def _resume(k: int, flat: list[int], waiting) -> Optional[list[int]]:
    """Resume every relabeling waiting on cell k and park it on the next
    cell it needs; the cells parked on, or None (and nothing parked) when
    one relabeling is already smaller than the table."""
    last = len(flat)
    parked = []
    for perm, src, pos in waiting[k]:
        while True:
            a = flat[pos]
            b = perm[flat[src[pos]]]
            if a != b:
                break
            pos += 1
            if pos == last:
                break
            w = src[pos]
            if w < pos:
                w = pos
            if w > k:
                waiting[w].append((perm, src, pos))
                parked.append(w)
                break
        if b < a:
            for w in parked:
                waiting[w].pop()
            return None
    return parked


def _fill(k: int, t, flat, waiting, values) -> Iterator[CayleyTable]:
    """The completions of the table t, whose cells before k are filled.
    The search state is passed down, not closed over, so no frame of a
    finished or dropped stream is kept alive by a reference cycle."""
    if k == len(flat):
        yield CayleyTable([row[:] for row in t])
        return
    n = len(t)
    r, c = divmod(k, n)
    row = t[r]
    due = waiting[k]
    for v in values():
        row[c] = v
        if _ok_after(t, n, r, c):
            flat[k] = v
            parked = _resume(k, flat, waiting) if due else ()
            if parked is not None:
                yield from _fill(k + 1, t, flat, waiting, values)
                for w in parked:
                    waiting[w].pop()
    row[c] = -1


def enumerate_labeled(n: int) -> Iterator[CayleyTable]:
    """Yield every associative n x n table exactly once, in lexicographic
    row-major order."""
    _check_order(n)
    yield from _fills(n, lambda: range(n))


class _Restart(Exception):
    """An attempt of `random_table` used up its cell visits."""


# cell visits allowed to the first attempt of `random_table`
_FIRST_CAP = 64


def random_table(n: int, rng: random.Random) -> CayleyTable:
    """A random associative table: the first of a backtracking fill that
    tries each cell's values in a fresh random order.

    A bad early choice can leave the fill searching a dead subtree for
    seconds, so each attempt may visit only so many cells (calls for a
    fresh order); when it runs out, the draw starts again from the empty
    table with twice the allowance.  The doubling ends every draw, and
    the restarts cut the heavy tail of the time per draw.  The
    distribution over semigroups is not uniform, which is fine for its
    use as fuzz input.
    """
    _check_order(n)
    cap = _FIRST_CAP
    while True:
        visits = 0

        def shuffled() -> list[int]:
            nonlocal visits
            visits += 1
            if visits > cap:
                raise _Restart
            values = list(range(n))
            rng.shuffle(values)
            return values

        # the exception is not bound to a name, so its traceback does
        # not keep this frame in a reference cycle
        try:
            return next(_fills(n, shuffled))
        except _Restart:
            cap *= 2


def _relabelings(n: int, mode: str) -> Iterator[tuple]:
    """Every relabeling of an n-element table as a pair (perm, src), the
    identity first: position i*n + j of the relabeled table t' holds
    perm[t[src[i*n + j]]], so t'[i][j] = perm[t[inv[i]][inv[j]]], inv
    being perm's inverse.  In "iso_anti" mode every relabeling of the
    transpose follows its permutation's, with source cell (inv[j], inv[i])."""
    if mode not in ("iso", "iso_anti"):
        raise ValueError(f"mode must be 'iso' or 'iso_anti', got {mode!r}")
    cells = range(n)
    for perm in permutations(cells):
        inv = sorted(cells, key=perm.__getitem__)
        yield perm, tuple([inv[i] * n + inv[j] for i in cells for j in cells])
        if mode == "iso_anti":
            yield perm, tuple([inv[j] * n + inv[i] for i in cells for j in cells])


def _relabeled(s: CayleyTable, mode: str) -> Iterator[tuple]:
    """Every relabeling of `s` (and of its transpose in "iso_anti" mode)
    as a flat row-major tuple, repeats included."""
    flat = [v for row in s.rows for v in row]
    for perm, src in _relabelings(s.n, mode):
        yield tuple([perm[flat[i]] for i in src])


def _grid(flat: tuple, n: int) -> tuple:
    return tuple(flat[i : i + n] for i in range(0, n * n, n))


def canonical_form(s: CayleyTable, mode: str = "iso_anti") -> CayleyTable:
    """The lexicographically smallest row-major table among all
    relabelings of `s`; in "iso_anti" mode the minimum also ranges over
    relabelings of the transpose, so a table and its mirror image share
    one canonical form."""
    return CayleyTable(_grid(min(_relabeled(s, mode)), s.n))


def _orbit(rep: CayleyTable) -> list[tuple]:
    """The distinct labeled tables isomorphic to `rep`, as row tuples in
    lexicographic order, which is their order in the labeled stream.
    Their number is n! over the number of automorphisms of `rep`."""
    return [_grid(flat, rep.n) for flat in sorted(set(_relabeled(rep, "iso")))]


def enumerate_canonical(n: int, mode: str = "iso_anti") -> Iterator[CayleyTable]:
    """One representative (the canonical form) per isomorphism class, or
    per isomorphism-and-mirror class in "iso_anti" mode, in order of
    first appearance in the labeled stream.

    A class is closed under relabeling (and transposing, in "iso_anti"
    mode) and the labeled stream holds all of it in lexicographic order,
    so a class first appears as its least member, which is its canonical
    form.  The stream is therefore the labeled tables that no relabeling
    undercuts (lex leaders).  The fill checks that on partial tables and
    cuts every branch that a relabeling already undercuts, so it never
    builds most labeled tables; no memory of earlier classes is kept.
    """
    _check_order(n)
    # the first relabeling is the identity, which every table ties with
    relabelings = list(_relabelings(n, mode))[1:]
    yield from _fills(n, lambda: range(n), relabelings)
