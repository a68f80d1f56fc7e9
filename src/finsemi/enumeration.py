"""Exhaustive and random generation of small semigroups.

Both searches fill a table cell by cell in row-major order and give
each cell only the values that keep associating every product triple
whose cells are filled, so complete grids are associative by
construction.  Once per cell, the triples in which the cell is one outer
product only force its value, read from an index of the filled cells by
value; each value tried is then checked on the 2n triples in which the
cell is an inner product, (r, c, z) and (x, r, c).  The exhaustive fill
tries the values in order and streams the lex leaders: the tables that
are their own canonical form, one per class.  It drops a partial table
as soon as a relabeling of it is smaller, and remembers no earlier
class.  Every leader has 0 in cell (0, 0), since relabeling an
idempotent to 0 puts 0 there, so the fill tries only 0 at the first
cell; a relabeling that sends some a != 0 to 0 then ties at the first
position exactly when a is idempotent, so those relabelings wait as one
block on the diagonal cell (a, a) and are dropped together at any other
value.  Each leader comes with the number of relabelings that map it
onto itself, which the fill finds by comparing them with the complete
table, so a class's orbit size needs no orbit.  Canonical forms minimize
over all relabelings and, optionally, over the transpose, so mirror
images share one.  The labeled tables are the union of the isomorphism
classes, which are disjoint: the labeled stream relabels each class
representative and sorts the members of all classes.  Both streams are
flat row-major byte keys (`_leader_keys`, `_labeled_keys`), which
`enumerate` prints and counts as they are; the public streams build a
table from each key.  A random draw takes the first value that fits in
a random order and starts again at a cell that none fits.
"""

from __future__ import annotations

import functools
import random
from itertools import chain, permutations
from operator import itemgetter
from typing import Iterator, Optional

from .core import CayleyTable

# The largest order of the labeled stream and of `random_table`: order 6
# has 17,061,118 labeled tables.
MAX_LABELED_ORDER = 5
# The largest order of the class fill (`_leader_keys`) and of what reads it,
# one table per class: order 6 has 28,634 isomorphism classes.
MAX_CLASS_ORDER = 6


class OrderTooLarge(ValueError):
    def __init__(self, n: int, bound: int):
        self.n = n
        super().__init__(f"order {n} outside the supported range 1..{bound}")


def _check_order(n: int, bound: int):
    if not 1 <= n <= bound:
        raise OrderTooLarge(n, bound)


def _fits(t, at, r, c, values) -> Iterator[int]:
    """Yield each of `values`, in the order given, that the empty cell
    (r, c) of the partial table t can hold with every product triple
    whose four cells are filled still associating, with t[r][c] set to
    it while it is yielded; the cell is empty again once the values run
    out.  The filled cells are those before (r, c) in row-major order, -1
    marks the others, and `at[v]` lists the filled cells (x, y) holding v.

    A triple (x, y, z) reads four cells: the inner products x*y and y*z
    and the outer products (x*y)*z and x*(y*z).  If the new cell is an
    inner product, the triple is (r, c, z) or (x, r, c); those 2n
    triples are checked for each value.  If it is one outer product only
    and the other three cells are filled, the triple forces the value:
    v = x*(y*c) for each filled x*y = r, and v = (r*y)*z for each filled
    y*z = c.  These are read once per cell from `at`, with the cell still
    empty, and when two of them differ no value fits.  A triple in which
    the new cell is both outer products and no inner one holds whatever
    the value.  So a value keeps every triple it completes associating
    exactly when it is the forced value, if there is one, and (r, c, z)
    and (x, r, c) associate for every z and x.
    """
    forced = -1
    for x, y in at[r]:
        w = t[y][c]
        if w >= 0:
            v = t[x][w]
            if v >= 0 and v != forced:
                if forced >= 0:
                    return
                forced = v
    tr = t[r]
    for y, z in at[c]:
        u = tr[y]
        if u >= 0:
            v = t[u][z]
            if v >= 0 and v != forced:
                if forced >= 0:
                    return
                forced = v
    tc = t[c]
    for v in values if forced < 0 else (forced,):
        tr[c] = v
        tv = t[v]
        # (r, c, z): the pair product starts at the new cell
        for z, w in enumerate(tc):
            if w >= 0:
                lhs = tv[z]
                if lhs >= 0:
                    rhs = tr[w]
                    if rhs >= 0 and lhs != rhs:
                        break
        else:
            # (x, r, c): the inner pair ends at the new cell
            for tx in t:
                u = tx[r]
                if u >= 0:
                    lhs = t[u][c]
                    if lhs >= 0:
                        rhs = tx[v]
                        if rhs >= 0 and lhs != rhs:
                            break
            else:
                yield v
    tr[c] = -1


def _fills(n: int, relabelings) -> Iterator[tuple[bytes, int]]:
    """The associative n x n tables that are <= each of `relabelings` of
    themselves, filled cell by cell in row-major order, as flat row-major
    byte keys, each with the number of `relabelings` that map it onto
    itself (its ties).

    `relabelings` lists records as `_each_relabeling` builds them,
    without the identity (so it is empty only for n = 1 in "iso" mode).
    The search is cut as soon as a partial table loses to one: every cell
    that decided the comparison is filled, so each completion loses the
    same way.  A relabeling whose comparison has stopped at position
    `pos` waits in `waiting` on the later of the cells `pos` and
    `src[pos]`; once that cell is accepted, it resumes until it meets a
    cell not yet filled, and is dropped once it compares greater.  One
    that ties through the last cell waits on the slot after it, so at a
    complete table that slot holds the ties: with the identity they are
    the table's stabilizer, and the orbit has len(relabelings) + 1 over
    ties + 1 members (orbit-stabilizer).

    Every table kept has t[0][0] = 0.  A finite semigroup has an
    idempotent e, and a relabeling pi with pi(e) = 0 puts pi(e*e) = 0 in
    cell (0, 0); the table is <= that relabeling, so its cell (0, 0) is
    0 too.  (The transpose has the same diagonal, so this holds in
    "iso_anti" mode as well.)  So `_fill` tries only 0 at cell 0.
    Position 0 of a relabeling with source a = pi^-1(0) reads
    pi(t[a][a]), from the diagonal cell (a, a).  When a = 0 it is
    pi(0) = 0, a tie, and the relabeling waits on cell 0 as any other.
    When a != 0 it equals t[0][0] = 0, a tie, exactly when t[a][a] = a,
    and is above 0 otherwise, so the relabeling compares greater whatever
    the later cells hold.  These relabelings wait as one block per diagonal
    cell, `blocks[a*n + a]`: when the cell takes the value a the block
    resumes from position 0 with the relabelings due there, and for any
    other value it is dropped with no work per relabeling.
    """
    t = [[-1] * n for _ in range(n)]
    last = n * n
    flat = [-1] * last  # the accepted cells of t in row-major order
    at = [[] for _ in range(n)]  # the accepted cells (x, y) holding each value
    waiting = [[] for _ in range(last + 1)]
    # the relabelings with pi(0) != 0, by their diagonal cell src[0]
    blocks = [[] for _ in range(last)]
    for perm, src, _, _ in relabelings:
        (blocks[src[0]] if src[0] else waiting[0]).append((perm, src, 0))
    return _fill(0, t, flat, at, waiting, blocks)


def _resume(k: int, flat: list[int], waiting, due) -> Optional[list[int]]:
    """Resume the relabelings `due` at cell k and park each on the next
    cell it needs, or on the slot after the last cell once it ties through
    that cell (possible only at the last cell, k = n*n - 1); the slots
    parked on, or None (and nothing parked) when one relabeling is already
    smaller than the table."""
    last = len(flat)
    parked = []
    for perm, src, pos in due:
        while True:
            a = flat[pos]
            b = perm[flat[src[pos]]]
            if a != b:
                break
            pos += 1
            w = src[pos] if pos < last else pos
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


def _fill(k: int, t, flat, at, waiting, blocks) -> Iterator[tuple[bytes, int]]:
    """The completions of the table t, whose cells before k are filled,
    as byte keys, each with its ties.  Cell 0 takes only the value 0, and
    the block of a diagonal cell (a, a) resumes only when the cell takes
    the value a (see `_fills`).  The search state, the value index `at`
    included, is passed down, not closed over, so no frame of a finished
    or dropped stream is kept alive by a reference cycle."""
    if k == len(flat):
        yield bytes(flat), len(waiting[k])
        return
    n = len(t)
    r, c = divmod(k, n)
    due = waiting[k]
    block = blocks[k]
    for v in _fits(t, at, r, c, range(n) if k else range(1)):
        flat[k] = v
        resumed = due + block if block and v == r else due
        parked = _resume(k, flat, waiting, resumed) if resumed else ()
        if parked is not None:
            at[v].append((r, c))
            yield from _fill(k + 1, t, flat, at, waiting, blocks)
            at[v].pop()
            for w in parked:
                waiting[w].pop()


def _labeled_keys(n: int) -> list[bytes]:
    """Every associative n x n table exactly once, as a flat row-major
    byte key, in lexicographic order: the orbits of the isomorphism
    classes, read from their leaders' keys and sorted together.  Classes
    are disjoint, so no repeat is dropped across them."""
    _check_order(n, MAX_LABELED_ORDER)
    keys = []
    for key, _ in _leader_keys(n, "iso"):
        keys += set(_relabeled_keys(key, n, "iso"))
    keys.sort()
    return keys


def enumerate_labeled(n: int) -> Iterator[CayleyTable]:
    """Yield every associative n x n table exactly once, in lexicographic
    row-major order: `_labeled_keys(n)`, built as tables only as they are
    yielded.  Every key is found and sorted before the first table is
    yielded, so a reader of a prefix pays for the whole order (a heap
    merge of the orbits yields sooner but took longer over a whole
    stream)."""
    for key in _labeled_keys(n):
        yield _table(key, n)


def random_table(n: int, rng: random.Random) -> CayleyTable:
    """A random associative table.  Each cell, in row-major order, gets
    the first value, in a fresh random order, that keeps every triple it
    completes associative; a cell that no value fits restarts the draw
    from the empty table.  An attempt that puts 0 in every cell succeeds,
    and each attempt does so with probability at least n**-(n*n), so a
    draw ends with probability 1.  The tables are not uniform over
    semigroups, which is fine for fuzz input."""
    _check_order(n, MAX_LABELED_ORDER)
    values = list(range(n))
    while True:
        t = [[-1] * n for _ in range(n)]
        at = [[] for _ in range(n)]
        for k in range(n * n):
            r, c = divmod(k, n)
            rng.shuffle(values)
            v = next(_fits(t, at, r, c, values), None)
            if v is None:
                break  # a dead cell: start again
            t[r][c] = v
            at[v].append((r, c))
        else:
            return _table(bytes(chain.from_iterable(t)), n)


def _each_relabeling(n: int, mode: str) -> Iterator[tuple]:
    """Every relabeling of an n-element table as a record
    (perm, src, getter, values), the identity first: position i*n + j of
    the relabeled table t' holds perm[t[src[i*n + j]]], so
    t'[i][j] = perm[t[inv[i]][inv[j]]], inv being perm's inverse.  In
    "iso_anti" mode every relabeling of the transpose follows its
    permutation's, with source cell (inv[j], inv[i]).  A flat row-major
    byte key relabels as `bytes(getter(key)).translate(values)`: `getter`
    reads the source cells and `values` maps each value by perm.  At
    n = 1 an itemgetter of one index returns the entry, not a 1-tuple, so
    the getter slices the one-byte key instead."""
    if mode not in ("iso", "iso_anti"):
        raise ValueError(f"mode must be 'iso' or 'iso_anti', got {mode!r}")
    cells = range(n)
    above = bytes(range(n, 256))
    for perm in permutations(cells):
        inv = sorted(cells, key=perm.__getitem__)
        src = tuple([inv[i] * n + inv[j] for i in cells for j in cells])
        values = bytes(perm) + above
        sources = [src]
        if mode == "iso_anti":
            sources.append(tuple([src[j * n + i] for i in cells for j in cells]))
        for source in sources:
            getter = itemgetter(*source) if n > 1 else itemgetter(slice(1))
            yield perm, source, getter, values


@functools.cache
def _relabelings(n: int, mode: str) -> tuple:
    """`_each_relabeling(n, mode)`, built once per order and mode.  Only
    orders up to MAX_CLASS_ORDER are read through this cache; larger ones
    are streamed, so none of their n! records stays resident."""
    return tuple(_each_relabeling(n, mode))


def _relabeled_keys(key: bytes, n: int, mode: str) -> list[bytes]:
    """Every relabeling of the table with flat row-major byte key `key`
    (and of its transpose in "iso_anti" mode) as a key, repeats included;
    byte order is the tables' lexicographic order, the values being below
    256."""
    if n <= MAX_CLASS_ORDER:
        records = _relabelings(n, mode)
    else:
        records = _each_relabeling(n, mode)
    return [bytes(getter(key)).translate(values) for _, _, getter, values in records]


def _relabeled(s: CayleyTable, mode: str) -> list[bytes]:
    """`_relabeled_keys` of the table `s`."""
    return _relabeled_keys(bytes(chain.from_iterable(s.rows)), s.n, mode)


def _table(key, n: int) -> CayleyTable:
    """The table whose rows are the flat row-major key `key`, read as
    tuples of ints.  Every table this module gives out or `decomposition`
    checks is built here, without the closure check: each key is a
    complete fill or the cells of a table that passed it or of a relabeling."""
    return CayleyTable._closed(tuple(zip(*[iter(key)] * n)))


def canonical_form(s: CayleyTable, mode: str = "iso_anti") -> CayleyTable:
    """The lexicographically smallest row-major table among all
    relabelings of `s`; in "iso_anti" mode the minimum also ranges over
    relabelings of the transpose, so a table and its mirror image share
    one canonical form."""
    return _table(min(_relabeled(s, mode)), s.n)


def _orbit(rep: CayleyTable, mode: str) -> list[CayleyTable]:
    """The distinct labeled tables in the class of `rep`: those
    isomorphic to `rep`, n! over its automorphism count, and in
    "iso_anti" mode those isomorphic to its transpose too, the union of
    both `iso` orbits (one orbit when `rep` is isomorphic to its
    transpose).  They come in lexicographic order, which is their order
    in the labeled stream, so a class's canonical form comes first."""
    return [_table(key, rep.n) for key in sorted(set(_relabeled(rep, mode)))]


def _leader_keys(n: int, mode: str) -> Iterator[tuple[bytes, int]]:
    """The lex leaders of order n, one per class, as flat row-major byte
    keys in the fill's order, each with its orbit size: the number of
    labeled tables in its class, which is the number of relabelings over
    the number that map it onto itself, n! over its automorphism count
    in "iso" mode.  The fill counts the relabelings that tie with each
    leader, so no orbit is built.  The order and the mode are checked on
    the call, before the first key is asked for."""
    _check_order(n, MAX_CLASS_ORDER)
    relabelings = _relabelings(n, mode)
    size = len(relabelings)
    # the first relabeling is the identity, which every table ties with
    return ((key, size // (ties + 1)) for key, ties in _fills(n, relabelings[1:]))


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
    for key, _ in _leader_keys(n, mode):
        yield _table(key, n)
