"""Congruences induced by a relation, the least semilattice congruence,
and quotient tables.

Two elements are identified when the relation meets their left
equalizers identically.  For admissible relations this is always a
congruence; compatibility is nevertheless verified exhaustively, because
callers may supply relations that are not admissible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CayleyTable, _sub_table
from .relations import BinaryRelation, _kernels


class NotACongruence(ValueError):
    """The induced equivalence is not compatible with the product."""

    def __init__(self, witness: tuple, detail: str):
        self.witness = witness
        self.detail = detail
        super().__init__(f"{detail}; witness {witness}")


@dataclass(frozen=True)
class Congruence:
    """A partition of the carrier verified compatible with the product.
    Only the classes are stored; `class_of` is derived from them."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def class_of(self) -> tuple[int, ...]:
        return tuple(_class_index(self.classes))


def induced_congruence(s: CayleyTable, rel: BinaryRelation) -> Congruence:
    """Partition elements by the relation's overlap with their left
    equalizers, then verify two-sided compatibility.

    Raises NotACongruence with a witness (x, y, c) when elements x and y
    share a class but multiplication by c separates their products; this
    can happen only when `rel` is not admissible.  Each member y is
    compared with its class's least member x only: a c separating two
    members separates one of them from x, so this finds the first
    witness of the scan over all pairs of a class, which visits x's
    pairs first.  With one class the scan is skipped: every product lies
    in that class, so no c can separate two products.
    """
    if rel.n != s.n:
        raise ValueError("relation carrier does not match the table")
    groups: dict[tuple[int, ...], list[int]] = {}
    for a, kernel in enumerate(s.fact(_kernels)[0]):
        groups.setdefault(tuple(map(int.__and__, rel.rows, kernel)), []).append(a)
    classes = sorted(groups.values())
    class_of = _class_index(classes)
    rows = s.rows
    for x, *rest in classes if len(classes) > 1 else ():
        for y in rest:
            for c in range(s.n):
                if class_of[rows[c][x]] != class_of[rows[c][y]]:
                    raise NotACongruence(
                        (x, y, c), "left multiplication separates related elements"
                    )
                if class_of[rows[x][c]] != class_of[rows[y][c]]:
                    raise NotACongruence(
                        (x, y, c), "right multiplication separates related elements"
                    )
    return Congruence(tuple(tuple(c) for c in classes))


def _class_index(classes) -> list[int]:
    class_of = [0] * sum(map(len, classes))
    for ci, cls in enumerate(classes):
        for x in cls:
            class_of[x] = ci
    return class_of


def least_semilattice_congruence(s: CayleyTable) -> Congruence:
    """The least congruence whose quotient is a semilattice (Tamura's eta):
    the congruence closure of all pairs (a, a*a) and (a*b, b*a).

    A worklist starts with the generating pairs.  A pair popped whose
    classes differ joins them under the smaller root, so each root is its
    class's least member, and pushes the two roots' translates x*c, y*c
    and c*x, c*y for every c.  Once the list is empty, every joined pair's
    translates are joined, so related elements stay related under
    multiplication on either side; each join is forced by the generating
    pairs, so no smaller congruence holds them.  Classes are ordered by
    least member, as in `induced_congruence`.
    """
    n, rows = s.n, s.rows
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = [(a, rows[a][a]) for a in range(n)]
    pending += [(rows[a][b], rows[b][a]) for a in range(n) for b in range(a + 1, n)]
    while pending:
        x, y = sorted(map(find, pending.pop()))
        if x < y:
            parent[y] = x
            pending.extend(zip(rows[x], rows[y]))
            pending.extend((r[x], r[y]) for r in rows)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    classes = tuple(tuple(groups[r]) for r in sorted(groups))
    return Congruence(classes)


def quotient(s: CayleyTable, c: Congruence) -> CayleyTable:
    """The quotient table over class indices (ordered by minimal
    representative), confirmed not to depend on representatives, so a
    homomorphic image: associative, and not scanned again.  Its entries
    are class indices, in the carrier by construction, so it is built by
    `core._sub_table` without the entry scan, and while a run of checks
    lasts it is one table with every equal quotient or component.  With
    one class the quotient is ((0,),) and the representative scan is
    skipped: every product lies in the one class."""
    if len(c.classes) == 1:
        return _sub_table(((0,),))
    reps = [cls[0] for cls in c.classes]
    cls_of = c.class_of
    rows = s.rows
    q = tuple(tuple([cls_of[rows[a][b]] for b in reps]) for a in reps)
    for x in range(s.n):
        qx = q[cls_of[x]]
        for y in range(s.n):
            if cls_of[rows[x][y]] != qx[cls_of[y]]:
                raise NotACongruence(
                    (x, y), "product class depends on the choice of representatives"
                )
    return _sub_table(q)

