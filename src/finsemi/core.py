"""Finite semigroups as Cayley tables.

A semigroup on the carrier {0, ..., n-1} is stored as its full n x n
multiplication table.  Tables are immutable once built; `validate` is the
entry point for untrusted grids and checks closure and associativity;
tables associative by construction skip it, and the zoo's tables, in the
carrier by construction, take only its associativity check (see
`CayleyTable`).  Each table keeps the facts other modules derive from it
(equalizer kernels, canonical relation, the classifier verdicts of
`properties`, decomposition), each under the function that computes it:
`fact` computes one on first use and keeps it as long as the table; this
module defines no classifier.  While a run lasts (`_sharing`: a run of
checks, or one `finsemi decompose` command), equal component and
quotient tables are one table (`_sub_table`), so their facts are
computed once per run.  `adjoin_identity` returns a plain table whose
fresh identity is the last element n.
"""

from __future__ import annotations

import contextlib
import functools
import re
from operator import itemgetter
from typing import Iterable, Optional


class OutOfRangeEntry(ValueError):
    """A table entry falls outside the carrier {0, ..., n-1}."""

    def __init__(self, row: int, col: int, value, n: int):
        self.row, self.col, self.value, self.n = row, col, value, n
        super().__init__(
            f"entry {value!r} at ({row}, {col}) outside carrier of size {n}"
        )


class NotAssociative(ValueError):
    """The grid fails the associativity triple check."""

    def __init__(self, x: int, y: int, z: int):
        self.witness = (x, y, z)
        super().__init__(f"(x*y)*z != x*(y*z) at (x, y, z) = ({x}, {y}, {z})")


class FormatError(ValueError):
    """Malformed table or relation text."""


class CayleyTable:
    """A finite magma table; rows[i][j] is the product i*j.

    The constructor checks only shape and closure.  Associativity is the
    job of `validate`, for user grids and files, and of its check
    `_associative` alone for zoo tables; transposes, adjoined identities,
    enumerated tables, `decompose`'s components (closed subsets) and
    `quotient`s (homomorphic images) skip it.  `_closed` skips the
    closure check too, for rows known to be square tuples of int tuples
    in the carrier.  Its callers:
    - `enumeration._table`, for every table `enumeration` gives out (the
      fill's complete tables, random draws, the labeled stream and
      canonical forms) or `decomposition` checks (the representatives and
      the members of a witnessed class, relabeled from its leader key).
      Each is read from a flat key whose n*n cells all hold values below
      n: a complete fill, exhaustive or random, the cells of a table that
      passed the check, or those of a relabeling of one, which maps each
      value by a permutation of {0, ..., n-1}.
    - `_sub_table`, for `decompose`'s components, which hold the local
      index of a product within a closed class, and for `quotient`s,
      which hold class indices.
    - the zoo's families (`zoo._table`), whose rows are int tuples built
      in the carrier by slicing: the entry scan would test each of their
      n*n entries, most of a load of a large zoo table.  They still pass
      the associativity check.
    """

    __slots__ = ("n", "rows", "_facts", "__weakref__")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n < 1:
            raise FormatError("table must have at least one element")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise FormatError(f"row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise OutOfRangeEntry(i, j, v, n)
        self.n = n
        self.rows = rows
        self._facts = {}

    @classmethod
    def _closed(cls, rows: tuple) -> "CayleyTable":
        """The table of `rows`, a square tuple of int tuples whose entries
        are already known to lie in the carrier; nothing is checked."""
        s = cls.__new__(cls)
        s.n = len(rows)
        s.rows = rows
        s._facts = {}
        return s

    def fact(self, compute):
        """`compute(self)`, computed on first use and kept with the table,
        keyed by `compute`: each reader names the function that computes
        the fact.  A computation that raises stores nothing."""
        if compute not in self._facts:
            self._facts[compute] = compute(self)
        return self._facts[compute]

    def mul(self, x: int, y: int) -> int:
        return self.rows[x][y]

    def transpose(self) -> "CayleyTable":
        return CayleyTable(zip(*self.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, CayleyTable) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"CayleyTable({[list(r) for r in self.rows]})"


# The sub-tables of the run in progress by their rows, or None outside a
# run (`_sharing`).
_sub_tables: Optional[dict] = None


@contextlib.contextmanager
def _sharing():
    """Within the block, `_sub_table` gives equal rows one table, so its
    facts are computed once; leaving the block, also by an exception,
    lets every such table go.  A fact depends on the rows alone, so
    sharing changes no result: processes forked inside the block fill
    their own copy of the tables built so far, and spawned ones, which
    share none, build fresh tables with the same facts."""
    global _sub_tables
    _sub_tables = {}
    try:
        yield
    finally:
        _sub_tables = None


def _sub_table(rows: tuple) -> CayleyTable:
    """The table of `rows`, a square tuple of int tuples in the carrier
    (see `CayleyTable._closed`): a component or quotient table of
    `decompose`, shared with every equal one while a `_sharing` block
    runs, and fresh outside one."""
    if _sub_tables is None:
        return CayleyTable._closed(rows)
    s = _sub_tables.get(rows)
    if s is None:
        s = _sub_tables[rows] = CayleyTable._closed(rows)
    return s


def validate(grid: Iterable[Iterable[int]]) -> CayleyTable:
    """Build a CayleyTable from a raw grid, confirming closure and
    associativity.

    Raises OutOfRangeEntry or NotAssociative (with the first witness
    triple in scan order) when the grid is not a semigroup.  The entry
    scan is the constructor's; the associativity check is `_associative`,
    which the zoo's tables, built in the carrier, take alone.  At
    n = 256 the two take about 0.003 s and 0.016 s, and the check by
    tuples above 256 elements about 0.24 s at n = 257 (2-core x86-64 VM,
    Python 3.11).
    """
    return _associative(CayleyTable(grid))


def _associative(s: CayleyTable) -> CayleyTable:
    """`s`, once its rows pass the associativity triple check; raises
    NotAssociative with the first witness (x, y, z) in scan order."""
    rows = s.rows
    n = s.n
    # While entries fit in a byte, the n*n products x*(y*z) over every
    # (y, z) are the flat table translated through row x, padded to the
    # 256 bytes `bytes.translate` takes, and the products (x*y)*z are the
    # rows of the x*y joined: one comparison per x.  Only a mismatch runs
    # the y loop, which compares the row z -> x*(y*z) with the row of
    # x*y, and then the z loop that finds the witness.  Above 256 the
    # row z -> x*(y*z) is `getters[y](rx)`.
    if n <= 256:
        keys = [bytes(r) for r in rows]
        flat = b"".join(keys)
        pad = bytes(range(n, 256))
        for x, kx in enumerate(keys):
            through = kx + pad
            if flat.translate(through) == b"".join([keys[v] for v in kx]):
                continue
            for y, ky in enumerate(keys):
                if keys[kx[y]] != ky.translate(through):
                    raise _witness(rows, x, y)
    else:
        getters = [itemgetter(*ry) for ry in rows]
        for x, rx in enumerate(rows):
            for y, getter in enumerate(getters):
                if rows[rx[y]] != getter(rx):
                    raise _witness(rows, x, y)
    return s


def _witness(rows: tuple, x: int, y: int) -> NotAssociative:
    """The failure at the first z with (x*y)*z != x*(y*z)."""
    rx, ry, rxy = rows[x], rows[y], rows[rows[x][y]]
    return NotAssociative(x, y, next(z for z, v in enumerate(rxy) if v != rx[ry[z]]))


def adjoin_identity(s: CayleyTable) -> CayleyTable:
    """Return the table extended by one fresh two-sided identity, the
    last element n.

    A new identity is adjoined even when `s` already has one; the
    original products occupy the leading n x n block unchanged.
    """
    n = s.n
    rows = [list(r) + [i] for i, r in enumerate(s.rows)]
    rows.append(list(range(n + 1)))
    return CayleyTable(rows)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(token: str) -> int:
    """`int(token)` for an ASCII decimal token only: `int` also reads
    '1_0' and non-ASCII digits.  Raises ValueError with `int`'s message."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def parse_table(text: str) -> CayleyTable:
    """Parse the table text format.

    Lines whose first non-blank character is '#' are comments.  The first
    token is the carrier size n, followed by exactly n*n entries in
    row-major order, each token `[+-]?[0-9]+`.  Anything after the last
    entry is an error.
    """
    tokens: list[str] = []
    for line in text.splitlines():
        if line.lstrip().startswith("#"):
            continue
        tokens.extend(line.split())
    if not tokens:
        raise FormatError("no table data found")
    try:
        n = _integer(tokens[0])
    except ValueError:
        raise FormatError(f"carrier size {tokens[0]!r} is not an integer") from None
    if n < 1:
        raise FormatError(f"carrier size must be >= 1, got {n}")
    entries = tokens[1:]
    if len(entries) != n * n:
        raise FormatError(f"expected {n * n} entries for n={n}, got {len(entries)}")
    try:
        values = [_integer(t) for t in entries]
    except ValueError as exc:
        raise FormatError(f"non-integer table entry: {exc}") from None
    return validate([values[i * n : (i + 1) * n] for i in range(n)])


@functools.lru_cache(maxsize=4096)
def _row_line(row: tuple) -> str:
    """One row of the text format, each entry printed as an int: a row of
    bools equals, and so shares a cache entry with, its row of ints.  Its
    callers print a few tables each (`format_table` for `decompose`,
    `zoo` and the converse search), whose rows repeat within and across
    tables; `enumerate` prints its streams a block of byte keys at a
    time instead."""
    return " ".join(map(int.__repr__, row)) + "\n"


def format_table(s: CayleyTable) -> str:
    """Serialize a table to the text format; round-trips through parse_table."""
    return f"{s.n}\n" + "".join(map(_row_line, s.rows))
