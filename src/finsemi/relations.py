"""Binary relations over a fixed carrier and the equalizer machinery.

A `BinaryRelation` keeps one bitmask per first component; it is built,
compared and listed, and carries no relation algebra.  The left
equalizer of an element a relates x and y when a*x = a*y; the right
equalizer mirrors it.  A relation is *admissible* when it meets both
equalizers of every element identically and is stable under the two
translation conditions of `AdmissibilityReport`.  The equivalence an
admissible relation induces is a congruence (see the congruence module),
which check t4 confirms.  The converse fails: the full relation on the
two-element left-zero band is not balanced, yet it induces the one-class
congruence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import CayleyTable, FormatError, _integer


class BinaryRelation:
    """A set of ordered pairs over {0..n-1}, one bitmask per first component."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        if n < 1:
            raise ValueError("carrier must be nonempty")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for i, m in enumerate(rows):
            if m & ~full:
                raise ValueError(f"row {i} relates elements outside the carrier")
        self.n = n
        self.rows = rows

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "BinaryRelation":
        rows = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) outside carrier of size {n}")
            rows[x] |= 1 << y
        return cls(n, rows)

    @classmethod
    def diagonal(cls, n: int) -> "BinaryRelation":
        return cls(n, tuple(1 << x for x in range(n)))

    @classmethod
    def full(cls, n: int) -> "BinaryRelation":
        m = (1 << n) - 1
        return cls(n, (m,) * n)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Yield pairs in ascending lexicographic order."""
        for x, m in enumerate(self.rows):
            while m:
                yield (x, _low_bit(m))
                m &= m - 1

    def __len__(self) -> int:
        return sum(bin(m).count("1") for m in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryRelation)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"BinaryRelation({self.n}, pairs={list(self.pairs())})"


def _low_bit(m: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (m & -m).bit_length() - 1


def _kernel(image) -> tuple[int, ...]:
    """For each x, the mask of all y with image[y] == image[x]."""
    masks = [0] * len(image)
    for y, v in enumerate(image):
        masks[v] |= 1 << y
    return tuple(map(masks.__getitem__, image))


def _kernels(s: CayleyTable) -> tuple[list[tuple], list[tuple]]:
    """The left kernels L and right kernels R, read as the table fact
    `s.fact(_kernels)`: L[a][x] is the mask of all y with a*y = a*x,
    R[a][x] the mask of all y with y*a = x*a.

    Equal kernels, on either side, are one shared tuple, so the scans
    that skip repeated kernels compare them by identity first; equal
    rows or columns build their kernel once."""
    by_image: dict[tuple, tuple] = {}
    shared: dict[tuple, tuple] = {}

    def kernel(image):
        if image not in by_image:
            k = _kernel(image)
            by_image[image] = shared.setdefault(k, k)
        return by_image[image]

    return list(map(kernel, s.rows)), list(map(kernel, zip(*s.rows)))


def left_equalizer(s: CayleyTable, a: int) -> BinaryRelation:
    """Pairs (x, y) with a*x = a*y; the kernel of left translation by a."""
    return BinaryRelation(s.n, s.fact(_kernels)[0][a])


def right_equalizer(s: CayleyTable, a: int) -> BinaryRelation:
    """Pairs (x, y) with x*a = y*a; the kernel of right translation by a."""
    return BinaryRelation(s.n, s.fact(_kernels)[1][a])


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the three admissibility conditions: the first witness
    of each is stored, None when it holds, and the verdicts are derived.

    balanced:      rel meets left and right equalizers of every a identically
    left_stable:   left-translating rel's overlap with the left equalizer of
                   a*b by b stays inside rel
    right_stable:  the mirrored condition on the right
    """

    balanced_witness: Optional[tuple[int, int, int]] = None
    left_witness: Optional[tuple[int, int, int, int]] = None
    right_witness: Optional[tuple[int, int, int, int]] = None

    @property
    def balanced(self) -> bool:
        return self.balanced_witness is None

    @property
    def left_stable(self) -> bool:
        return self.left_witness is None

    @property
    def right_stable(self) -> bool:
        return self.right_witness is None

    @property
    def all_satisfied(self) -> bool:
        return self.balanced and self.left_stable and self.right_stable


def _pull_back(rel_rows, t) -> list[int]:
    """For each x, the mask of all y with (t[x], t[y]) in rel."""
    reached = {rel_rows[v] for v in t}
    pulled = {r: sum(1 << y for y, v in enumerate(t) if r >> v & 1) for r in reached}
    return [pulled[rel_rows[v]] for v in t]


def _first_unstable(rows, rel_rows, kernels, translations, on_left: bool):
    """First (a, b, x, y), scanning a, b, x, y ascending, with (x, y) in
    rel and in kernels[a*b] but its image under t = translations[b] (on
    the left) or translations[a] (on the right) not in rel.

    bad[i][x] is the mask of all y with (x, y) in rel and (t[x], t[y])
    not in rel for t = translations[i] (`_pull_back`).  So (a, b) fails
    at (x, y) exactly when y is in bad[i][x] & kernels[a*b][x], and only
    the translations with some bad pair need the (a, b, x) scan."""
    n = len(rows)
    bad = []
    for t in translations:
        bad.append([m & ~p for m, p in zip(rel_rows, _pull_back(rel_rows, t))])
    failing = [any(masks) for masks in bad]
    if not any(failing):
        return None
    for a, b in itertools.product(range(n), repeat=2):
        i = b if on_left else a
        if failing[i]:
            for x, (m, k) in enumerate(zip(bad[i], kernels[rows[a][b]])):
                if m & k:
                    return (a, b, x, _low_bit(m & k))
    return None


def check_admissibility(s: CayleyTable, rel: BinaryRelation) -> AdmissibilityReport:
    """Evaluate the three admissibility conditions over the table's left
    and right kernels, reporting the first witness of each in scan order.
    The full relation holds every translated pair, so it is stable on
    both sides and only its balance is scanned.  The balance scan skips
    every a with L[a] is R[a]: equal kernels are one shared tuple
    (`_kernels`), and where they are equal no x can differ."""
    if rel.n != s.n:
        raise ValueError("relation carrier does not match the table")
    n, rows, rel_rows = s.n, s.rows, rel.rows
    left, right = s.fact(_kernels)
    bal_w = next(
        (
            (a, x, _low_bit(d))
            for a, (la, ra) in enumerate(zip(left, right))
            if la is not ra
            for x in range(n)
            if (d := rel_rows[x] & (la[x] ^ ra[x]))
        ),
        None,
    )
    left_w = right_w = None
    if rel_rows.count((1 << n) - 1) < n:
        left_w = _first_unstable(rows, rel_rows, left, rows, True)
        right_w = _first_unstable(rows, rel_rows, right, list(zip(*rows)), False)
    return AdmissibilityReport(bal_w, left_w, right_w)


def context_equivalent(mul, elems, x, y) -> bool:
    """True when for every a, b in `elems` the three equalities
    a*x*b = a*y*b, b*a*x = b*a*y, x*b*a = y*b*a hold or fail together,
    with `mul` an associative product.  With the carrier plus an
    adjoined identity as `elems`, this is the pairwise definition of
    `canonical_relation`, which is built from pull-backs instead."""
    for a in elems:
        ax, ay = mul(a, x), mul(a, y)
        for b in elems:
            s1 = mul(ax, b) == mul(ay, b)
            ba = mul(b, a)
            if s1 != (mul(ba, x) == mul(ba, y)):
                return False
            if s1 != (mul(x, ba) == mul(y, ba)):
                return False
    return True


def canonical_relation(s: CayleyTable) -> BinaryRelation:
    """The relation of context-independent pairs.

    (x, y) is included when `context_equivalent` holds for it with the
    carrier plus a fresh identity as contexts: every sandwiching context
    yields the three product equalities all true or all false.  Always
    reflexive and symmetric, and always balanced; it is the relation the
    decomposition module feeds to the induced congruence.

    With L[c], R[c] the kernels of c, the identity contexts say that
    (x, y) is in B, the pairs on which every L[c] and R[c] agree.  On B,
    x*b*a = y*b*a says (x, y) in R[b*a] = L[b*a], the same as b*a*x =
    b*a*y <=> (ax, ay) in L[b], and a*x*b = a*y*b <=> (ax, ay) in R[b];
    so the rest say that (ax, ay) is in B for every a in S: the relation
    is B met with its pull-backs along all left translations x -> a*x.
    Mirrored, a*x*b = a*y*b <=> (xb, yb) in L[a] and x*b*a = y*b*a <=>
    (xb, yb) in R[a]: it is also B met with its pull-backs along all
    right translations x -> x*b.  Built from one pull-back per distinct
    row, until the meet is full (B is full on every commutative table)
    or the diagonal; afresh on each call, once per table as the fact
    `s.fact(canonical_relation)`.

    So the relation, rel, always induces a congruence.  rel lies in B and
    is closed under every left translation: for (x, y) in rel, (cx, cy)
    and (a*cx, a*cy) = ((ac)x, (ac)y) are in B for every a, since rel
    lies in B's pull-back along every left translation, so (cx, cy) is
    in rel; mirrored, rel is closed under every right translation.
    Hence `check_admissibility(s, rel)` always holds.  Let a ~ a' mean
    that rel meets L[a] and L[a'] alike (`induced_congruence`).  Then
    ac ~ a'c: for (x, y) in rel, (cx, cy) is in rel, so a*cx = a*cy <=>
    a'*cx = a'*cy.  And ca ~ ca': (x, y) and (xc, yc) are in rel, so in
    B, and c*ax = c*ay <=> x*ca = y*ca <=> a*xc = a*yc <=> a'*xc =
    a'*yc, and back the same way for a'.
    """
    n = s.n
    left, right = s.fact(_kernels)
    full, diagonal = [(1 << n) - 1] * n, [1 << x for x in range(n)]
    rel = balanced = full
    for lc, rc in dict.fromkeys(zip(left, right)):
        rel = balanced = [m & ~(l ^ r) for m, l, r in zip(balanced, lc, rc)]
    for t in dict.fromkeys(s.rows):
        if rel in (full, diagonal):
            break
        rel = list(map(int.__and__, rel, _pull_back(balanced, t)))
    return BinaryRelation(n, rel)


def parse_relation(text: str, n: int) -> BinaryRelation:
    """Parse the relation text format: one "x y" pair of `[+-]?[0-9]+`
    tokens per line, '#' comments."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected two indices, got {body!r}")
        try:
            x, y = _integer(parts[0]), _integer(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer pair {body!r}") from None
        if not (0 <= x < n and 0 <= y < n):
            raise FormatError(f"line {lineno}: pair ({x}, {y}) outside carrier {n}")
        pairs.append((x, y))
    return BinaryRelation.from_pairs(n, pairs)


def format_relation(r: BinaryRelation) -> str:
    """Serialize a relation as sorted "x y" lines."""
    return "".join(f"{x} {y}\n" for x, y in r.pairs())
