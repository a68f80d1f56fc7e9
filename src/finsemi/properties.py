"""Classifiers for the semigroup classes handled by this package.

This module alone defines, registers and reads them.  Each predicate
reports the first witness in search order for a failing property.  Its
verdict is a table fact: `classify`, the checks and `is_band`,
`is_commutative` and `is_semilattice` read `s.fact(predicate)`, so each
predicate runs at most once per table.
Most scan the table's equalizer kernels (the fact `relations._kernels`:
L[a][x] is the mask of all y with a*y = a*x, R[a][x] of all y with
y*a = x*a) instead of quantifying over y.  Left cancellation fails at
(a, x, y) for y > x in L[a][x]; weak cancellation at (a, b, x, y) for
y != x in L[a][x] & R[b][x]; weak balance for y in it but not in
R[a][x] & L[b][x]; square descent at (a, x, y) for y in L[aa][x] &
R[aa][x] but not in L[a][x] & R[a][x], aa = a*a.  Quasi-cancellativity
fails at (b, c) for c != b in some L[a][b] and related to b by the
canonical relation, which is the context equivalence of its definition.
Each scan keeps the order of the literal quantifier loops, which
tests/oracles.py keeps (`literal_*`) and checks these against.  The weak
cancellation and weak balance scans visit only the first a and the
first b of each distinct kernel (L[a] and R[b], or the pairs L[a], R[a]
and L[b], R[b]): every other (a, b) repeats the verdict of one scanned
before it, so the first failing (a, b) and its witness are unchanged.
The cancellation scans do the same with L[a] or R[a], and square
descent with the quadruple L[a], R[a], L[aa], R[aa].
"""

from __future__ import annotations

from dataclasses import field, make_dataclass
from functools import reduce
from operator import or_
from typing import Optional

from .core import CayleyTable
from .relations import _kernels, _low_bit, canonical_relation


def _commutative_with_witness(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """Verdict and first witness (x, y), x < y, with x*y != y*x."""
    n, rows = s.n, s.rows
    for x in range(n):
        for y in range(x + 1, n):
            if rows[x][y] != rows[y][x]:
                return False, (x, y)
    return True, None


def _band_with_witness(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """Verdict and first witness (x,) with x*x != x."""
    for x in range(s.n):
        if s.rows[x][x] != x:
            return False, (x,)
    return True, None


def is_separative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """Both dual implications: x2=xy and y2=yx force x=y, and the
    mirrored pair x2=yx and y2=xy force x=y.  Each premise is symmetric
    in x and y, so a pair fails in both orders and the full x != y scan
    first meets it with x < y: each pair is scanned once, x < y."""
    n, rows = s.n, s.rows
    for x in range(n):
        xx = rows[x][x]
        for y in range(x + 1, n):
            yy = rows[y][y]
            if xx == rows[x][y] and yy == rows[y][x]:
                return False, (x, y)
            if xx == rows[y][x] and yy == rows[x][y]:
                return False, (x, y)
    return True, None


def is_quasi_separative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """x2 = xy = yx = y2 forces x = y.  The premise is symmetric in x and
    y, so each pair is scanned once, x < y, as in `is_separative`."""
    n, rows = s.n, s.rows
    for x in range(n):
        xx = rows[x][x]
        for y in range(x + 1, n):
            if xx == rows[x][y] == rows[y][x] == rows[y][y]:
                return False, (x, y)
    return True, None


def _firsts(kernels) -> list[tuple[int, tuple]]:
    """(a, kernels[a]) for the first a of each distinct kernels[a], in
    ascending a.  A scan whose verdict at a depends only on kernels[a]
    needs no other a: a repeat fails exactly when its first does, and
    the first comes earlier in scan order."""
    firsts: dict[tuple, int] = {}
    for a, k in enumerate(kernels):
        firsts.setdefault(k, a)
    return [(a, k) for k, a in firsts.items()]


def is_weakly_cancellative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """a*x = a*y and x*b = y*b jointly force x = y."""
    left, right = s.fact(_kernels)
    firsts_right = _firsts(right)
    for a, la in _firsts(left):
        for b, rb in firsts_right:
            for x, (l, r) in enumerate(zip(la, rb)):
                m = l & r & ~(1 << x)
                if m:
                    return False, (a, b, x, _low_bit(m))
    return True, None


def is_weakly_balanced(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """a*x = a*y and x*b = y*b jointly force x*a = y*a and b*x = b*y.

    A pair with L[a] = R[a] and L[b] = R[b] cannot fail: its mask
    la & rb & ~(ra & lb) is la & lb & ~(la & lb) = 0.  So a balanced a
    (L[a] = R[a]) is paired only with the unbalanced b, in the same
    order; a commutative table scans no pair."""
    firsts = _firsts(zip(*s.fact(_kernels)))
    unbalanced = [(b, (lb, rb)) for b, (lb, rb) in firsts if lb != rb]
    for a, (la, ra) in firsts:
        for b, (lb, rb) in firsts if la != ra else unbalanced:
            for x in range(len(la)):
                m = la[x] & rb[x] & ~(ra[x] & lb[x])
                if m:
                    return False, (a, b, x, _low_bit(m))
    return True, None


def is_quasi_cancellative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """For b != c: if every sandwiching context over the carrier plus a
    fresh identity treats b and c identically (the three product
    equalities hold or fail together for all x, y) and some a has
    a*b = a*c, then the table is not quasi-cancellative."""
    left, _ = s.fact(_kernels)
    for b, related in enumerate(s.fact(canonical_relation).rows):
        m = related & ~(1 << b) & reduce(or_, [la[b] for la in left])
        if m:
            return False, (b, _low_bit(m))
    return True, None


def _first_collision(kernels) -> tuple[bool, Optional[tuple]]:
    """First (a, x, y), x < y, with y in kernels[a][x].  Whether a has
    one depends on kernels[a] alone, so only the first a of each
    distinct kernel is scanned (`_firsts`)."""
    for a, kernel in _firsts(kernels):
        for x, m in enumerate(kernel):
            if m >> x + 1:
                return False, (a, x, _low_bit(m >> x + 1) + x + 1)
    return True, None


def is_left_cancellative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    return _first_collision(s.fact(_kernels)[0])


def is_right_cancellative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    return _first_collision(s.fact(_kernels)[1])


def is_cancellative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    ok, w = _holds(s, "left_cancellative")
    if not ok:
        return False, w
    return _holds(s, "right_cancellative")


def has_square_descent(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """Equalities against a*a descend to equalities against a:
    a2*x = a2*y and x*a2 = y*a2 force a*x = a*y and x*a = y*a.

    The verdict and witness at a depend only on (L[a], R[a], L[aa],
    R[aa]), so only the first a of each distinct quadruple is scanned
    (`_firsts`)."""
    left, right = s.fact(_kernels)
    rows = s.rows
    quads = [(left[a], right[a], left[r[a]], right[r[a]]) for a, r in enumerate(rows)]
    for a, (la, ra, l2s, r2s) in _firsts(quads):
        for x, (l2, r2) in enumerate(zip(l2s, r2s)):
            m = l2 & r2 & ~(la[x] & ra[x])
            if m:
                return False, (a, x, _low_bit(m))
    return True, None


_PREDICATES = {
    "commutative": _commutative_with_witness,
    "band": _band_with_witness,
    "cancellative": is_cancellative,
    "left_cancellative": is_left_cancellative,
    "right_cancellative": is_right_cancellative,
    "separative": is_separative,
    "quasi_separative": is_quasi_separative,
    "weakly_cancellative": is_weakly_cancellative,
    "weakly_balanced": is_weakly_balanced,
    "quasi_cancellative": is_quasi_cancellative,
    "square_descent": has_square_descent,
}


PROFILE_KEYS = tuple(_PREDICATES)


def _as_dict(self) -> dict[str, bool]:
    return {k: getattr(self, k) for k in PROFILE_KEYS}


# One bool field per registered classifier, in `PROFILE_KEYS` order.
PropertyProfile = make_dataclass(
    "PropertyProfile",
    [(key, bool) for key in PROFILE_KEYS]
    + [("witnesses", dict, field(default_factory=dict, compare=False))],
    namespace={
        "__doc__": """Boolean classification across all supported classes.

    Every False entry has a witness tuple under the same key in
    `witnesses`; each witness violates the property it is filed under.
    """,
        "__module__": __name__,
        "as_dict": _as_dict,
    },
    frozen=True,
)


def _holds(s: CayleyTable, key: str) -> tuple[bool, Optional[tuple]]:
    """Verdict and first witness of the classifier `key`, a fact of `s`."""
    return s.fact(_PREDICATES[key])


def is_band(s: CayleyTable) -> bool:
    """Every element is idempotent."""
    return _holds(s, "band")[0]


def is_commutative(s: CayleyTable) -> bool:
    return _holds(s, "commutative")[0]


def is_semilattice(s: CayleyTable) -> bool:
    """A commutative band."""
    return is_band(s) and is_commutative(s)


def classify(s: CayleyTable) -> PropertyProfile:
    """Every classifier's verdict, read from the table's facts, with first
    witnesses for the failures."""
    values = {}
    witnesses = {}
    for key in _PREDICATES:
        ok, w = _holds(s, key)
        values[key] = ok
        if not ok:
            witnesses[key] = w
    return PropertyProfile(witnesses=witnesses, **values)


def format_profile(p: PropertyProfile) -> str:
    """Flat key:value report with stable key order; witness lines follow
    their failing property."""
    lines = []
    for key in PROFILE_KEYS:
        value = getattr(p, key)
        lines.append(f"{key}: {'true' if value else 'false'}")
        if not value:
            w = p.witnesses.get(key)
            if w is not None:
                lines.append(f"{key}_witness: {' '.join(str(v) for v in w)}")
    return "\n".join(lines) + "\n"
