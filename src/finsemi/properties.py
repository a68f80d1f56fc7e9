"""Classifiers for the semigroup classes handled by this package.

Every predicate is a literal quantifier sweep with early exit; the first
witness in search order is reported for a failing property.  These
functions are the ground truth the verification suites are built on, so
none of them takes algebraic shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .congruence import _band_with_witness
from .core import CayleyTable, _commutative_with_witness, adjoin_identity
from .relations import context_equivalent


def is_separative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """Both dual implications: x2=xy and y2=yx force x=y, and the
    mirrored pair x2=yx and y2=xy force x=y."""
    n, rows = s.n, s.rows
    for x in range(n):
        xx = rows[x][x]
        for y in range(n):
            if x == y:
                continue
            yy = rows[y][y]
            if xx == rows[x][y] and yy == rows[y][x]:
                return False, (x, y)
            if xx == rows[y][x] and yy == rows[x][y]:
                return False, (x, y)
    return True, None


def is_quasi_separative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """x2 = xy = yx = y2 forces x = y."""
    n, rows = s.n, s.rows
    for x in range(n):
        xx = rows[x][x]
        for y in range(n):
            if x != y and xx == rows[x][y] == rows[y][x] == rows[y][y]:
                return False, (x, y)
    return True, None


def is_weakly_cancellative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """a*x = a*y and x*b = y*b jointly force x = y."""
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


def is_weakly_balanced(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """a*x = a*y and x*b = y*b jointly force x*a = y*a and b*x = b*y."""
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


def is_quasi_cancellative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """For b != c: if every sandwiching context over the carrier plus a
    fresh identity treats b and c identically (the three product
    equalities hold or fail together for all x, y) and some a has
    a*b = a*c, then the table is not quasi-cancellative."""
    n, rows = s.n, s.rows
    mt = adjoin_identity(s).rows
    for b in range(n):
        for c in range(n):
            if b == c:
                continue
            if not any(rows[a][b] == rows[a][c] for a in range(n)):
                continue
            if context_equivalent(mt, n + 1, b, c):
                return False, (b, c)
    return True, None


def is_left_cancellative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    n, rows = s.n, s.rows
    for a in range(n):
        ra = rows[a]
        for x in range(n):
            for y in range(x + 1, n):
                if ra[x] == ra[y]:
                    return False, (a, x, y)
    return True, None


def is_right_cancellative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    n, rows = s.n, s.rows
    for a in range(n):
        for x in range(n):
            rxa = rows[x][a]
            for y in range(x + 1, n):
                if rxa == rows[y][a]:
                    return False, (a, x, y)
    return True, None


def is_cancellative(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    ok, w = is_left_cancellative(s)
    if not ok:
        return False, w
    return is_right_cancellative(s)


def has_square_descent(s: CayleyTable) -> tuple[bool, Optional[tuple]]:
    """Equalities against a*a descend to equalities against a:
    a2*x = a2*y and x*a2 = y*a2 force a*x = a*y and x*a = y*a."""
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


PROFILE_KEYS = (
    "commutative",
    "band",
    "cancellative",
    "left_cancellative",
    "right_cancellative",
    "separative",
    "quasi_separative",
    "weakly_cancellative",
    "weakly_balanced",
    "quasi_cancellative",
    "square_descent",
)


@dataclass(frozen=True, eq=True)
class PropertyProfile:
    """Boolean classification across all supported classes.

    Every False entry has a witness tuple under the same key in
    `witnesses`; each witness violates the property it is filed under.
    """

    commutative: bool
    band: bool
    cancellative: bool
    left_cancellative: bool
    right_cancellative: bool
    separative: bool
    quasi_separative: bool
    weakly_cancellative: bool
    weakly_balanced: bool
    quasi_cancellative: bool
    square_descent: bool
    witnesses: dict = field(default_factory=dict, compare=False)

    def as_dict(self) -> dict[str, bool]:
        return {k: getattr(self, k) for k in PROFILE_KEYS}


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


def _build_profile(verdict) -> PropertyProfile:
    """Assemble a profile from `verdict(key)`, which gives the verdict
    and first witness of the classifier `key`."""
    values = {}
    witnesses = {}
    for key in _PREDICATES:
        ok, w = verdict(key)
        values[key] = ok
        if not ok:
            witnesses[key] = w
    return PropertyProfile(witnesses=witnesses, **values)


def classify(s: CayleyTable) -> PropertyProfile:
    """Run every classifier and collect first witnesses for the failures."""
    return _build_profile(lambda key: _PREDICATES[key](s))


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
