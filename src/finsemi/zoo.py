"""Constructors for the standard small semigroups used as test corpus
and as witnesses separating the classifier classes."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping, Optional, Sequence

from .core import CayleyTable, _associative, validate
from .properties import is_semilattice
from .relations import context_equivalent


def left_zero(n: int) -> CayleyTable:
    """x*y = x."""
    _require_positive(n)
    return _table(tuple((i,) * n for i in range(n)))


def right_zero(n: int) -> CayleyTable:
    """x*y = y."""
    _require_positive(n)
    return _table((tuple(range(n)),) * n)


def null_semigroup(n: int) -> CayleyTable:
    """Every product is element 0."""
    _require_positive(n)
    return _table(((0,) * n,) * n)


def chain_semilattice(n: int) -> CayleyTable:
    """x*y = min(x, y); the n-element chain."""
    _require_positive(n)
    return _table(tuple(tuple(chain(range(i), repeat(i, n - i))) for i in range(n)))


def cyclic_group(n: int) -> CayleyTable:
    """Addition mod n; identity at index 0."""
    _require_positive(n)
    twice = tuple(range(n)) * 2
    return _table(tuple(twice[i : i + n] for i in range(n)))


def monogenic(m: int, r: int) -> CayleyTable:
    """The one-generator semigroup with index m and period r.

    Element i stands for the (i+1)-st power of the generator; the
    carrier has m + r - 1 elements and exponents at or beyond m + r wrap
    back by r.
    """
    if m < 1 or r < 1:
        raise ValueError("index and period must be >= 1")
    size = m + r - 1
    # powers[k] is the element of the (k+2)-nd power, the product i*j for
    # i + j = k: exponents up to size stand for themselves, later ones
    # fall back into the cycle m .. size
    powers = tuple(range(1, size)) + tuple(
        m - 1 + (e - m) % r for e in range(size + 1, 2 * size + 1)
    )
    return _table(tuple(powers[i : i + size] for i in range(size)))


def rectangular_band(p: int, q: int) -> CayleyTable:
    """Carrier p*q of coordinate pairs with (a, b)*(c, d) = (a, d)."""
    _require_positive(p)
    _require_positive(q)
    # element a*q + b is the pair (a, b); its row repeats a's q pairs p
    # times, and the q elements with first coordinate a share it
    rows = (tuple(range(a * q, a * q + q)) * p for a in range(p))
    return _table(tuple(chain.from_iterable(repeat(row, q) for row in rows)))


def _table(rows: tuple) -> CayleyTable:
    """The table of `rows`, built in the carrier by construction, so it
    skips the entry scan of `validate` but not its associativity check.

    The families build each row without short temporary tuples (such as
    the two halves of a rotation): the interpreter keeps freed short
    tuples on free lists, which raised the peak RSS of repeated loads by
    about 0.5 MiB."""
    return _associative(CayleyTable._closed(rows))


def semilattice_of_components(
    quotient: CayleyTable,
    components: Sequence[CayleyTable],
    gluing: Optional[Mapping[tuple[int, int], Sequence[int]]] = None,
) -> CayleyTable:
    """Glue component semigroups along a semilattice by structure maps.

    `quotient` must be a semilattice; `components[k]` sits over its
    element k.  `gluing[(a, b)]` maps elements of component a into
    component b and is required for every pair with a != b and a*b = b
    in the quotient; identity maps on each component are implicit.
    The product of x in component a and y in component b maps both into
    component a*b and multiplies there.

    Associativity of the assembled table is confirmed by `validate`, so
    incompatible or non-homomorphic structure maps surface as
    NotAssociative.
    """
    if not is_semilattice(quotient):
        raise ValueError("gluing base must be a semilattice")
    k = quotient.n
    if len(components) != k:
        raise ValueError(f"expected {k} components, got {len(components)}")
    gluing = dict(gluing or {})

    offsets = []
    total = 0
    for comp in components:
        offsets.append(total)
        total += comp.n

    def structure_map(src: int, dst: int) -> Sequence[int]:
        if src == dst:
            return range(components[src].n)
        try:
            phi = gluing[(src, dst)]
        except KeyError:
            raise ValueError(f"missing structure map {src} -> {dst}") from None
        if len(phi) != components[src].n:
            raise ValueError(f"structure map {src} -> {dst} has wrong domain size")
        if any(not 0 <= v < components[dst].n for v in phi):
            raise ValueError(f"structure map {src} -> {dst} escapes its codomain")
        return phi

    grid = [[0] * total for _ in range(total)]
    for a in range(k):
        for b in range(k):
            target = quotient.rows[a][b]
            phi_a = structure_map(a, target)
            phi_b = structure_map(b, target)
            comp = components[target]
            for i in range(components[a].n):
                gi = offsets[a] + i
                for j in range(components[b].n):
                    grid[gi][offsets[b] + j] = offsets[target] + comp.rows[phi_a[i]][
                        phi_b[j]
                    ]
    return validate(grid)


@dataclass(frozen=True, order=True)
class BicyclicElement:
    """Normal form of the monoid on two generators a, b with b*a = 1:
    the pair (m, n) stands for a^m b^n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("exponents must be nonnegative")

    def __mul__(self, other: "BicyclicElement") -> "BicyclicElement":
        return bicyclic_mul(self, other)


BICYCLIC_IDENTITY = BicyclicElement(0, 0)


def bicyclic_mul(x: BicyclicElement, y: BicyclicElement) -> BicyclicElement:
    # a^m b^n * a^p b^q: the middle b^n a^p collapses to a^(p-n) or
    # b^(n-p), which the max formula captures in one expression.
    t = max(x.n, y.m)
    return BicyclicElement(x.m - x.n + t, y.n - y.m + t)


@dataclass(frozen=True)
class BicyclicBalanceWitness:
    """A concrete quadruple on which the balance conclusion fails.

    With a = b^2 = (0,2), b = a = (1,0), x = 1 = (0,0), y = ab = (1,1):
    a*x = a*y and x*b = y*b both hold, yet x*a != y*a and b*x != b*y.
    Only the quadruple is stored; both verdicts recompute their products
    through bicyclic_mul.
    """

    a: BicyclicElement
    b: BicyclicElement
    x: BicyclicElement
    y: BicyclicElement

    @property
    def premise_holds(self) -> bool:
        a, b, x, y = self.a, self.b, self.x, self.y
        return a * x == a * y and x * b == y * b

    @property
    def conclusion_holds(self) -> bool:
        a, b, x, y = self.a, self.b, self.x, self.y
        return x * a == y * a and b * x == b * y


def bicyclic_weakly_balanced_witness() -> BicyclicBalanceWitness:
    """The quadruple showing the bicyclic monoid fails weak balance."""
    return BicyclicBalanceWitness(
        a=BicyclicElement(0, 2),
        b=BicyclicElement(1, 0),
        x=BICYCLIC_IDENTITY,
        y=BicyclicElement(1, 1),
    )


def _bounded_elements(limit: int) -> list[BicyclicElement]:
    return [
        BicyclicElement(m, n) for m in range(limit + 1) for n in range(limit + 1)
    ]


def bicyclic_bounded_check(property_name: str, limit: int) -> bool:
    """Falsification probe over bicyclic elements with both exponents at
    most `limit`.  Returning True means no violation was found at this
    bound; it is not a proof for the full monoid.
    """
    if limit < 1:
        raise ValueError("bound must be >= 1")
    elems = _bounded_elements(limit)
    if property_name == "quasi_separative":
        for x in elems:
            xx = bicyclic_mul(x, x)
            for y in elems:
                if x != y and xx == bicyclic_mul(x, y) == bicyclic_mul(y, x) == bicyclic_mul(y, y):
                    return False
        return True
    if property_name == "quasi_cancellative":
        for b in elems:
            for c in elems:
                if b == c:
                    continue
                if not any(
                    bicyclic_mul(a, b) == bicyclic_mul(a, c) for a in elems
                ):
                    continue
                if context_equivalent(bicyclic_mul, elems, b, c):
                    return False
        return True
    raise ValueError(f"unknown property {property_name!r}")


def _require_positive(n: int):
    if n < 1:
        raise ValueError("order must be >= 1")
