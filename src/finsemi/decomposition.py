"""Semilattice decomposition and the verification suites built on it.

`decompose` drives the full pipeline: canonical relation, induced
congruence, quotient, and per-class component tables.  The verify_*
functions each check one structural claim on a single table and report
verified / violated / not-applicable with re-checkable witnesses.  They
read the decomposition and the classifier verdicts as facts of the table
(`s.fact(decompose)`), so each is computed once per table, a component's
once per component table.  While one run of checks lasts (`run_checks`,
`_corpus`), equal component and quotient tables, of one table or of
many, are one table (`core._sharing`), so a run computes their facts once
per distinct grid; they are let go when the run ends, and a second run
computes them again.  Corpus aggregation and the open counterexample
search live here too: `verify_corpus` and `summarize_corpus` report on
every labeled table of an order from one table per isomorphism-and-mirror
class, each count weighted by the class's size (both of its isomorphism
orbits) as the enumeration's fill counts it.  Both come from one
function, `_corpus`, which folds the classes' reports as they arrive,
keeps those whose representative yields a witness, merges their members
in labeled order, and builds and checks them one by one while a report
lists fewer witnesses than it shows: every one for `verify_corpus`, the
first `_WITNESSES_SHOWN` for `summarize_corpus`, which stores how many
there are in all.
"""

from __future__ import annotations

import functools
import heapq
import math
import multiprocessing
import os
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .congruence import Congruence, NotACongruence, induced_congruence, quotient
from .core import CayleyTable, _sharing, _sub_table
from .enumeration import (
    MAX_CLASS_ORDER,
    _check_order,
    _leader_keys,
    _orbit,
    _table,
    enumerate_canonical,
)
from .properties import PropertyProfile, _holds, is_semilattice
from .relations import (
    BinaryRelation,
    _kernels,
    _low_bit,
    canonical_relation,
    check_admissibility,
)
from . import zoo


@dataclass(frozen=True)
class SemilatticeDecomposition:
    """components[i] is the table of congruence.classes[i], re-indexed
    in class order, or None when that class is not closed under the
    product; the class is the back-map into the source.

    Holds no reference to the decomposed table, so that as a fact of
    that table it forms no reference cycle and is freed with it.  So a
    one-class decomposition holds a copy of the table as its one
    component, and the checks read the table's own facts instead
    (`_components`)."""

    relation: BinaryRelation
    congruence: Congruence
    quotient: CayleyTable
    components: tuple[Optional[CayleyTable], ...]

    @property
    def quotient_is_semilattice(self) -> bool:
        """The semilattice verdict, a fact of the quotient table."""
        return is_semilattice(self.quotient)


def decompose(s: CayleyTable) -> SemilatticeDecomposition:
    """Run the decomposition pipeline on any valid table.

    The congruence is the one the canonical relation induces.  On
    quasi-separative input its quotient is a semilattice, but its classes
    can be coarser than those of the least semilattice congruence
    (`least_semilattice_congruence`) and then need not be
    quasi-cancellative: 48 labeled order-4 tables do so, pinned by
    tests/test_decomposition.py::test_known_gap_*.

    Non-quasi-separative input is not rejected: the result records what
    holds (a class not closed under the product appears as None, and the
    semilattice flag may be False).  Class i is closed iff i*i = i in the
    quotient, which holds the class of every product of two members; a
    closed class is a subsemigroup, so its table skips `validate`, and
    each of its entries is the local index of a product in the class, so
    it skips the entry scan too (`core._sub_table`).  The canonical
    relation induces a congruence on every table (the proof is in
    `canonical_relation`), so this does not raise.  Each call decomposes
    afresh; the checks read the fact `s.fact(decompose)`.  While a run of
    checks lasts (`run_checks`, `_corpus`), equal components and
    quotients, of this table or any other, are one table, whose facts
    are computed once in the run.

    A single class is the whole carrier in order, so its component's
    rows are the table's own; the checks read them through
    `_components`, which gives the table itself and so its facts.
    """
    rel = s.fact(canonical_relation)
    cong = induced_congruence(s, rel)
    q = quotient(s, cong)
    rows, qrows = s.rows, q.rows
    if len(cong.classes) == 1:
        return SemilatticeDecomposition(rel, cong, q, (_sub_table(rows),))
    components: list[Optional[CayleyTable]] = []
    for i, cls in enumerate(cong.classes):
        if qrows[i][i] == i:
            local = {g: j for j, g in enumerate(cls)}
            sub = tuple(tuple([local[rows[x][y]] for y in cls]) for x in cls)
            components.append(_sub_table(sub))
        else:
            components.append(None)
    return SemilatticeDecomposition(rel, cong, q, tuple(components))


def _components(s: CayleyTable, d: SemilatticeDecomposition) -> tuple:
    """The component tables of `d = decompose(s)`, with `s` itself for
    the one component of a one-class decomposition: its rows are `s`'s,
    so it reads the facts `s` already holds (kernels, canonical
    relation, classifier verdicts) instead of computing them again."""
    return (s,) if len(d.components) == 1 else d.components


@dataclass(frozen=True)
class VerificationReport:
    """One check's witnesses and counts, on one table or folded over
    many.  Its verdict is derived from them: violated when it has a
    witness, verified when it counts a table that met the check's
    premises (`applicable`), and not-applicable otherwise.  A corpus
    report lists the witnesses of the least labeled tables; one that
    lists fewer than it counts (`summarize_corpus`) stores their number
    as `total`; otherwise it is None, the list being complete."""

    check: str
    witnesses: tuple = ()
    counts: tuple = ()  # sorted ((name, value), ...)
    total: Optional[int] = None

    @property
    def verdict(self) -> str:
        if self.witnesses:
            return "violated"
        if any(k == "applicable" for k, _ in self.counts):
            return "verified"
        return "not-applicable"


def _report(check: str, witnesses=(), **counts) -> VerificationReport:
    """The report of a check whose premises hold, counted as applicable."""
    counts["applicable"] = 1
    return VerificationReport(check, tuple(witnesses), tuple(sorted(counts.items())))


@functools.cache
def _skipped(check: str, **counts) -> VerificationReport:
    """The report of a check whose premises fail, counted as skipped."""
    counts["skipped"] = 1
    return VerificationReport(check, (), tuple(sorted(counts.items())))


def _implication(check: str, s: CayleyTable, premises, key: str) -> VerificationReport:
    """Premise classifiers all holding must give classifier `key`."""
    if not all(_holds(s, p)[0] for p in premises):
        return _skipped(check)
    ok, w = _holds(s, key)
    return _report(check, [] if ok else [(f"not_{key}", w)])


def admissible_candidates(s: CayleyTable) -> list[tuple[str, BinaryRelation]]:
    """Relations to feed the congruence construction: the diagonal,
    which induces the universal congruence (one class), and the table's
    shared canonical relation, both always admissible (the canonical
    one by the proof in `canonical_relation`), then the full relation
    when it passes the admissibility conditions."""
    out = [
        ("diagonal", BinaryRelation.diagonal(s.n)),
        ("canonical", s.fact(canonical_relation)),
    ]
    full = BinaryRelation.full(s.n)
    if check_admissibility(s, full).all_satisfied:
        out.append(("full", full))
    return out


def verify_congruence_construction(s: CayleyTable) -> VerificationReport:
    """Every admissible candidate relation must induce a congruence.

    Why none fails.  The diagonal lies in every L[a], so it induces one
    class.  The canonical relation is covered by the
    proof in `canonical_relation`.  The full relation, when admissible,
    is balanced: L[a] = R[a] for every a, and a ~ a' iff L[a] = L[a'].
    Then L[ac] = L[a'c], because acx = acy iff (cx, cy) is in L[a]; and
    L[ca] = R[ca] = R[ca'] = L[ca'], because xca = yca iff (xc, yc) is
    in R[a] = L[a].  The compatibility scan stays as the computational
    check; tests/test_decomposition.py checks the full-relation case up
    to order 5.

    A candidate equal to the canonical relation reads the decomposition
    fact instead of inducing its congruence again: `decompose` raises iff
    `induced_congruence` does on that relation, with the same witness,
    since `quotient` cannot fail after the compatibility scan."""
    candidates = admissible_candidates(s)
    witnesses = []
    for name, rel in candidates:
        try:
            if rel == s.fact(canonical_relation):
                s.fact(decompose)
            else:
                induced_congruence(s, rel)
        except NotACongruence as exc:
            witnesses.append((name, exc.witness, exc.detail))
    return _report("t4", witnesses, relations_checked=len(candidates))


def _component_check(
    s: CayleyTable, check_id: str, keys: Sequence[str], semilattice: bool = False
) -> VerificationReport:
    """Every closed component must satisfy the classifiers `keys`; an
    unclosed class and, with `semilattice`, a quotient that is no
    semilattice are violations too.  The one component of a one-class
    decomposition is `s` itself (`_components`), whose verdicts equal
    those of the copy in `d.components`, rows for rows."""
    d = s.fact(decompose)
    witnesses = []
    if semilattice and not d.quotient_is_semilattice:
        witnesses.append(("quotient_not_semilattice",))
    for idx, comp in enumerate(_components(s, d)):
        if comp is None:
            witnesses.append(("class_not_closed", idx))
            continue
        for key in keys:
            ok, w = _holds(comp, key)
            if not ok:
                witnesses.append((f"component_not_{key}", idx, w))
    return _report(check_id, witnesses, components=len(d.components))


def _semilattice_of_weakly_cancellative(s: CayleyTable) -> bool:
    """The decomposition is a congruence with a semilattice quotient whose
    classes are all closed and weakly cancellative."""
    report = _component_check(
        s, "square-descent", ("weakly_cancellative",), semilattice=True
    )
    return not report.witnesses


def verify_semilattice_decomposition(s: CayleyTable) -> VerificationReport:
    """Quasi-separative tables must decompose into a semilattice of
    quasi-separative, quasi-cancellative components.

    Checks the canonical-relation construction of `decompose`, not the
    existence of such a decomposition.  The construction misses
    quasi-cancellativity on 48 labeled order-4 tables, where the classes
    of the least semilattice congruence, which are finer, conform (see
    tests/test_acceptance.py criterion 2); those 48 violations are
    pinned by tests/test_decomposition.py::test_known_gap_*."""
    if not _holds(s, "quasi_separative")[0]:
        return _skipped("t6")
    return _component_check(
        s, "t6", ("quasi_separative", "quasi_cancellative"), semilattice=True
    )


def verify_class_separation(s: CayleyTable) -> VerificationReport:
    """On quasi-separative tables, the canonical relation restricted to
    any congruence class meets each member's left equalizer only on the
    diagonal."""
    if not _holds(s, "quasi_separative")[0]:
        return _skipped("p7")
    d = s.fact(decompose)
    left, rel = s.fact(_kernels)[0], d.relation.rows
    witnesses = []
    for ci, cls in enumerate(d.congruence.classes):
        inside = sum(1 << x for x in cls)
        for a in cls:
            for x in cls:
                if m := rel[x] & left[a][x] & inside & ~(1 << x):
                    witnesses.append((ci, a, x, _low_bit(m)))
                    break
    return _report("p7", witnesses, classes=len(d.congruence.classes))


def verify_separative_cancellation(s: CayleyTable) -> VerificationReport:
    """Separative and quasi-cancellative together must give cancellative."""
    return _implication(
        "p11", s, ("separative", "quasi_cancellative"), "cancellative"
    )


def verify_balanced_cancellation(s: CayleyTable) -> VerificationReport:
    """Quasi-cancellative and weakly balanced together must give weak
    cancellativity."""
    return _implication(
        "p14", s, ("quasi_cancellative", "weakly_balanced"), "weakly_cancellative"
    )


def verify_cancellative_components(s: CayleyTable) -> VerificationReport:
    """Separative tables must decompose into cancellative components."""
    if not _holds(s, "separative")[0]:
        return _skipped("c12")
    return _component_check(s, "c12", ("cancellative",))


def verify_weakly_cancellative_components(s: CayleyTable) -> VerificationReport:
    """Quasi-separative weakly balanced tables must decompose into
    weakly cancellative components."""
    if not (_holds(s, "quasi_separative")[0] and _holds(s, "weakly_balanced")[0]):
        return _skipped("c15")
    return _component_check(s, "c15", ("weakly_cancellative",))


def verify_square_descent_claim(s: CayleyTable) -> VerificationReport:
    """Any table that decomposes into a semilattice of weakly
    cancellative components must satisfy square descent."""
    if not _semilattice_of_weakly_cancellative(s):
        return _skipped("square-descent")
    ok, w = _holds(s, "square_descent")
    return _report("square-descent", [] if ok else [("square_descent_fails", w)])


# (name, hypothesis, conclusion): each side holds when all its
# `PROFILE_KEYS` classes do.
DIAGRAM_IMPLICATIONS = (
    ("separative->qs+wb", ("separative",), ("quasi_separative", "weakly_balanced")),
    ("qs+wb->qs", ("quasi_separative", "weakly_balanced"), ("quasi_separative",)),
    ("cancellative->weakly_cancellative", ("cancellative",), ("weakly_cancellative",)),
    (
        "weakly_cancellative->qs+qc",
        ("weakly_cancellative",),
        ("quasi_separative", "quasi_cancellative"),
    ),
    ("cancellative->separative", ("cancellative",), ("separative",)),
    ("qs+qc->qs", ("quasi_separative", "quasi_cancellative"), ("quasi_separative",)),
)


def diagram_report(profile: PropertyProfile) -> VerificationReport:
    """Check all six diagram implications on one classification profile.
    Implications whose hypothesis fails are skipped, not counted as
    verified."""
    return _diagram(functools.partial(getattr, profile))


def verify_table_diagram(s: CayleyTable) -> VerificationReport:
    """`diagram_report(classify(s))`, reading only the verdicts that the
    implications ask for."""
    return _diagram(lambda key: _holds(s, key)[0])


def _diagram(holds) -> VerificationReport:
    """The diagram report, with `holds(key)` the verdict of the
    classifier `key`."""
    witnesses = []
    counts = {}
    for name, hyp, concl in DIAGRAM_IMPLICATIONS:
        if all(map(holds, hyp)):
            counts[name] = 1
            if not all(map(holds, concl)):
                witnesses.append((name,))
    if not counts:
        return _skipped("diagram", tables=1)
    return _report("diagram", witnesses, tables=1, **counts)


def strictness_witnesses() -> list[tuple[str, str, bool]]:
    """The named instances separating the diagram boxes, re-verified
    live.  Each entry is (instance, separation claim, claim holds)."""
    out = []
    for name, table, holds, fails, claim in (
        ("left_zero(2)", zoo.left_zero(2), "weakly_cancellative", "separative",
         "weakly cancellative but not separative"),
        ("chain_semilattice(2)", zoo.chain_semilattice(2), "separative",
         "quasi_cancellative", "separative but not quasi-cancellative"),
        ("null_semigroup(2)", zoo.null_semigroup(2), "weakly_balanced",
         "quasi_separative", "weakly balanced but not quasi-separative"),
    ):
        ok = _holds(table, holds)[0] and not _holds(table, fails)[0]
        out.append((name, claim, ok))
    w = zoo.bicyclic_weakly_balanced_witness()
    claim = "balance premise holds yet its conclusion fails"
    out.append(("bicyclic monoid", claim, w.premise_holds and not w.conclusion_holds))
    return out


# The corpus reports check one table per isomorphism-and-mirror class, so
# each check must report the same verdict and counts on a table and on
# its transpose; tests/test_decomposition.py checks that for every entry.
CHECKS = {
    "t4": verify_congruence_construction,
    "t6": verify_semilattice_decomposition,
    "p7": verify_class_separation,
    "p11": verify_separative_cancellation,
    "p14": verify_balanced_cancellation,
    "c12": verify_cancellative_components,
    "c15": verify_weakly_cancellative_components,
    "square-descent": verify_square_descent_claim,
    "diagram": verify_table_diagram,
}

CHECK_IDS = tuple(CHECKS)

_ALIASES = {"t10": "t6"}

# witnesses printed per report; the member merge of `_corpus` lists only
# these in a `summarize_corpus` report, which stores their total, and
# every witness in a `verify_corpus` report
_WITNESSES_SHOWN = 5


def normalize_check_id(name: str) -> str:
    name = _ALIASES.get(name, name)
    if name not in CHECKS and name != "all":
        raise ValueError(f"unknown check {name!r}; choose from {', '.join(CHECK_IDS)} or 'all'")
    return name


def merge_reports(reports: Sequence[VerificationReport]) -> VerificationReport:
    """Fold per-table reports for one check into an aggregate that keeps
    every witness.  Merging is associative, so any chunking of the corpus
    yields the same result."""
    check = reports[0].check
    witnesses: list = []
    counts: dict[str, int] = {}
    for r in reports:
        if r.check != check:
            raise ValueError("cannot merge reports for different checks")
        witnesses.extend(r.witnesses)
        for k, v in r.counts:
            counts[k] = counts.get(k, 0) + v
    return VerificationReport(check, tuple(witnesses), tuple(sorted(counts.items())))


def _check_table(ids, cells) -> tuple:
    """One report per check in `ids` on the table with the flat row-major
    `cells` (of a `CayleyTable`, or a class leader's key), each witness
    tagged with its rows, so aggregated reports stay re-checkable; a
    report without witnesses is returned as the check gave it."""
    # A fresh table, not the caller's: its own facts are dropped with it
    # after its checks, so a corpus run does not keep every table's facts
    # and a second run computes them again.  Its components and quotient
    # are shared with equal ones until the run ends (`_sharing`).
    s = _table(cells, math.isqrt(len(cells)))
    out = []
    for check_id in ids:
        r = CHECKS[check_id](s)
        if r.witnesses:
            witnesses = tuple((s.rows, w) for w in r.witnesses)
            r = VerificationReport(r.check, witnesses, r.counts)
        out.append(r)
    return tuple(out)


def _check_workers(workers: int):
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _map(fn, items: Sequence, workers: int) -> Iterator:
    """`map(fn, items)`, computed here, or by a pool of at most `workers`
    processes, no more than the CPUs this process may run on and one per
    item, each handed a quarter of its share at a time, at most 256."""
    cpus = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    processes = min(workers, cpus, len(items))
    if processes <= 1:
        yield from map(fn, items)
        return
    # at order 6 larger chunks were no faster and left more results waiting
    with multiprocessing.Pool(processes) as pool:
        yield from pool.imap(fn, items, min(256, -(-len(items) // (4 * processes))))


def run_checks(
    tables: Iterable[CayleyTable], ids: Sequence[str], workers: int = 1
) -> list[VerificationReport]:
    """Run the named checks over the tables and aggregate one report per
    check.  With workers > 1 a pool checks the tables (`_map`), and the
    reports are merged in table order, so the output is identical to a
    single-worker run; no tables give not-applicable reports.  The call
    is one run: equal components and quotients of the tables are one
    table until it returns."""
    _check_workers(workers)
    ids = list(ids)
    cells = [tuple(chain.from_iterable(t.rows)) for t in tables]
    with _sharing():
        per_table = list(_map(functools.partial(_check_table, ids), cells, workers))
    if not per_table:
        return [VerificationReport(check_id) for check_id in ids]
    return [merge_reports(reports) for reports in zip(*per_table)]


def verify_corpus(
    n: int, ids: Sequence[str], workers: int = 1
) -> list[VerificationReport]:
    """The reports of `run_checks` over every labeled table of order n,
    computed on one table per isomorphism-and-mirror class (`_corpus`).

    Every check is invariant under relabeling and transposing, so a
    class's members all report what its representative does: each
    report holds the representative's verdict and its counts times the
    class size, the members of both isomorphism orbits, which the fill
    counts along with the representative (`_leader_keys`), and only a
    class with a witness is kept and expanded into its members, for
    their own witnesses, merged in labeled order as the labeled stream
    lists them.  With workers > 1 a pool checks the representatives in
    chunks (`_map`), and the members are checked in this process.

    Why transposing is a symmetry.  Transposing a table T into T' swaps
    the left kernels L and the right kernels R, so the pairs B on which
    every L[c] and R[c] agree are the same on both, and makes the left
    translations of T' the right translations of T.  The canonical
    relation rel is B met with the pull-backs of B along all left, or
    equally all right, translations (`canonical_relation`), so T and T'
    have the same relation.  It lies in B, so it is balanced: rel & L[a]
    = rel & R[a] for every a.  Balance also makes `induced_congruence`,
    `is_quasi_cancellative` and the p7 scan read the same masks on T and
    on T'.  Compatibility is two-sided, so the quotient and the
    components of T' are the transposes of those of T.
    Every classifier the checks read is self-dual; left and right
    cancellativity swap, but no check reads either alone.  For t4,
    `all_satisfied` is symmetric, the diagonal always induces the
    universal congruence, one class, since every L[a][x] holds x, and
    the full relation is admissible only when L[a] = R[a] for every a.

    Why every member has as many witnesses as its representative.  A
    relabeling carries the relation, the classes, the quotient and the
    components of a table onto those of its image, and transposing gives
    their transposes, as above; the classifiers read are self-dual.  So
    each witness of a check has a counterpart on every member, though
    the elements it names differ.  t4 gives one per candidate relation
    that induces no congruence, and the candidates are the same on every
    member.  t6, c12 and c15 give one per unclosed class and one per
    failing (component, classifier) pair, and t6 one more for a quotient
    that is no semilattice.  p7 gives one per (class, a) for which some
    x of the class meets rel & L[a] off the diagonal, and rel & L[a] =
    rel & R[a].  p11, p14 and square-descent give at most one, for a
    failing conclusion, and diagram one per implication whose hypothesis
    holds and conclusion fails."""
    return _corpus(n, ids, workers, None)


def summarize_corpus(
    n: int, ids: Sequence[str], workers: int = 1
) -> list[VerificationReport]:
    """The reports of `verify_corpus(n, ids, workers)` as `format_report`
    prints them: the same counts, the first `_WITNESSES_SHOWN` witnesses,
    and the total where it is more.  Every member has as many witnesses
    as its representative (`verify_corpus` says why), so the totals come
    from the representatives, and the member merge of `_corpus` stops
    once each report lists what it shows."""
    return _corpus(n, ids, workers, _WITNESSES_SHOWN)


@_sharing()
def _corpus(
    n: int, ids: Sequence[str], workers: int, shown: Optional[int]
) -> list[VerificationReport]:
    """The reports over every labeled table of order n, each listing the
    witnesses of the least labeled tables, `shown` of them or, with
    None, all, and storing their total where it is more.

    Each class is checked on its representative only; its reports are
    folded as they arrive, weighted by the class size, and kept only if
    one has a witness.  The members of those classes are merged in
    labeled order, and each member after a representative is built once
    and checked for every check that has witnesses on its class and
    still lists fewer than it shows, until none does.  The checks on the
    representatives and on the members are one run: their equal
    components and quotients are one table until it ends, in each pool
    worker as in this process."""
    _check_workers(workers)
    ids = list(ids)
    keys, sizes = zip(*_leader_keys(n, "iso_anti"))
    counts: list[dict[str, int]] = [{} for _ in ids]
    totals = [0] * len(ids)
    witnessed = []  # (rows, reports) of each class with a witness
    per_class = _map(functools.partial(_check_table, ids), keys, workers)
    for key, size, reports in zip(keys, sizes, per_class):
        for j, r in enumerate(reports):
            totals[j] += len(r.witnesses) * size
            for k, v in r.counts:
                counts[j][k] = counts[j].get(k, 0) + v * size
        if any(r.witnesses for r in reports):
            witnessed.append((_table(key, n).rows, reports))
    reports = r = None  # the last class's, which the merge must not keep
    wanted = totals if shown is None else [min(t, shown) for t in totals]
    listed: list[list] = [[] for _ in ids]
    members = heapq.merge(*(_members(rows, j) for j, (rows, _) in enumerate(witnessed)))
    while any(len(out) < k for out, k in zip(listed, wanted)):
        grid, j = next(members)
        rows, reports = witnessed[j]
        # one table per member for all its checks, let go once they are
        # done; its components and quotient stay shared until the run ends
        member = None if grid == rows else CayleyTable._closed(grid)
        for r, out, k in zip(reports, listed, wanted):
            if r.witnesses and len(out) < k:
                if member is None:
                    out.extend(r.witnesses)
                else:
                    out.extend((grid, w) for w in CHECKS[r.check](member).witnesses)
    return [
        VerificationReport(
            check, tuple(out[:k]), tuple(sorted(c.items())), t if t > k else None
        )
        for check, out, c, t, k in zip(ids, listed, counts, totals, wanted)
    ]


def _members(grid: tuple, i: int):
    """(rows, i) for each member of the isomorphism-and-mirror class of
    the canonical table `grid`, in labeled order: first `grid` itself,
    the least member, then the others, listed only once the second is
    asked for.  Rows, not tables: the merge holds no table, so the
    caller's table of a member dies, with its facts, after its checks."""
    yield grid, i
    for rows in [m.rows for m in _orbit(CayleyTable(grid), "iso_anti")[1:]]:
        yield rows, i


def format_report(r: VerificationReport) -> str:
    head = f"{r.check}: {r.verdict}"
    if r.counts:
        head += " (" + ", ".join(f"{k}={v}" for k, v in r.counts) + ")"
    lines = [head]
    shown = r.witnesses[:_WITNESSES_SHOWN]
    lines.extend(f"  witness: {w}" for w in shown)
    hidden = (len(r.witnesses) if r.total is None else r.total) - len(shown)
    if hidden > 0:
        lines.append(f"  ({hidden} more witnesses not shown)")
    return "\n".join(lines)


def _cor15_converse_candidate(s: CayleyTable) -> bool:
    return (
        _holds(s, "quasi_separative")[0]
        and not _holds(s, "weakly_balanced")[0]
        and _semilattice_of_weakly_cancellative(s)
    )


def search_cor15_converse(max_order: int) -> Optional[CayleyTable]:
    """Scan canonical tables of order 1..max_order for a quasi-separative
    table that decomposes into weakly cancellative components yet is not
    weakly balanced.  Returns the first hit in scan order, or None when
    the range is exhausted.  The outcome is reported neutrally: finding
    a table and finding none are both valid results.  The scan runs in
    this process: within 16 classes it reaches the order-3 hit, or
    exhausts orders 1 and 2.
    """
    _check_order(max_order, MAX_CLASS_ORDER)
    tables = (
        s for n in range(1, max_order + 1) for s in enumerate_canonical(n, "iso_anti")
    )
    return next(filter(_cor15_converse_candidate, tables), None)
