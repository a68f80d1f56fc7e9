"""Semilattice decomposition and the verification suites built on it.

`decompose` drives the full pipeline: canonical relation, induced
congruence, quotient, and per-class component tables.  The verify_*
functions each check one structural claim on a single table and report
verified / violated / not-applicable with re-checkable witnesses.  They
read the decomposition and the classifier verdicts as facts of the table
(`CayleyTable.fact`), so each is computed once per table, a component's
once per component table.  Corpus aggregation and the open counterexample
search live here too: `verify_corpus` reports on every labeled table of
an order from one table per isomorphism class, each count weighted by
the class's orbit size, and checks the members of a class one by one
only where its representative yields a witness.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .congruence import (
    Congruence,
    NotACongruence,
    induced_congruence,
    is_semilattice,
    quotient,
)
from .core import CayleyTable, validate
from .enumeration import _check_order, _orbit, enumerate_canonical
from .properties import PropertyProfile, _holds, classify
from .relations import (
    BinaryRelation,
    _canonical,
    _kernels,
    _low_bit,
    canonical_relation,
    check_admissibility,
)
from . import zoo


@dataclass(frozen=True)
class Component:
    """A congruence class that is closed under the source product,
    re-indexed densely with its back-map into the source."""

    table: CayleyTable
    elements: tuple[int, ...]


@dataclass(frozen=True)
class SemilatticeDecomposition:
    """Holds no reference to the decomposed table, so that as a fact of
    that table it forms no reference cycle and is freed with it."""

    relation: BinaryRelation
    congruence: Congruence
    quotient: CayleyTable
    components: tuple[Optional[Component], ...]
    quotient_is_semilattice: bool


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
    quotient, which holds the class of every product of two members.
    NotACongruence propagates when the induced equivalence fails
    compatibility, which cannot happen for quasi-separative input.
    """
    rel = canonical_relation(s)
    cong = induced_congruence(s, rel)
    q = quotient(s, cong)
    rows, qrows = s.rows, q.rows
    components: list[Optional[Component]] = []
    for i, cls in enumerate(cong.classes):
        if qrows[i][i] == i:
            local = {g: j for j, g in enumerate(cls)}
            sub = [[local[rows[x][y]] for y in cls] for x in cls]
            components.append(Component(validate(sub), cls))
        else:
            components.append(None)
    return SemilatticeDecomposition(
        rel, cong, q, tuple(components), is_semilattice(q)
    )


def _decomposed(s: CayleyTable):
    """`decompose(s)`, or the NotACongruence it raised."""
    try:
        return decompose(s)
    except NotACongruence as exc:
        return exc


def _decomposition(s: CayleyTable) -> SemilatticeDecomposition:
    """The table's decomposition fact; raises the NotACongruence that
    `decompose` raised."""
    d = s.fact(_decomposed)
    if isinstance(d, NotACongruence):
        raise d
    return d


@dataclass(frozen=True)
class VerificationReport:
    check: str
    verdict: str  # "verified" | "violated" | "not-applicable"
    witnesses: tuple = ()
    counts: tuple = ()  # sorted ((name, value), ...)


def _report(check: str, verdict: str, witnesses=(), **counts) -> VerificationReport:
    return VerificationReport(
        check, verdict, tuple(witnesses), tuple(sorted(counts.items()))
    )


def _implication(check: str, s: CayleyTable, premises, key: str) -> VerificationReport:
    """Premise classifiers all holding must give classifier `key`."""
    if not all(_holds(s, p)[0] for p in premises):
        return _report(check, "not-applicable", skipped=1)
    ok, w = _holds(s, key)
    witnesses = [] if ok else [(f"not_{key}", w)]
    return _report(check, "verified" if ok else "violated", witnesses, applicable=1)


def admissible_candidates(s: CayleyTable) -> list[tuple[str, BinaryRelation]]:
    """Relations to feed the congruence construction: the diagonal
    unconditionally, the canonical and full relations when they pass the
    admissibility conditions; the canonical one is the table's shared one."""
    out = [("diagonal", BinaryRelation.diagonal(s.n))]
    rel = s.fact(_canonical)
    if check_admissibility(s, rel).all_satisfied:
        out.append(("canonical", rel))
    full = BinaryRelation.full(s.n)
    if check_admissibility(s, full).all_satisfied:
        out.append(("full", full))
    return out


def verify_congruence_construction(s: CayleyTable) -> VerificationReport:
    """Every admissible candidate relation must induce a congruence.

    A candidate equal to the canonical relation reads the decomposition
    fact instead of inducing its congruence again: `decompose` raises iff
    `induced_congruence` does on that relation, with the same witness,
    since `quotient` cannot fail after the compatibility scan."""
    candidates = admissible_candidates(s)
    witnesses = []
    for name, rel in candidates:
        try:
            if rel == s.fact(_canonical):
                _decomposition(s)
            else:
                induced_congruence(s, rel)
        except NotACongruence as exc:
            witnesses.append((name, exc.witness, exc.detail))
    verdict = "violated" if witnesses else "verified"
    return _report(
        "t4", verdict, witnesses, applicable=1, relations_checked=len(candidates)
    )


def _component_check(
    s: CayleyTable, check_id: str, keys: Sequence[str], semilattice: bool = False
) -> VerificationReport:
    """Every closed component must satisfy the classifiers `keys`; an
    unclosed class, a non-congruence and, with `semilattice`, a quotient
    that is no semilattice are violations too."""
    try:
        d = _decomposition(s)
    except NotACongruence as exc:
        return _report(
            check_id, "violated", [("not_a_congruence", exc.witness)], applicable=1
        )
    witnesses = []
    if semilattice and not d.quotient_is_semilattice:
        witnesses.append(("quotient_not_semilattice",))
    for idx, comp in enumerate(d.components):
        if comp is None:
            witnesses.append(("class_not_closed", idx))
            continue
        for key in keys:
            ok, w = _holds(comp.table, key)
            if not ok:
                witnesses.append((f"component_not_{key}", idx, w))
    return _report(
        check_id,
        "violated" if witnesses else "verified",
        witnesses,
        applicable=1,
        components=len(d.components),
    )


def _semilattice_of_weakly_cancellative(s: CayleyTable) -> bool:
    """The decomposition is a congruence with a semilattice quotient whose
    classes are all closed and weakly cancellative."""
    report = _component_check(
        s, "square-descent", ("weakly_cancellative",), semilattice=True
    )
    return report.verdict == "verified"


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
        return _report("t6", "not-applicable", skipped=1)
    return _component_check(
        s, "t6", ("quasi_separative", "quasi_cancellative"), semilattice=True
    )


def verify_class_separation(s: CayleyTable) -> VerificationReport:
    """On quasi-separative tables, the canonical relation restricted to
    any congruence class meets each member's left equalizer only on the
    diagonal."""
    if not _holds(s, "quasi_separative")[0]:
        return _report("p7", "not-applicable", skipped=1)
    d = _decomposition(s)
    left, rel = s.fact(_kernels)[0], d.relation.rows
    witnesses = []
    for ci, cls in enumerate(d.congruence.classes):
        inside = sum(1 << x for x in cls)
        for a in cls:
            for x in cls:
                if m := rel[x] & left[a][x] & inside & ~(1 << x):
                    witnesses.append((ci, a, x, _low_bit(m)))
                    break
    return _report(
        "p7",
        "violated" if witnesses else "verified",
        witnesses,
        applicable=1,
        classes=len(d.congruence.classes),
    )


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
        return _report("c12", "not-applicable", skipped=1)
    return _component_check(s, "c12", ("cancellative",))


def verify_weakly_cancellative_components(s: CayleyTable) -> VerificationReport:
    """Quasi-separative weakly balanced tables must decompose into
    weakly cancellative components."""
    if not (_holds(s, "quasi_separative")[0] and _holds(s, "weakly_balanced")[0]):
        return _report("c15", "not-applicable", skipped=1)
    return _component_check(s, "c15", ("weakly_cancellative",))


def verify_square_descent_claim(s: CayleyTable) -> VerificationReport:
    """Any table that decomposes into a semilattice of weakly
    cancellative components must satisfy square descent."""
    if not _semilattice_of_weakly_cancellative(s):
        return _report("square-descent", "not-applicable", skipped=1)
    ok, w = _holds(s, "square_descent")
    witnesses = [] if ok else [("square_descent_fails", w)]
    return _report(
        "square-descent", "verified" if ok else "violated", witnesses, applicable=1
    )


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
    witnesses = []
    counts = {"tables": 1}
    applicable = 0
    for name, hyp, concl in DIAGRAM_IMPLICATIONS:
        if all(getattr(profile, k) for k in hyp):
            applicable += 1
            counts[name] = 1
            if not all(getattr(profile, k) for k in concl):
                witnesses.append((name,))
    if applicable == 0:
        return _report("diagram", "not-applicable", skipped=1, tables=1)
    verdict = "violated" if witnesses else "verified"
    return _report("diagram", verdict, witnesses, applicable=1, **counts)


def verify_table_diagram(s: CayleyTable) -> VerificationReport:
    return diagram_report(classify(s))


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
        p = classify(table)
        out.append((name, claim, getattr(p, holds) and not getattr(p, fails)))
    w = zoo.bicyclic_weakly_balanced_witness()
    claim = "balance premise holds yet its conclusion fails"
    out.append(("bicyclic monoid", claim, w.premise_holds and not w.conclusion_holds))
    return out


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

# witnesses printed per report; the report itself keeps them all
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
    verdict = "not-applicable"
    witnesses: list = []
    counts: dict[str, int] = {}
    for r in reports:
        if r.check != check:
            raise ValueError("cannot merge reports for different checks")
        if r.verdict == "violated":
            verdict = "violated"
        elif r.verdict == "verified" and verdict != "violated":
            verdict = "verified"
        witnesses.extend(r.witnesses)
        for k, v in r.counts:
            counts[k] = counts.get(k, 0) + v
    return VerificationReport(
        check, verdict, tuple(witnesses), tuple(sorted(counts.items()))
    )


def _run_chunk(ids, grids):
    collected = {check_id: [] for check_id in ids}
    for grid in grids:
        # A fresh table per grid, not the caller's: its facts are dropped
        # with it after its checks, so a corpus run does not keep every
        # table's facts and a second run computes them again.
        s = CayleyTable(grid)
        for check_id in ids:
            r = CHECKS[check_id](s)
            if r.witnesses:
                # tag witnesses with their table so aggregated reports
                # stay re-checkable
                r = VerificationReport(
                    r.check,
                    r.verdict,
                    tuple((grid, w) for w in r.witnesses),
                    r.counts,
                )
            collected[check_id].append(r)
    return {
        check_id: merge_reports(reports) if reports else None
        for check_id, reports in collected.items()
    }


def _map_chunks(fn, items: list, workers: int) -> list:
    """`fn` over consecutive chunks of `items`, results in chunk order.
    The pool has at most `workers` processes, no more than the CPUs this
    process may run on and one per chunk; with one process the whole
    list is a single chunk, mapped here."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cpus = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    processes = min(workers, cpus, len(items))
    if processes <= 1:
        return [fn(items)]
    size = -(-len(items) // processes)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    with multiprocessing.Pool(len(chunks)) as pool:
        return pool.map(fn, chunks)


def run_checks(
    tables: Iterable[CayleyTable], ids: Sequence[str], workers: int = 1
) -> list[VerificationReport]:
    """Run the named checks over the tables and aggregate one report per
    check.  With workers > 1 the tables are processed in order-preserving
    chunks, so the output is identical to a single-worker run."""
    grids = [t.rows for t in tables]
    ids = list(ids)
    partials = _map_chunks(functools.partial(_run_chunk, ids), grids, workers)
    out = []
    for check_id in ids:
        parts = [p[check_id] for p in partials if p[check_id] is not None]
        out.append(
            merge_reports(parts) if parts else _report(check_id, "not-applicable")
        )
    return out


def _run_classes(ids, grids):
    """Every check once on each class representative in `grids`, its
    counts multiplied by the class's orbit size.  A class whose
    representative yields a witness for a check is expanded: that check
    runs on each labeled member, whose report replaces the weighted one
    and tags its witnesses with the member's grid."""
    collected = {check_id: [] for check_id in ids}
    for grid in grids:
        s = CayleyTable(grid)
        reports = {check_id: CHECKS[check_id](s) for check_id in ids}
        members = _orbit(s)
        witnessed = [check_id for check_id in ids if reports[check_id].witnesses]
        expanded = _run_chunk(witnessed, members) if witnessed else {}
        weight = len(members)
        for check_id, r in reports.items():
            if check_id in expanded:
                r = expanded[check_id]
            else:
                r = replace(r, counts=tuple((k, v * weight) for k, v in r.counts))
            collected[check_id].append(r)
    return {check_id: merge_reports(rs) for check_id, rs in collected.items()}


def verify_corpus(
    n: int, ids: Sequence[str], workers: int = 1
) -> list[VerificationReport]:
    """The reports of `run_checks` over every labeled table of order n,
    computed on one table per isomorphism class.

    Every check is invariant under relabeling, so a class's members all
    report what its representative does: counts are the representative's
    times the orbit size, and only a class with a witness is expanded
    into its members, for their own witnesses.  Sorting the tagged
    witnesses by grid restores the labeled stream's order.  Transposing
    is no symmetry here: p7 reads left equalizers only."""
    ids = list(ids)
    grids = [s.rows for s in enumerate_canonical(n, "iso")]
    partials = _map_chunks(functools.partial(_run_classes, ids), grids, workers)
    out = []
    for check_id in ids:
        r = merge_reports([p[check_id] for p in partials])
        out.append(replace(r, witnesses=tuple(sorted(r.witnesses, key=itemgetter(0)))))
    return out


def format_report(r: VerificationReport) -> str:
    head = f"{r.check}: {r.verdict}"
    if r.counts:
        head += " (" + ", ".join(f"{k}={v}" for k, v in r.counts) + ")"
    lines = [head]
    lines.extend(f"  witness: {w}" for w in r.witnesses[:_WITNESSES_SHOWN])
    hidden = len(r.witnesses) - _WITNESSES_SHOWN
    if hidden > 0:
        lines.append(f"  ({hidden} more witnesses not shown)")
    return "\n".join(lines)


def _cor15_converse_candidate(s: CayleyTable) -> bool:
    return (
        _holds(s, "quasi_separative")[0]
        and not _holds(s, "weakly_balanced")[0]
        and _semilattice_of_weakly_cancellative(s)
    )


def _first_candidate(tables: list[CayleyTable]) -> Optional[CayleyTable]:
    return next(filter(_cor15_converse_candidate, tables), None)


def search_cor15_converse(
    max_order: int, workers: int = 1
) -> Optional[CayleyTable]:
    """Scan canonical tables of order 1..max_order for a quasi-separative
    table that decomposes into weakly cancellative components yet is not
    weakly balanced.  Returns the first hit in scan order, or None when
    the range is exhausted.  The outcome is reported neutrally: finding
    a table and finding none are both valid results.
    """
    _check_order(max_order)
    for n in range(1, max_order + 1):
        tables = list(enumerate_canonical(n, "iso_anti"))
        hits = _map_chunks(_first_candidate, tables, workers)
        hit = next((h for h in hits if h is not None), None)
        if hit is not None:
            return hit
    return None
