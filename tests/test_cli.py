import functools
import hashlib
import io
import os
import subprocess
import sys
from dataclasses import replace
from itertools import permutations

import pytest

import finsemi
from finsemi import (
    PROFILE_KEYS,
    CayleyTable,
    classify,
    enumerate_canonical,
    enumerate_labeled,
    format_table,
    parse_table,
    run_checks,
)
from finsemi import cli
from finsemi.cli import load_table, main
from finsemi.decomposition import CHECK_IDS, summarize_corpus, verify_corpus

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zoo_emits_text_format(capsys):
    code, out, _ = run_cli(capsys, "zoo", "left_zero", "2")
    assert code == 0
    assert out == "2\n0 0\n1 1\n"


def test_zoo_rejects_unknown_family(capsys):
    code, _, err = run_cli(capsys, "zoo", "mystery", "2")
    assert code == 2
    assert "unknown family" in err


def test_zoo_rejects_wrong_arity(capsys):
    code, _, err = run_cli(capsys, "zoo", "monogenic", "3")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "zoo:cyclic:100000"),
        ("verify", "zoo:rectangular_band:100000,100000"),
        ("decompose", "zoo:monogenic:200,58"),
        ("zoo", "null", "257"),
    ],
)
def test_oversized_zoo_table_exits_2_before_it_is_built(capsys, monkeypatch, argv):
    def refuse(*params):
        raise AssertionError(f"constructor called with {params}")

    for name, (_, arity, size) in list(cli._ZOO_FAMILIES.items()):
        monkeypatch.setitem(cli._ZOO_FAMILIES, name, (refuse, arity, size))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"zoo tables have at most {cli._ZOO_MAX_ELEMENTS}" in err


def test_zoo_tables_up_to_the_bound_are_built(monkeypatch):
    assert cli._ZOO_MAX_ELEMENTS >= 128
    built = []
    for name, (_, arity, size) in list(cli._ZOO_FAMILIES.items()):
        monkeypatch.setitem(
            cli._ZOO_FAMILIES, name, (lambda *p: built.append(p), arity, size)
        )
    bound = cli._ZOO_MAX_ELEMENTS
    load_table(f"zoo:cyclic:{bound}")
    load_table(f"zoo:monogenic:200,{bound - 199}")
    load_table("zoo:rectangular_band:16,16")
    assert built == [(bound,), (200, bound - 199), (16, 16)]


def test_zoo_shorthand_parsing():
    assert load_table("zoo:null2").rows == ((0, 0), (0, 0))
    assert load_table("zoo:chain:3").n == 3
    assert load_table("zoo:left_zero2").rows == ((0, 0), (1, 1))
    assert load_table("zoo:rectangular_band:2,2").n == 4
    assert load_table("zoo:monogenic:3,1").rows == ((1, 2, 2), (2, 2, 2), (2, 2, 2))
    with pytest.raises(ValueError):
        load_table("zoo:unknown:2")


def test_malformed_shorthand_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "zoo:cyclic:x")
    assert code == 2
    assert out == ""
    assert "bad shorthand 'zoo:cyclic:x'" in err


def test_shorthand_with_a_trailing_newline_exits_2(capsys):
    # a regex `$` also matches before a final newline; the spec must match
    # in full
    code, out, err = run_cli(capsys, "analyze", "zoo:null:3\n")
    assert (code, out) == (2, "")
    assert "bad shorthand 'zoo:null:3\\n'" in err


def test_closed_stdout_at_start_exits_2(capsys, monkeypatch):
    # sys.stdout is None when descriptor 1 is closed at start
    monkeypatch.setattr("sys.stdout", None)
    code = main(["analyze", "zoo:null:2"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "error: <stdout>: standard output is closed\n")


def test_analyze_zoo_shorthand(capsys):
    code, out, _ = run_cli(capsys, "analyze", "zoo:left_zero2")
    assert code == 0
    assert "quasi_separative: true" in out
    assert "separative: false" in out
    assert "separative_witness: 0 1" in out


def test_analyze_null_witness(capsys):
    code, out, _ = run_cli(capsys, "analyze", "zoo:null2")
    assert code == 0
    assert "quasi_separative: false" in out
    assert "quasi_separative_witness: 0 1" in out


def test_analyze_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2\n0 0\n1 1\n"))
    code, out, _ = run_cli(capsys, "analyze", "-")
    assert code == 0
    assert out.startswith("n: 2\n")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"1\n\xd9\xa0\n", "<stdin>: byte 0xd9 at offset 2 is not ASCII"),
        (b"2\n0 0\n1 \xff\n", "<stdin>: byte 0xff at offset 8 is not ASCII"),
        (None, "<stdin>: standard input is closed"),
    ],
)
def test_bad_stdin_exits_2_as_a_bad_file_does(capsys, monkeypatch, data, message):
    # Python's stdin decodes as UTF-8 with surrogateescape in the C locale,
    # and is None when descriptor 0 is closed
    stdin = None
    if data is not None:
        stdin = io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape"
        )
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, "analyze", "-")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_analyze_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tbl"
    bad.write_text("3\n0 0 0 0 0 0 0 0\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "expected 9 entries" in err


def test_analyze_non_associative_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tbl"
    bad.write_text("2\n1 1\n0 0\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "(x, y, z)" in err


@pytest.mark.parametrize(
    "argv",
    [["analyze", "{path}"], ["omega", "zoo:null:2", "--relation", "file:{path}"]],
)
def test_non_ascii_file_exits_2_naming_path_and_offset(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2\n0 0\n1 \xff\n")
    code, out, err = run_cli(capsys, *(a.format(path=bad) for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: byte 0xff at offset 8 is not ASCII\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file")
    assert code == 2


def test_decompose_text_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "zoo:chain2")
    assert code == 0
    assert "classes: 2" in out
    assert "class 0: 0" in out
    assert "quotient_is_semilattice: true" in out


def test_decompose_dot_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "zoo:chain2", "--dot")
    assert code == 0
    assert out.startswith("digraph quotient {")
    assert "c0 -> c1;" in out


def test_decompose_dot_covering_only(capsys):
    # a 3-chain has cover edges 0->1 and 1->2 but not the composite 0->2
    code, out, _ = run_cli(capsys, "decompose", "zoo:chain3", "--dot")
    assert code == 0
    assert "c0 -> c1;" in out and "c1 -> c2;" in out
    assert "c0 -> c2;" not in out


def test_decompose_dot_requires_semilattice_quotient(capsys):
    # monogenic(3,1) collapses to a constant quotient that is not a band
    code, out, err = run_cli(capsys, "decompose", "zoo:monogenic:3,1", "--dot")
    assert code == 1
    assert out == ""
    assert "not a semilattice" in err


def test_decompose_reports_non_closed_classes(capsys):
    code, out, _ = run_cli(capsys, "decompose", "zoo:monogenic:3,1")
    assert code == 0
    assert "quotient_is_semilattice: false" in out
    assert "component 0: not closed under the product" in out


def test_verify_single_table_not_applicable(capsys):
    code, out, _ = run_cli(capsys, "verify", "zoo:null2", "--theorem", "t6")
    assert code == 0
    assert out.startswith("t6: not-applicable")


def test_verify_t10_alias(capsys):
    code, out, _ = run_cli(capsys, "verify", "zoo:left_zero2", "--theorem", "t10")
    assert code == 0
    assert out.startswith("t6: verified")


def test_verify_corpus_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--corpus", "2", "--theorem", "all")
    assert code == 0
    for check in ("t4", "t6", "p7", "p11", "p14", "c12", "c15", "square-descent"):
        assert f"{check}: verified" in out
    assert "strictness:" in out
    assert "confirmed" in out and "FAILED" not in out


def test_verify_corpus_3_all_exits_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--corpus", "3", "--theorem", "all")
    assert code == 0
    assert "violated" not in out


def test_verify_corpus_4_diagram_exits_0_with_counts(capsys):
    code, out, _ = run_cli(capsys, "verify", "--corpus", "4", "--theorem", "diagram")
    assert code == 0
    head = out.splitlines()[0]
    assert head.startswith("diagram: verified")
    assert "separative->qs+wb=272" in head
    assert "weakly_cancellative->qs+qc=48" in head


def test_verify_corpus_4_all_output_is_pinned(capsys):
    # the digest of this report recorded in CHANGES.md; every
    # speed-up of the table scans has to keep it
    code, out, _ = run_cli(capsys, "verify", "--corpus", "4", "--theorem", "all")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "59f091ad79271df9ace9ec36002ec35d63d8062854cd7f0883f470f779f23a45"
    )


def test_verify_corpus_4_t6_reports_violations(capsys):
    # the decomposition gap at order 4 surfaces as an honest exit 1,
    # with witnesses that name the offending tables
    code, out, _ = run_cli(capsys, "verify", "--corpus", "4", "--theorem", "t6")
    assert code == 1
    assert out.startswith("t6: violated")
    assert (
        "witness: (((0, 0, 0, 0), (0, 1, 0, 1), (2, 2, 2, 2), (0, 1, 2, 3)), "
        "('component_not_quasi_cancellative', 1, (0, 1)))" in out
    )
    # the 48 misses pinned by test_known_gap_order4_violation_count: five
    # are printed, and the rest are counted, not dropped silently
    lines = out.splitlines()
    assert sum(line.startswith("  witness: ") for line in lines) == 5
    assert lines[6] == "  (43 more witnesses not shown)"


def test_verify_workers_do_not_change_output(capsys):
    # order 3 takes the labeled route; order 4 the class route, whose
    # representatives the workers share out; its t6 witnesses come from
    # 1 iso_anti class of 48 members, the first 5 checked in this process
    for n, theorem in (("3", "diagram"), ("4", "all")):
        argv = ["verify", "--corpus", n, "--theorem", theorem]
        one = run_cli(capsys, *argv, "--workers", "1")
        assert run_cli(capsys, *argv, "--workers", "2") == one
    assert one[0] == 1 and "(43 more witnesses not shown)" in one[1]


@functools.lru_cache(maxsize=None)
def labeled_reports(n: int) -> dict:
    """Every check run on every labeled table of order n, the route that
    `verify --corpus` takes up to order 3 and the oracle of its class
    route; a check's report does not depend on the other checks run with
    it."""
    return {r.check: r for r in run_checks(oracles.labeled_corpus(n), CHECK_IDS)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("theorem", ("all",) + CHECK_IDS)
def test_verify_corpus_matches_the_labeled_route(capsys, monkeypatch, n, theorem):
    argv = ["verify", "--corpus", str(n), "--theorem", theorem]
    # the class route at every order, compared with the labeled reports
    monkeypatch.setattr("finsemi.cli._LABELED_CORPUS_MAX", 0)
    classes = run_cli(capsys, *argv)

    # the route `cmd_verify` calls, replaced by the labeled reports
    calls = []

    def labeled(order, ids, workers=1):
        calls.append(order)
        return [labeled_reports(order)[check_id] for check_id in ids]

    monkeypatch.setattr("finsemi.cli.summarize_corpus", labeled)
    assert classes == run_cli(capsys, *argv)
    assert calls == [n]


def test_class_route_prints_the_full_route_report(capsys, monkeypatch):
    # the class route lists the first witnesses of the full route's
    # complete, sorted lists and stores the total of a longer list
    full = {n: verify_corpus(n, CHECK_IDS) for n in range(1, 6)}
    stored = 0
    for n, reports in full.items():
        for short, whole in zip(summarize_corpus(n, CHECK_IDS), reports):
            assert short.witnesses == whole.witnesses[: len(short.witnesses)]
            assert replace(short, total=None, witnesses=()) == replace(
                whole, witnesses=()
            )
            if short.total is None:
                assert short == whole, (n, short.check)
            else:
                assert len(short.witnesses) == 5 < short.total == len(whole.witnesses)
                stored += 1
    assert stored == 2  # t6 at orders 4 and 5
    argv = ["verify", "--corpus", "5", "--theorem", "all"]
    printed = run_cli(capsys, *argv)
    monkeypatch.setattr(
        "finsemi.cli.summarize_corpus", lambda n, ids, workers=1: full[n]
    )
    assert run_cli(capsys, *argv) == printed
    assert printed[1].count("  witness: ") == 5


def _order_error(n, bound):
    return (2, "", f"error: order {n} outside the supported range 1..{bound}\n")


def test_verify_rejects_bad_inputs(capsys):
    # --corpus reaches the class bound, 6, at every order
    assert run_cli(capsys, "verify", "--corpus", "7") == _order_error(7, 6)
    assert run_cli(capsys, "verify", "--corpus", "0") == _order_error(0, 6)
    assert run_cli(capsys, "verify", "--theorem", "t4")[0] == 2  # no table given
    assert run_cli(capsys, "verify", "zoo:null2", "--theorem", "nope")[0] == 2


def test_verify_rejects_table_with_corpus(capsys):
    code, out, err = run_cli(capsys, "verify", "zoo:chain:3", "--corpus", "2")
    assert code == 2
    assert out == ""
    assert "not both" in err


def test_enumerate_count_only(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "3", "--count-only")
    assert code == 0
    assert out.strip() == "113"


def test_enumerate_canonical_count(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--order", "3", "--canonical", "--count-only"
    )
    assert out.strip() == "18"
    code, out, _ = run_cli(
        capsys,
        "enumerate",
        "--order",
        "3",
        "--canonical",
        "--mode",
        "iso",
        "--count-only",
    )
    assert out.strip() == "24"


def test_enumerate_stream_round_trips(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "2")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    tables = [parse_table(b) for b in blocks]
    assert tuple(t.rows for t in tables) == tuple(
        s.rows for s in oracles.labeled_corpus(2)
    )


def _oracle_stream(tables) -> str:
    return "".join(oracles.format_table(rows) + "\n" for rows in tables)


def _oracle_leaders(n, mode):
    # the brute-force tables that are <= every relabeling of themselves
    # (and of their transposes in iso_anti mode), in lexicographic order
    perms = list(permutations(range(n)))
    leaders = []
    for rows in sorted(oracles.brute_force_semigroups(n)):
        bases = [rows] + ([tuple(zip(*rows))] if mode == "iso_anti" else [])
        if all(rows <= oracles.relabel(b, p) for b in bases for p in perms):
            leaders.append(rows)
    return leaders


def test_enumerate_prints_the_oracle_format(capsys):
    # the streams printed from byte keys, against the oracle's format of
    # the tables: brute force through order 3, the table streams at 4
    def quasi_separative(rows):
        return oracles.literal_quasi_separative(CayleyTable(rows))[0]

    for n in (1, 2, 3, 4):
        if n <= 3:
            streams = {(): sorted(oracles.brute_force_semigroups(n))}
            for mode in ("iso", "iso_anti"):
                streams["--canonical", "--mode", mode] = _oracle_leaders(n, mode)
        else:
            streams = {(): [s.rows for s in enumerate_labeled(n)]}
            for mode in ("iso", "iso_anti"):
                tables = [s.rows for s in enumerate_canonical(n, mode)]
                streams["--canonical", "--mode", mode] = tables
        for options, tables in streams.items():
            argv = ("enumerate", "--order", str(n), *options)
            out = _oracle_stream(tables)
            assert run_cli(capsys, *argv) == (0, out, ""), argv
            argv += ("--filter", "quasi_separative")
            out = _oracle_stream(filter(quasi_separative, tables))
            assert run_cli(capsys, *argv) == (0, out, ""), argv
        # OEIS A023814
        count = f"{(1, 8, 113, 3492)[n - 1]}\n"
        argv = ("enumerate", "--order", str(n), "--count-only")
        assert run_cli(capsys, *argv) == (0, count, ""), argv


def test_enumerate_filter(capsys):
    for key in PROFILE_KEYS:
        code, out, _ = run_cli(
            capsys, "enumerate", "--order", "3", "--filter", key, "--count-only"
        )
        assert code == 0
        corpus = oracles.labeled_corpus(3)
        expected = sum(1 for s in corpus if getattr(classify(s), key))
        assert (key, int(out.strip())) == (key, expected)


def test_enumerate_filter_runs_only_its_predicate(capsys, monkeypatch):
    import finsemi.properties as properties

    called = []
    for key, predicate in list(properties._PREDICATES.items()):
        def counting(s, key=key, predicate=predicate):
            called.append(key)
            return predicate(s)

        monkeypatch.setitem(properties._PREDICATES, key, counting)
    code, out, _ = run_cli(
        capsys, "enumerate", "--order", "2", "--filter", "band", "--count-only"
    )
    assert code == 0 and int(out.strip()) == 4
    assert called == ["band"] * 8


def test_enumerate_rejects_bad_filter_and_order(capsys):
    assert run_cli(capsys, "enumerate", "--order", "2", "--filter", "magic")[0] == 2
    # the labeled stream stops at order 5, the class stream at order 6
    assert run_cli(capsys, "enumerate", "--order", "6") == _order_error(6, 5)
    assert run_cli(capsys, "enumerate", "--order", "7", "--canonical") == (
        _order_error(7, 6)
    )


def test_enumerate_mode_requires_canonical(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--order", "2", "--mode", "iso")
    assert code == 2
    assert out == ""
    assert "--mode applies only with --canonical" in err


def test_zoo_round_trips_through_parser(capsys):
    for args in (
        ("left_zero", "3"),
        ("right_zero", "2"),
        ("null", "4"),
        ("chain", "5"),
        ("cyclic", "4"),
        ("monogenic", "2", "2"),
        ("rectangular_band", "2", "3"),
    ):
        code, out, _ = run_cli(capsys, "zoo", *args)
        assert code == 0
        reparsed = parse_table(out)
        assert format_table(reparsed) == out


def test_omega_default_canonical(capsys):
    code, out, _ = run_cli(capsys, "omega", "zoo:left_zero2")
    assert code == 0
    assert "# relation: canonical (2 pairs over carrier 2)" in out
    assert "balanced: true" in out
    assert "classes: 1" in out


def test_omega_full_on_left_zero(capsys):
    code, out, _ = run_cli(capsys, "omega", "zoo:left_zero2", "--relation", "full")
    assert code == 0
    assert "balanced: false" in out
    assert "balanced_witness: 0 0 1" in out
    assert "classes:" not in out


@pytest.mark.parametrize("name", ["diagonal", "delta"])
def test_omega_diagonal(capsys, name):
    code, out, _ = run_cli(capsys, "omega", "zoo:left_zero2", "--relation", name)
    assert code == 0
    assert out.startswith("# relation: diagonal (2 pairs over carrier 2)\n0 0\n1 1\n")
    assert "balanced: true" in out
    assert "class 0: 0 1" in out


def test_omega_relation_file(tmp_path, capsys):
    rel = tmp_path / "rel.txt"
    rel.write_text("# diagonal\n0 0\n1 1\n")
    code, out, _ = run_cli(
        capsys, "omega", "zoo:left_zero2", "--relation", f"file:{rel}"
    )
    assert code == 0
    assert "balanced: true" in out
    assert "classes: 1" in out


def test_omega_prints_stability_witnesses(tmp_path, capsys):
    rel = tmp_path / "rel.txt"
    rel.write_text("0 0\n0 2\n1 1\n2 2\n")
    code, out, _ = run_cli(capsys, "omega", "zoo:chain:3", "--relation", f"file:{rel}")
    assert code == 0
    assert out.endswith(
        "balanced: true\n"
        "left_stable: false\n"
        "left_stable_witness: 0 1 0 2\n"
        "right_stable: false\n"
        "right_stable_witness: 1 0 0 2\n"
    )


def test_omega_rejects_bad_relation_spec(capsys):
    assert run_cli(capsys, "omega", "zoo:null2", "--relation", "nonsense")[0] == 2


def test_search_converse_cli(capsys):
    code, out, _ = run_cli(capsys, "search-converse-c15", "--max-order", "2")
    assert code == 0
    assert out == "exhausted canonical tables through order 2: no counterexample found\n"
    code, out, _ = run_cli(capsys, "search-converse-c15", "--max-order", "3")
    assert code == 0
    assert "counterexample found (order 3)" in out
    assert "3\n0 0 0\n0 1 1\n0 2 2\n" in out


def test_search_converse_cli_reproducible(capsys):
    runs = [
        run_cli(capsys, "search-converse-c15", "--max-order", "4")[1],
        run_cli(capsys, "search-converse-c15", "--max-order", "4")[1],
    ]
    assert runs[0] == runs[1]


def test_search_converse_bad_args(capsys):
    assert run_cli(capsys, "search-converse-c15", "--max-order", "0") == (
        _order_error(0, 6)
    )
    assert run_cli(capsys, "search-converse-c15", "--max-order", "7") == (
        _order_error(7, 6)
    )


def test_search_converse_takes_no_workers_option(capsys):
    # the scan runs in one process, so it has no pool to size
    code, out, _ = run_cli(
        capsys, "search-converse-c15", "--max-order", "2", "--workers", "2"
    )
    assert (code, out) == (2, "")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(capsys, workers):
    code, out, err = run_cli(capsys, "verify", "zoo:null2", "--workers", workers)
    assert (code, out) == (2, "")
    assert f"got {workers}" in err


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_parser_is_built_once_and_dispatches_by_name(capsys, monkeypatch):
    # the parser names each handler and `main` looks it up at call time,
    # so a handler replaced after the parser was built is the one run:
    # the span tracing of the benchmark patches the module's globals
    cli._build_parser.cache_clear()
    assert run_cli(capsys, "analyze", "zoo:null:2")[0] == 0
    calls = []

    def stub(args):
        calls.append(args.table)
        return 7

    monkeypatch.setattr(cli, "cmd_analyze", stub)
    assert run_cli(capsys, "analyze", "zoo:null:2") == (7, "", "")
    assert calls == ["zoo:null:2"]
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv, token",
    [
        (("analyze", "zoo:null:\u0663"), "\u0663"),
        (("zoo", "null", "1_0"), "1_0"),
        (("enumerate", "--order", "\u0664", "--count-only"), "\u0664"),
        (("verify", "--corpus", "\u0662"), "\u0662"),
        (("verify", "zoo:null:2", "--workers", "\u0662"), "\u0662"),
        (("search-converse-c15", "--max-order", "\u0662"), "\u0662"),
    ],
    ids=["zoo-spec", "zoo-params", "order", "corpus", "workers", "max-order"],
)
def test_integer_arguments_read_ascii_decimal_tokens_only(capsys, argv, token):
    # Python's int also reads '1_0' and non-ASCII digits such as Arabic-Indic
    # three; zoo parameters and integer options do not
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "invalid" in err and repr(token) in err


def test_stdin_under_a_strict_decoder_is_read_as_bytes(capsys, monkeypatch):
    # under PYTHONIOENCODING=utf-8:strict, reading text would fail on 0xff
    # before the ASCII check; the bytes are read from the stream's buffer
    stdin = io.TextIOWrapper(
        io.BytesIO(b"2\n0 0\n1 \xff\n"), encoding="utf-8", errors="strict"
    )
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, "analyze", "-")
    message = "error: <stdin>: byte 0xff at offset 8 is not ASCII\n"
    assert (code, out, err) == (2, "", message)


def test_closed_stdout_ends_the_output_quietly():
    # the reader takes the first line and closes the pipe; the rest of the
    # order-5 stream (about 10 MB, more than any pipe holds) meets it closed
    src = os.path.dirname(os.path.dirname(finsemi.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "finsemi.cli", "enumerate", "--order", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (first, proc.returncode, err) == (b"5\n", 141, b"")
