import functools
import io

import pytest

from finsemi import PROFILE_KEYS, classify, format_table, parse_table, run_checks
from finsemi.cli import load_table, main
from finsemi.decomposition import CHECK_IDS

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


def test_zoo_shorthand_parsing():
    assert load_table("zoo:null2").rows == ((0, 0), (0, 0))
    assert load_table("zoo:chain:3").n == 3
    assert load_table("zoo:left_zero2").rows == ((0, 0), (1, 1))
    assert load_table("zoo:rectangular_band:2,2").n == 4
    assert load_table("zoo:monogenic:3,1").rows == ((1, 2, 2), (2, 2, 2), (2, 2, 2))
    with pytest.raises(ValueError):
        load_table("zoo:unknown:2")


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
    # order 3 takes the labeled route; order 4 the class route, with t6
    # witnesses in classes on both sides of the chunk split
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

    def labeled(order, ids, workers=1):
        return [labeled_reports(order)[check_id] for check_id in ids]

    monkeypatch.setattr("finsemi.cli.verify_corpus", labeled)
    assert classes == run_cli(capsys, *argv)


def test_verify_rejects_bad_inputs(capsys):
    assert run_cli(capsys, "verify", "--corpus", "7")[0] == 2
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
    assert run_cli(capsys, "enumerate", "--order", "6")[0] == 2


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


def test_omega_relation_file(tmp_path, capsys):
    rel = tmp_path / "rel.txt"
    rel.write_text("# diagonal\n0 0\n1 1\n")
    code, out, _ = run_cli(
        capsys, "omega", "zoo:left_zero2", "--relation", f"file:{rel}"
    )
    assert code == 0
    assert "balanced: true" in out
    assert "classes: 1" in out


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
        run_cli(capsys, "search-converse-c15", "--max-order", "4", "--workers", "2")[1],
    ]
    assert runs[0] == runs[1] == runs[2]


def test_search_converse_bad_args(capsys):
    assert run_cli(capsys, "search-converse-c15", "--max-order", "0")[0] == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(capsys, workers):
    code, out, err = run_cli(capsys, "verify", "zoo:null2", "--workers", workers)
    assert (code, out) == (2, "")
    assert f"got {workers}" in err
    code, out, err = run_cli(
        capsys, "search-converse-c15", "--max-order", "2", "--workers", workers
    )
    assert (code, out) == (2, "")
    assert f"got {workers}" in err


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
