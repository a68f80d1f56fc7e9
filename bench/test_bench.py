"""Tests for the benchmark itself: the gates fire on corrupted output, the
seed reaches the sample stream, tracing counts repeat and undo cleanly,
and the metric names agree with BENCHMARK.json.  No full workload runs.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys

import pytest

import gates
import run
import tracing

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def no_gate(result):
    return []


@pytest.fixture(scope="module")
def sess():
    return run.Session(run.load_program())


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    for name in list(e2e) + list(layer) + [w["name"] for w in spec["workloads"]]:
        assert NAME.match(name) and len(name) <= 64, name
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_count_gate_fires_on_wrong_count():
    assert gates.check_count("3492\n", gates.LABELED_4) == []
    assert gates.check_count("3491\n", gates.LABELED_4)
    assert gates.check_count("", gates.ISO_4)


def test_associativity_gate_fires_on_non_associative_grid():
    left_zero = ((0, 0), (1, 1))
    # (1*0)*1 = 1*1 = 0 but 1*(0*1) = 1*0 = 1
    broken = ((0, 0), (1, 0))
    assert gates.is_associative(left_zero)
    assert not gates.is_associative(broken)
    assert not gates.is_associative(((0, 2), (1, 1)))
    assert gates.check_tables([left_zero], 1, 2) == []
    assert gates.check_tables([left_zero, broken], 2, 2)
    assert gates.check_tables([left_zero, left_zero], 2, 2)
    text = "2\n0 0\n1 1\n\n2\n0 0\n1 0\n"
    assert gates.check_labeled(text, 2, 2)


def _corpus4_text(verdicts=gates.CORPUS4_VERDICTS, applicable=gates.LABELED_4):
    lines = []
    for check in gates.CHECK_ORDER:
        counts = {"t4": f"applicable={applicable}", "diagram": f"tables={applicable}"}
        head = f"{check}: {verdicts[check]}"
        if check in counts:
            head += f" ({counts[check]})"
        lines.append(head)
        if verdicts[check] == "violated":
            lines.append("  witness: (((0,),), ('x',))")
    lines.append("strictness:")
    lines += [f"  w{i}: claim: confirmed" for i in range(4)]
    return "\n".join(lines) + "\n"


def test_report_gate_fires_on_changed_report_text():
    good = _corpus4_text()
    assert gates.check_corpus4(1, good) == []
    assert gates.check_corpus4(0, good)
    assert gates.check_corpus4(1, _corpus4_text(applicable=3491))
    flipped = dict(gates.CORPUS4_VERDICTS, p7="violated")
    assert gates.check_corpus4(1, _corpus4_text(flipped))
    assert gates.check_corpus4(1, good.replace("c15: verified", "c15: not-applicable"))
    assert gates.check_corpus4(1, good.replace(": confirmed", ": FAILED", 1))
    assert gates.check_corpus4(1, good.replace("p11: verified\n", ""))


def test_identical_output_gate_fires(sess):
    assert sess.same_as_first("k", "a\n") == []
    assert sess.same_as_first("k", "a\n") == []
    assert sess.same_as_first("k", "a \n")


SMALL = ("zoo:rectangular_band:2,3", "zoo:cyclic:5", "zoo:chain:4", "zoo:null:4")


@pytest.mark.parametrize("spec", SMALL)
def test_hand_derived_family_facts_hold_at_small_order(sess, spec):
    for _, make_argv, gate in run.LARGE_PHASES:
        assert gate(spec, *sess.cli(make_argv(spec))) == []


def test_large_table_gates_fire_on_changed_output(sess):
    spec = "zoo:chain:4"
    rc, text = sess.cli(["analyze", spec])
    assert gates.check_analyze(spec, rc, text.replace("separative: true", "separative: false", 1))
    assert gates.check_analyze(spec, rc, text.replace("n: 4", "n: 5"))
    rc, text = sess.cli(["decompose", spec])
    assert gates.check_decompose(spec, rc, text.replace("classes: 4", "classes: 3"))
    rc, text = sess.cli(["verify", spec, "--theorem", "all"])
    assert gates.check_verify_table(spec, 1, text)
    assert gates.check_verify_table(spec, rc, text.replace("p11: not-applicable", "p11: verified"))


def test_seed_reaches_the_sample_stream(sess):
    first = [rows for rows, _ in run.sample_stream(sess, seed=1, draws=2)]
    again = [rows for rows, _ in run.sample_stream(sess, seed=1, draws=2)]
    other = [rows for rows, _ in run.sample_stream(sess, seed=2, draws=2)]
    assert first == again
    assert first != other
    assert all(gates.is_associative(rows) for rows in first + other)
    assert not sess.failures


def test_traced_counts_repeat_exactly_and_patches_are_undone(sess):
    decomposition = sess.program["decomposition"]
    original = decomposition.decompose
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            assert decomposition.decompose is not original
            assert decomposition.CHECKS["t6"] is not None
            rc, _ = sess.cli(["verify", "--corpus", "3", "--theorem", "all"])
        assert rc == 0
        counts.append(dict(tracer.calls))
        assert tracer.calls["enumeration.enumerate_labeled"] == 1
        assert tracer.yields["enumeration.enumerate_labeled"] == 113
        assert tracer.calls["decomposition.verify_table_diagram"] == 113
        assert tracer.calls["properties.is_weakly_balanced"] > 0
    assert counts[0] == counts[1]
    assert decomposition.decompose is original
    assert all(not hasattr(f, "__wrapped__") for f in decomposition.CHECKS.values())


def test_pass_time_counts_the_pool_workers(sess):
    cpu = {}
    for workers in ("1", "2"):
        argv = ["verify", "--corpus", "3", "--theorem", "all", "--workers", workers]
        before = sess.cpu_s
        sess.op(" ".join(argv), lambda: sess.cli(argv), no_gate)
        cpu[workers] = sess.cpu_s - before
    # The parent of a two-worker run mostly waits; the work is the workers'.
    assert cpu["2"] > 0.5 * cpu["1"] > 0


def test_traced_operation_runs_untraced_and_traced_and_costs_more(sess):
    paired = run.Session(sess.program)
    paired.tracer = tracing.Tracer()
    argv = ["verify", "--corpus", "3", "--theorem", "all"]
    (rc, text), _ = paired.op("corpus 3", lambda: paired.cli(argv), no_gate)
    assert rc == 0 and "t4: verified" in text
    assert paired.attempted == 2 and not paired.failures
    assert paired.tracer.calls["cli.main"] == 1
    untraced, traced = paired.paired_cpu_s
    # Every table opens many spans, so the overhead is far above the noise.
    assert traced > untraced > 0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    outer, inner = tracer._name_id("a"), tracer._name_id("b")
    i = tracer.open(outer)
    j = tracer.open(inner)
    tracer.close(j)
    tracer.close(i)
    tracer.start[i], tracer.end[i] = 0, 100
    tracer.start[j], tracer.end[j] = 10, 40
    assert tracer.parent[j] == i
    assert tracer.self_ns() == {"a": 70, "b": 30}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "bench")
    for name in ("run.py", "gates.py", "tracing.py"):
        shutil.copy(os.path.join(run.BENCH_DIR, name), tmp_path / "bench")
    argv = ["--workload", "generate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""


def test_speed_probe_samples_during_the_pass_and_restores_the_signal():
    before = signal.getsignal(signal.SIGPROF)
    with run.SpeedProbe() as probe:
        run.spin(3_000_000)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == before
    assert probe.speeds and probe.spent > 0
    assert probe.relative_speed() > 0
