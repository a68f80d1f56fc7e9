"""The finsemi benchmark.

Drives finsemi the way a user does: one caller and one command at a time
(a closed loop with a single client), mostly through
`finsemi.cli.main([...])` in-process with stdout captured.  The program is
imported from `src/` of the checkout this file sits in.

    python3 bench/run.py --workload corpus4-verify --seed 1 --seconds 25 --trace 0

Each workload has a fixed pass, repeated, and operations run once per
run.  With `--trace 0` the pass is repeated until `--seconds` have passed
(at least three passes) and the end-to-end metrics are medians over
passes.  With `--trace 1` the pass and the once-per-run operations run
once, and each of their operations runs twice, untraced and with every
public finsemi function wrapped in a span (see tracing.py); the
per-layer metrics come from the traced runs, and the spans are written
to bench/out/.  Every operation's output goes through the gates in
gates.py.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when
every gate passed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

import gates
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

MIN_PASSES = 3
SETUP_REPEATS = 7
# Timings are rescaled to a reference speed at which one iteration of the
# spin loop takes REFERENCE_ITERATION_S of CPU time (about an idle 2-core
# x86-64 VM with Python 3.11).  During a pass the loop runs
# PROBE_ITERATIONS times every PROBE_EVERY_S of CPU time; after each
# import it runs SETUP_ITERATIONS times.
REFERENCE_ITERATION_S = 1e-7
PROBE_ITERATIONS = 20_000
PROBE_EVERY_S = 0.05
SETUP_ITERATIONS = 200_000

CORPUS_ARGV = ["verify", "--corpus", "4", "--theorem", "all"]
# One table per kernel: the O(n^4) weak-cancellation and weak-balance
# predicates (rectangular band), context_equivalent over one big class
# (cyclic group), many classes so per-component classify and validate
# repeat (chain), an admissible full relation so check_admissibility
# dominates verify (null).  Sizes keep one pass near eight seconds.
LARGE_TABLES = (
    "zoo:rectangular_band:6,6",
    "zoo:cyclic:36",
    "zoo:chain:28",
    "zoo:null:28",
)
PREFIX_ORDER = 5
PREFIX_CLASSES = 400
SAMPLE_ORDER = 5
# p95 of the per-draw latency needs at least ten draws beyond it.
SAMPLE_DRAWS = 200

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}

PHASES = (
    "verify_s",
    "verify_w2_s",
    "analyze_s",
    "decompose_s",
    "verify_table_s",
    "enumerate_s",
    "sample_s",
    "sample_p50_ms",
    "sample_p95_ms",
)

LAYER_FUNCTIONS = (
    "cli.main",
    "cli.cmd_analyze",
    "cli.cmd_decompose",
    "cli.cmd_verify",
    "cli.cmd_enumerate",
    "decomposition.run_checks",
    "decomposition.merge_reports",
    "decomposition.decompose",
    "decomposition.admissible_candidates",
    "decomposition.verify_congruence_construction",
    "decomposition.verify_semilattice_decomposition",
    "decomposition.verify_class_separation",
    "decomposition.verify_separative_cancellation",
    "decomposition.verify_balanced_cancellation",
    "decomposition.verify_cancellative_components",
    "decomposition.verify_weakly_cancellative_components",
    "decomposition.verify_square_descent_claim",
    "decomposition.verify_table_diagram",
    "relations.check_admissibility",
    "relations.left_equalizer",
    "relations.right_equalizer",
    "relations.canonical_relation",
    "relations.context_equivalent",
    "properties.classify",
    "properties.is_separative",
    "properties.is_quasi_separative",
    "properties.is_weakly_cancellative",
    "properties.is_weakly_balanced",
    "properties.is_quasi_cancellative",
    "properties.is_left_cancellative",
    "properties.is_right_cancellative",
    "properties.is_cancellative",
    "properties.has_square_descent",
    "congruence.induced_congruence",
    "congruence.quotient",
    "core.validate",
    "core.adjoin_identity",
    "enumeration.enumerate_labeled",
    "enumeration.enumerate_canonical",
    "enumeration.canonical_form",
    "enumeration.random_table",
    "zoo.left_zero",
    "zoo.null_semigroup",
    "zoo.chain_semilattice",
    "zoo.cyclic_group",
    "zoo.rectangular_band",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "decomposition.decompose.unique_ratio": "ratio",
            "congruence.induced_congruence.not_a_congruence": "count",
            "enumeration.canonical_form.new_class_ratio": "ratio",
            "enumeration.random_table.p95_ms": "ms",
            "trace.spans": "count",
            "trace.overhead_ratio": "ratio",
        }
    )
    for phase in PHASES:
        units[f"phase.{phase}"] = "ms" if phase.endswith("_ms") else "s"
    return units


class Session:
    """One benchmark process: the imported program, the tally of
    operations and gate failures, and the tracer while tracing."""

    def __init__(self, program: dict):
        self.program = program
        self.attempted = 0
        self.cpu_s = 0.0
        self.probe = None
        self.failures: list[str] = []
        self.tracer = None
        # CPU seconds of the [untraced, traced] runs of paired operations.
        self.paired_cpu_s = [0.0, 0.0]
        self._pairs = 0
        self._first_output: dict[str, str] = {}

    def op(self, label: str, fn, gate):
        """Run one operation and pass its result through the gate outside
        the timed region; return the result and the wall time.  An
        exception or a failed gate counts the operation as failed.

        While `tracer` is set the operation runs twice, untraced and with
        every finsemi function traced, in alternating order so that
        neither side always runs second.  Both runs are gated.  The
        untraced run's result and wall time are returned, and each run's
        CPU time is added to `paired_cpu_s`."""
        if self.tracer is None:
            return self._run(label, fn, gate)[:2]
        order = (False, True) if self._pairs % 2 else (True, False)
        self._pairs += 1
        self.tracer.new_operation()
        for traced in order:
            with tracing.traced(self.tracer) if traced else contextlib.nullcontext():
                result, elapsed, cpu = self._run(label, fn, gate)
            self.paired_cpu_s[traced] += cpu
            if not traced:
                reported = result, elapsed
        return reported

    def _run(self, label: str, fn, gate):
        """One timed and gated run of an operation: the result, the wall
        time and the CPU time.  The CPU time is this process's and that of
        the children it reaped (the pool workers), less the speed probes
        taken meanwhile; it is also added to `cpu_s`."""
        self.attempted += 1
        probed = self.probe.spent if self.probe else 0.0
        c0 = cpu_time()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            result = exc
        elapsed = time.perf_counter() - t0
        cpu = cpu_time() - c0
        if self.probe:
            cpu -= self.probe.spent - probed
        self.cpu_s += cpu
        if isinstance(result, Exception):
            self.failures.append(f"{label}: raised {result!r}")
            return None, elapsed, cpu
        problems = gate(result)
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return result, elapsed, cpu

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.program["cli"].main(argv)
        return rc, out.getvalue()

    def same_as_first(self, key: str, text: str) -> list[str]:
        first = self._first_output.setdefault(key, text)
        return [] if text == first else [f"output differs from the first {key} output"]


def load_program() -> dict:
    """Import finsemi afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "finsemi" or m.startswith("finsemi.")]:
        del sys.modules[name]
    program = {m: importlib.import_module(f"finsemi.{m}") for m in tracing.MODULES}
    where = os.path.dirname(os.path.abspath(program["cli"].__file__))
    if where != os.path.join(SRC, "finsemi"):
        raise ImportError(f"finsemi was imported from {where}, not from {SRC}")
    return program


def _verify_corpus4(sess: Session, workers: str) -> float:
    argv = CORPUS_ARGV + ["--workers", workers]
    _, elapsed = sess.op(
        " ".join(argv),
        lambda: sess.cli(argv),
        lambda r: gates.check_corpus4(*r) + sess.same_as_first("corpus4", r[1]),
    )
    return elapsed


def corpus4_pass(sess: Session) -> dict[str, float]:
    return {"verify_s": _verify_corpus4(sess, "1")}


def corpus4_workers2(sess: Session, seed: int) -> dict[str, float]:
    return {"verify_w2_s": _verify_corpus4(sess, "2")}


LARGE_PHASES = (
    ("analyze_s", lambda spec: ["analyze", spec], gates.check_analyze),
    ("decompose_s", lambda spec: ["decompose", spec], gates.check_decompose),
    (
        "verify_table_s",
        lambda spec: ["verify", spec, "--theorem", "all"],
        gates.check_verify_table,
    ),
)


def large_tables_pass(sess: Session) -> dict[str, float]:
    times = {}
    for phase, make_argv, gate in LARGE_PHASES:
        times[phase] = 0.0
        for spec in LARGE_TABLES:
            argv = make_argv(spec)
            _, elapsed = sess.op(
                " ".join(argv), lambda: sess.cli(argv), lambda r: gate(spec, *r)
            )
            times[phase] += elapsed
    return times


def _exit_zero(r) -> list[str]:
    return [] if r[0] == 0 else [f"exit {r[0]}"]


def generate_pass(sess: Session) -> dict[str, float]:
    total = 0.0
    argv = ["enumerate", "--order", "4"]
    _, elapsed = sess.op(
        " ".join(argv),
        lambda: sess.cli(argv),
        lambda r: _exit_zero(r) + gates.check_labeled(r[1], 4, gates.LABELED_4),
    )
    total += elapsed
    for mode, expected in (("iso", gates.ISO_4), ("iso_anti", gates.ISO_ANTI_4)):
        argv = ["enumerate", "--order", "4", "--canonical", "--mode", mode, "--count-only"]
        _, elapsed = sess.op(
            " ".join(argv),
            lambda: sess.cli(argv),
            lambda r: _exit_zero(r) + gates.check_count(r[1], expected),
        )
        total += elapsed
    enumeration = sess.program["enumeration"]
    _, elapsed = sess.op(
        f"first {PREFIX_CLASSES} canonical classes of order {PREFIX_ORDER}",
        lambda: [
            s.rows
            for s in itertools.islice(
                enumeration.enumerate_canonical(PREFIX_ORDER), PREFIX_CLASSES
            )
        ],
        lambda rows: gates.check_tables(rows, PREFIX_CLASSES, PREFIX_ORDER),
    )
    return {"enumerate_s": total + elapsed}


def sample_stream(sess: Session, seed: int, draws: int = SAMPLE_DRAWS):
    """The seeded sampled-order-5 traffic: each operation draws
    random_table(5) and runs every check on it.  Draw i has its own
    generator, seeded from the seed and i, so that running a draw again
    gives the same table.  Returns (table rows, seconds) per draw."""
    enumeration = sess.program["enumeration"]
    decomposition = sess.program["decomposition"]
    ids = list(decomposition.CHECK_IDS)

    def draw(i):
        s = enumeration.random_table(SAMPLE_ORDER, random.Random(f"{seed}/{i}"))
        return s.rows, decomposition.run_checks([s], ids)

    out = []
    for i in range(draws):
        result, elapsed = sess.op(
            f"sample draw {i}",
            lambda: draw(i),
            lambda r: gates.check_sample(r[0], ids, r[1]),
        )
        out.append((result[0] if result else None, elapsed))
    return out


def sample(sess: Session, seed: int) -> dict[str, float]:
    lat = [elapsed for _, elapsed in sample_stream(sess, seed)]
    return {
        "sample_s": sum(lat),
        "sample_p50_ms": statistics.median(lat) * 1e3,
        "sample_p95_ms": percentile(lat, 95) * 1e3,
    }


# workload: (the pass, repeated and timed; operations run once per run,
# gated every run but timed only by the traced run)
WORKLOADS = {
    "corpus4-verify": (corpus4_pass, corpus4_workers2),
    "large-tables": (large_tables_pass, None),
    "generate": (generate_pass, sample),
}


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def cpu_time() -> float:
    """CPU seconds of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """The larger of this process's peak resident set and the largest
    peak among its reaped children (the verify pool workers).  Not their
    sum: a forked worker's peak already counts the pages it shares with
    the parent.  Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def spin(iterations: int) -> float:
    """CPU time of this thread spent in a fixed pure-Python loop."""
    t0 = time.thread_time()
    x = 0
    for i in range(iterations):
        x += i * i % 7
    return time.thread_time() - t0


class SpeedProbe:
    """How fast the processor runs interpreted code while a pass runs.

    On a shared host the same pass can vary by 2x from one pass to the
    next, CPU time included, and the speed decorrelates within about a
    second.  So every PROBE_EVERY_S of process CPU time, SIGPROF runs the
    spin loop and records its speed, in iterations per CPU second,
    relative to the reference.  The samples are equally spaced in CPU
    time, so their mean is the relative speed over the pass's CPU time.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        elapsed = spin(PROBE_ITERATIONS)
        self.speeds.append(PROBE_ITERATIONS * REFERENCE_ITERATION_S / elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def relative_speed(self) -> float:
        if not self.speeds:
            self._sample(None, None)
        return statistics.fmean(self.speeds)


def measure_setup() -> tuple[dict, float]:
    """Import the program SETUP_REPEATS times: the median import CPU time,
    rescaled by the spin loop's speed right after each import."""
    times = []
    for _ in range(SETUP_REPEATS):
        c0 = time.process_time()
        program = load_program()
        cpu = time.process_time() - c0
        speed = SETUP_ITERATIONS * REFERENCE_ITERATION_S / spin(SETUP_ITERATIONS)
        times.append(cpu * speed)
    return program, statistics.median(times)


def run_end_to_end(sess: Session, workload: str, seed: int, seconds: float) -> dict:
    """Repeat the workload's pass until `seconds` have passed.  A pass is
    the CPU time of its operations, which leaves out time the host takes
    the processor away, rescaled to the reference speed."""
    one_pass, once = WORKLOADS[workload]
    start = time.perf_counter()
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        cpu = sess.cpu_s
        with SpeedProbe() as probe:
            sess.probe = probe
            one_pass(sess)
        sess.probe = None
        passes.append((sess.cpu_s - cpu) * probe.relative_speed())
    if once is not None:
        once(sess, seed)
    return {
        "pass_s": statistics.median(passes),
        "peak_rss_mib": peak_rss_mib(),
    }


def run_traced(sess: Session, workload: str, seed: int, label: str) -> dict:
    """Run the pass and the once-per-run operations once, each operation
    untraced and traced (see Session.op).  The phase wall times are the
    untraced runs', the layer metrics the traced runs', and the overhead
    is the extra CPU time of the traced runs as a share of the untraced
    runs' CPU time."""
    one_pass, once = WORKLOADS[workload]
    tracer = tracing.Tracer()
    sess.tracer = tracer
    phases = dict.fromkeys(PHASES, 0.0)
    phases.update(one_pass(sess))
    if once is not None:
        phases.update(once(sess, seed))
    sess.tracer = None

    metrics = layer_metrics(tracer)
    untraced_cpu, traced_cpu = sess.paired_cpu_s
    metrics["trace.overhead_ratio"] = traced_cpu / untraced_cpu - 1
    for phase, value in phases.items():
        metrics[f"phase.{phase}"] = value

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{label}.txt"))
    self_ns = tracer.self_ns()
    summary = {
        name: {"calls": calls, "self_s": self_ns.get(name, 0) / 1e9}
        for name, calls in sorted(tracer.calls.items())
    }
    with open(os.path.join(OUT_DIR, f"layers-{label}.json"), "w", encoding="ascii") as fh:
        json.dump({"functions": summary, "metrics": metrics}, fh, indent=1, sort_keys=True)
    return metrics


def layer_metrics(tracer: tracing.Tracer) -> dict:
    self_ns = tracer.self_ns()
    m = {}
    for name in LAYER_FUNCTIONS:
        m[f"{name}.calls"] = tracer.calls[name]
        m[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    decompose_calls = tracer.calls["decomposition.decompose"]
    distinct = len(tracer.distinct["decomposition.decompose"])
    m["decomposition.decompose.unique_ratio"] = (
        distinct / decompose_calls if decompose_calls else 0.0
    )
    m["congruence.induced_congruence.not_a_congruence"] = tracer.raised.get(
        ("congruence.induced_congruence", "NotACongruence"), 0
    )
    cf_calls = tracer.calls["enumeration.canonical_form"]
    classes = tracer.yields["enumeration.enumerate_canonical"]
    m["enumeration.canonical_form.new_class_ratio"] = (
        classes / cf_calls if cf_calls else 0.0
    )
    draws = tracer.durations_ns("enumeration.random_table")
    m["enumeration.random_table.p95_ms"] = (
        percentile(draws, 95) / 1e6 if len(draws) >= 2 else 0.0
    )
    m["trace.spans"] = len(tracer)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "finsemi", "__init__.py")):
        print(f"error: no finsemi sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    program, setup_s = measure_setup()
    sess = Session(program)

    if args.trace:
        label = f"{args.workload}-seed{args.seed}"
        values = run_traced(sess, args.workload, args.seed, label)
        units = per_layer_units()
    else:
        values = run_end_to_end(sess, args.workload, args.seed, args.seconds)
        values["setup_s"] = setup_s
        values["success_rate"] = (sess.attempted - len(sess.failures)) / sess.attempted
        units = END_TO_END

    for line in sess.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not sess.failures,
        "attempted": sess.attempted,
        "failed": len(sess.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if not sess.failures else 1


if __name__ == "__main__":
    sys.exit(main())
