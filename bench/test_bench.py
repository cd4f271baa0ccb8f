"""Self-tests of the benchmark: failure counting, deterministic inputs,
self-time arithmetic and the tracer's patching.

    python3 -m pytest bench/test_bench.py
"""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import stringbricks as sb  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Span  # noqa: E402


@pytest.fixture(scope="module")
def census_inputs():
    return wl.census_setup(wl.CORPUS_SEED, BENCH / "out" / "test-census")


def _runner(name):
    return run.Runner(wl.WORKLOADS[name], 1, 1.0)


# -- output checks and failure counting ---------------------------------------

def test_wrong_verdict_counts_as_failure(census_inputs, monkeypatch):
    queries = census_inputs.queries[:40]
    runner = _runner("census")
    runner.run_pass(queries)
    assert (runner.attempted, runner.failed) == (40, 0)

    real = sb.bricks.string_brick_direct

    def flipped(ctx, x):
        rep = real(ctx, x)
        return dataclasses.replace(rep, verdict=not rep.verdict)

    monkeypatch.setattr(sb.bricks, "string_brick_direct", flipped)
    runner.run_pass(queries)
    strings = sum(q.kind == "string" for q in queries)
    assert runner.attempted == 80 and runner.failed == strings > 0


def test_exception_counts_as_failure(census_inputs, monkeypatch):
    def boom(*args):
        raise sb.strings.CapExceeded("cap")

    monkeypatch.setattr(sb.endo, "end_dim_string", boom)
    runner = _runner("census")
    runner.run_pass(census_inputs.queries[:5])
    assert runner.failed == 5 and "CapExceeded" in runner.failures[0]


def test_cli_check_rejects_wrong_exit_code(tmp_path):
    inputs = wl.cli_setup(1, tmp_path)
    q = next(q for q in inputs.queries if q.kind == "string")
    code, text = wl.cli_run(q)
    assert wl.cli_check(q, (code, text))
    doc = json.loads(text)
    assert not wl.cli_check(q, (1 - code, text))
    doc["exit_code"] = 1 - code
    assert not wl.cli_check(q, (1 - code, json.dumps(doc)))
    doc.update(exit_code=3, verdict=None)
    assert not wl.cli_check(q, (3, json.dumps(doc)))
    rt = next(q for q in inputs.queries if q.kind == "roundtrip")
    doc = json.loads(wl.cli_run(rt)[1])
    doc["isomorphic"] = False
    assert not wl.cli_check(rt, (0, json.dumps(doc)))


def test_sturmian_check_rejects_missing_witness():
    inputs = wl.sturmian_setup(1, BENCH / "out")
    q = next(q for q in inputs.queries if q.kind == "dropped" and q.size == 32)
    violation, sides = wl.sturmian_run(q)
    assert wl.sturmian_check(q, (violation, sides))
    clean = next(q for q in inputs.queries if q.kind == "clean" and q.size == 32)
    assert not wl.sturmian_check(clean, (violation, sides))


def test_endo_check_rejects_wrong_dim():
    q = wl.Query("fib", 20, (), expect=False)
    assert wl.endo_check(q, 3)
    assert not wl.endo_check(q, 1)
    assert not wl.endo_check(wl.Query("band", 8, (), expect=True), 0)


# -- deterministic generation ---------------------------------------------------

def test_default_seed_reproduces_acceptance_census(census_inputs):
    assert census_inputs.facts == {"strings": 1436, "band_cases": 104}


@pytest.mark.parametrize("name", ["census", "sturmian", "cli"])
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    setup = wl.WORKLOADS[name].setup
    a, b, c = (setup(s, tmp_path) for s in (5, 5, 6))
    assert a.digest == b.digest != c.digest


def test_relabelled_corpus_differs_by_seed():
    import random
    t1 = wl.algebra_texts(random.Random(1))
    t2 = wl.algebra_texts(random.Random(2))
    assert len(t1) == 22 and t1 != t2


# -- self-time arithmetic -------------------------------------------------------

def test_overlapping_children_subtracted_once():
    spans = [Span("a", "x.self_s", 0.0, 10.0, -1, None),
             Span("b", "y.self_s", 1.0, 5.0, 0, None),
             Span("c", "y.self_s", 4.0, 7.0, 0, None),
             Span("d", "z.self_s", 2.0, 3.0, 1, None)]
    assert tr.self_times(spans) == pytest.approx([4.0, 3.0, 3.0, 1.0])
    total, _ = tr.metric_self_times(spans)
    assert total == pytest.approx({"x.self_s": 4.0, "y.self_s": 6.0, "z.self_s": 1.0})


def test_same_layer_nesting_attributed_once():
    spans = [Span("end_dim_string", "endo.solve_s", 0.0, 10.0, -1, 7),
             Span("string_module", "endo.build_s", 0.5, 1.5, 0, 7),
             Span("end_dim", "endo.solve_s", 2.0, 9.0, 0, 7)]
    total, per_query = tr.metric_self_times(spans)
    assert total["endo.solve_s"] == pytest.approx(9.0)
    assert per_query[(7, "endo.build_s")] == pytest.approx(1.0)


def test_children_clipped_to_parent():
    assert tr.covered_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert tr.covered_length([], 0.0, 1.0) == 0.0


def test_loglog_slope():
    assert tr.loglog_slope({1: 1.0, 2: 4.0, 4: 16.0}) == pytest.approx(2.0)
    assert tr.loglog_slope({8: 1.0}) is None


# -- patching --------------------------------------------------------------------

def _namespaces():
    return {(name, key): value
            for name, mod in list(sys.modules.items())
            if name == "stringbricks" or name.startswith("stringbricks.")
            for key, value in vars(mod).items() if callable(value)} | {
        ("Context", key): value for key, value in vars(sb.strings.Context).items()}


def test_untraced_run_and_uninstall_leave_names_identical(census_inputs):
    before = _namespaces()
    _runner("census").run_pass(census_inputs.queries[:20])
    assert all(v is before[k] for k, v in _namespaces().items())

    t = tr.Tracer()
    with t:
        assert sb.bricks.is_brick_word is not before[("stringbricks.bricks", "is_brick_word")]
        assert sb.bricks.is_brick_word is sb.mia.is_brick_word is sb.is_brick_word
        assert sb.cli.parse_presentation is sb.algebra.parse_presentation
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_query_nests_and_counts(census_inputs):
    q = next(q for q in census_inputs.queries if q.kind == "string" and q.size == 4)
    t = tr.Tracer()
    t.query = 0
    with t:
        wl.census_run(q)
    spans = t.take_spans()
    names = [s.name for s in spans]
    scan = names.index("is_brick_word")
    assert spans[spans[scan].parent].name == "string_brick_automaton"
    assert {"string_brick_direct", "end_dim_string", "end_dim", "string_module"} <= set(names)
    assert all(s.query == 0 for s in spans)
    assert t.counts["endo.calls"] == 1 and t.counts["mia.scans"] == 2
    assert t.counts["bricks.direct_calls"] == 1


# -- pass schedule -----------------------------------------------------------------

def test_counting_pass_is_not_timed(census_inputs):
    queries = census_inputs.queries[:20]
    t = tr.Tracer()
    walls, spans = run.Runner(wl.WORKLOADS["census"], 1, 0.0).traced_passes(queries, t)
    assert len(walls[False]) == len(walls[True]) == 1
    assert len(spans) == 2  # the counting pass's, then the timed traced pass's
    assert not t.counting and t.counts["endo.calls"] == len(queries)


def test_untraced_run_repeats_setup():
    runner = run.Runner(wl.WORKLOADS["sturmian"], 1, 0.0)
    inputs, setup_s = runner.setup()
    setups = [setup_s]
    runner.untraced_passes(inputs.queries[:3], setups)
    assert len(setups) >= run.SETUP_MIN_RUNS


def test_short_passes_time_the_cheap_queries_more_often(census_inputs):
    queries = census_inputs.queries[:60]
    walls, samples = run.Runner(wl.WORKLOADS["census"], 1, 1.0).untraced_passes(
        queries, [0.0])
    cheap = run.cheap_ids(samples)
    fastest = [min(s) for s in samples]
    assert 0 < len(cheap) < len(queries)
    assert sum(fastest[i] for i in cheap) <= run.SHORT_SHARE * sum(fastest)
    assert max(fastest[i] for i in cheap) <= min(
        f for i, f in enumerate(fastest) if i not in cheap)
    assert all(len(s) >= len(walls) for s in samples)
    assert min(len(samples[i]) for i in cheap) > len(walls)


def test_passes_visit_queries_in_a_seeded_order(monkeypatch):
    w = dataclasses.replace(wl.WORKLOADS["sturmian"], run=lambda q: None,
                            check=lambda q, out: True)
    orders = []
    real = run.Runner.run_pass

    def record(self, queries, ids=None, tracer=None):
        orders.append(list(ids))
        return real(self, queries, ids, tracer)

    monkeypatch.setattr(run.Runner, "run_pass", record)
    queries = [wl.Query("clean", n, ()) for n in range(30)]
    for seed in (7, 7, 8):
        run.Runner(w, seed, 0.0).untraced_passes(queries, [1.0])
    assert sorted(orders[0]) == list(range(30)) != orders[0]
    assert orders[0] == orders[1] != orders[2]


def test_cheap_ids_by_fastest_latency():
    samples = [[5.0, 1.0], [2.0], [0.5, 3.0], [10.0]]
    assert run.cheap_ids(samples) == [2, 0]  # 0.5 + 1.0 <= 0.15 * 13.5
