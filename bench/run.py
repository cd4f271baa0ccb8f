"""stringbricks benchmark.

    python3 bench/run.py --workload census --seed 1 --seconds 43 --trace 0

Builds the workload's inputs from the seed (set-up), then runs the
workload's fixed query set in passes, one query at a time (closed loop, one
client), until the time budget is spent: full passes, each followed by a
short pass over the cheapest queries, every pass in a seeded random order,
with the set-up repeated between the passes.  Every query's output is checked after its timer stops.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run makes a counting pass, then alternates untraced
and traced passes and reports per-layer metrics (self times, counts,
tracing overhead).  A readable report goes to stdout
before that line, and the full record (with the spans of a traced run) to
``bench/out/<workload>-trace<0|1>.json``.

The program under test is imported from ``src/`` next to this directory;
the run fails if it is missing.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# An untraced run repeats the set-up between its passes, SETUP_SHARE of the
# run's time and at least SETUP_MIN_RUNS times, so that the set-up samples
# span the host's speed phases as the passes do.
SETUP_SHARE = 0.05
SETUP_MIN_RUNS = 5
MAX_FAILURES_SHOWN = 5
# The median latency is set by the cheap queries: on census the cheaper
# two thirds of the queries take a seventh of a pass.  After each full pass
# an untraced run makes SHORT_PER_FULL short passes over the cheapest
# queries that take SHORT_SHARE of a pass, and it spends the time left at
# the end, too short for a full pass, on more of them.  Each cheap query is
# then timed at least twice as often, spread over the run, so a slow phase
# of the host must cover more of the run to raise their fastest times; the
# costly queries, which set run_s and the tail, lose a fifth of their
# timings at most.
SHORT_SHARE = 0.15
SHORT_PER_FULL = 1

# Self times printed in the result line of a traced run: those of the layers
# that run on every workload.  A layer that does not run on a workload would
# read exactly 0 s on every run there, and a time that never changes between
# runs cannot be told from a constant written into the output (counts and
# ratios are not times).  Every self time, ratio and growth exponent is in
# the readable report and the record file.
RESULT_LAYER_TIMES = ("strings.self_s", "bricks.direct_self_s")


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stringbricks
    except ImportError as err:
        raise SystemExit(f"bench: cannot import stringbricks from {src}: {err}")
    if Path(stringbricks.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench: stringbricks imported from {stringbricks.__file__},"
                         f" not from {src}")


class Runner:
    def __init__(self, workload, seed: int, seconds: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = OUT / f"work-{workload.name}"  # files the set-up writes
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def setup(self):
        start = time.perf_counter()
        inputs = self.w.setup(self.seed, self.workdir)
        return inputs, time.perf_counter() - start

    def repeat_setup(self, setups: list, elapsed: float, min_runs: int = 0):
        """Set up again until the set-ups have taken SETUP_SHARE of elapsed
        seconds and number at least min_runs.  The same seed gives the same
        inputs, so the queries keep using the first set-up's."""
        while math.fsum(setups) < SETUP_SHARE * elapsed or len(setups) < min_runs:
            setups.append(self.setup()[1])

    def run_pass(self, queries, ids=None, tracer=None):
        """One pass over the queries at indices ids (all of them by default),
        in that order; returns (wall seconds, latencies in the same order)."""
        latencies = []
        start = time.perf_counter()
        for qid in range(len(queries)) if ids is None else ids:
            q = queries[qid]
            if tracer is not None:
                tracer.query = qid
            t0 = time.perf_counter()
            try:
                out = self.w.run(q)
                t1 = time.perf_counter()
                ok = self.w.check(q, out)
            except Exception:
                t1 = time.perf_counter()
                ok = False
                self._note_failure(q, traceback.format_exc(limit=3))
            else:
                if not ok:
                    self._note_failure(q, f"output check failed: {out!r:.300}")
            latencies.append(t1 - t0)
            self.attempted += 1
            self.failed += not ok
        if tracer is not None:
            tracer.query = None
        return time.perf_counter() - start, latencies

    def _note_failure(self, q, detail: str):
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(f"{q.kind} size {q.size}: {detail}")

    def untraced_passes(self, queries, setups):
        """Full passes over the query set, each followed by up to
        SHORT_PER_FULL short passes over its cheap queries, until the next
        pass would overrun the budget; the set-up is repeated after every
        pass, appending to setups.  Every pass visits its queries in a fresh
        order drawn from the seed: the costly queries sit together in the
        input order, and timed in the same few seconds of every pass they
        would all meet the same slow phase of the host.  Returns the full
        passes' wall times and every query's latencies (one list per query)."""
        rng = random.Random(self.seed)
        start = time.perf_counter()
        deadline = start + self.seconds
        samples = [[] for _ in queries]
        walls, cheap = [], []
        shorts = short_wall = 0  # short passes since the last full one, and the last one's wall
        while True:
            left = deadline - time.perf_counter()
            full = not walls or (shorts >= SHORT_PER_FULL and walls[-1] <= left)
            if full:
                ids = rng.sample(range(len(queries)), len(queries))
            elif cheap and short_wall <= left:
                ids = rng.sample(cheap, len(cheap))
            else:
                break
            wall, lat = self.run_pass(queries, ids)
            for i, t in zip(ids, lat):
                samples[i].append(t)
            if full:
                walls.append(wall)
                cheap = cheap_ids(samples)
                shorts = 0 if cheap else SHORT_PER_FULL
                short_wall = short_wall or SHORT_SHARE * wall
            else:
                short_wall = wall
                shorts += 1
            self.repeat_setup(setups, time.perf_counter() - start)
        self.repeat_setup(setups, 0.0, SETUP_MIN_RUNS)
        return walls, samples

    def traced_passes(self, queries, tracer):
        """One counting pass, whose counters would inflate its times, then
        untraced and traced full passes in turn (at least one of each) until
        the next one would overrun the budget.  Returns the timed passes'
        wall times by tracing and the traced passes' spans, the counting
        pass's first."""
        start = time.perf_counter()
        deadline = start + self.seconds
        walls = {False: [], True: []}
        with tracer:
            self.run_pass(queries, tracer=tracer)
        spans = [tracer.take_spans()]
        tracer.counting = False
        traced = False
        while True:
            if traced:
                with tracer:
                    wall, _ = self.run_pass(queries, tracer=tracer)
                spans.append(tracer.take_spans())
            else:
                wall, _ = self.run_pass(queries)
            walls[traced].append(wall)
            traced = not traced
            if walls[True] and time.perf_counter() + wall > deadline:
                return walls, spans


def cheap_ids(samples) -> list[int]:
    """Indices of the cheapest queries by fastest latency whose fastest
    latencies sum to at most SHORT_SHARE of all of them."""
    fastest = [min(s) for s in samples]
    budget = SHORT_SHARE * math.fsum(fastest)
    ids, total = [], 0.0
    for i in sorted(range(len(fastest)), key=fastest.__getitem__):
        total += fastest[i]
        if total > budget:
            break
        ids.append(i)
    return ids


def tail_percentile(n: int) -> int:
    """The highest of p99/p90/p75 that leaves at least ten of n queries
    beyond it (p75 when none does)."""
    return next((p for p in (99, 90, 75) if n * (100 - p) / 100 >= 10), 75)


def end_to_end(walls, samples, setups):
    """Each query's latency is its fastest over the run, and setup_s is the
    fastest set-up.  The work is the same every time, so the spread between
    the samples is the machine's: on a shared host, speed switches between
    a fast and a slow level (up to 1.8x) in phases of 0.1-20 s; a median
    over the samples follows whichever level held most of the run, while
    the fastest sample does not."""
    per_query = sorted(min(s) for s in samples)
    p = tail_percentile(len(per_query))
    tail = statistics.quantiles(per_query, n=100)[p - 1]
    metrics = {
        "setup_s": (min(setups), "s"),
        "run_s": (math.fsum(per_query), "s"),
        "query_p50_ms": (statistics.median(per_query) * 1e3, "ms"),
        "query_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = sorted(len(s) for s in samples)
    info = {"tail_percentile": p, "latency_samples": len(per_query),
            "samples_beyond_tail": sum(v > tail for v in per_query),
            "passes": len(walls), "timings_per_query": [counts[0], counts[-1]],
            "setup_runs_s": setups}
    return metrics, info


def per_layer(workload, queries, setup_spans, pass_spans, counts, walls):
    """Self time per metric (traced set-up plus the median timed traced
    pass), counts, ratios, tracing overhead and growth exponents."""
    setup_total, _ = tracing.metric_self_times(setup_spans)
    pass_totals, per_query = [], []
    for spans in pass_spans[1:]:  # not the counting pass
        total, pq = tracing.metric_self_times(spans)
        pass_totals.append(total)
        per_query.append(pq)
    layers = {}
    for metric in tracing.TIME_METRICS:
        layers[metric] = setup_total.get(metric, 0.0) + statistics.median(
            t.get(metric, 0.0) for t in pass_totals)
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    sweeps = {}
    for name, metric in workload.exponents:
        by_size: dict[int, list[float]] = {}
        for qid, q in enumerate(queries):
            if q.kind == workload.sweep_kind:
                t = statistics.median(pq.get((qid, metric), 0.0) for pq in per_query)
                by_size.setdefault(q.size, []).append(t)
        medians = {n: statistics.median(v) for n, v in sorted(by_size.items())}
        sweeps[name] = {"metric": metric, "query_kind": workload.sweep_kind,
                        "sizes": list(medians), "median_s": list(medians.values()),
                        "slope": tracing.loglog_slope(medians)}
    return layers, {m: counts[m] for m in tracing.COUNT_METRICS}, \
        tracing.ratios(counts), overhead, sweeps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the acceptance corpus seed)")
    ap.add_argument("--seconds", type=float, default=43.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import workloads  # imports the program

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    seed = workloads.CORPUS_SEED if args.seed is None else args.seed
    runner = Runner(w, seed, args.seconds)
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            runner.setup()  # warm-up, untimed
            tr = tracing.Tracer()
            with tr:
                inputs, _ = runner.setup()
            setup_spans = tr.take_spans()
            walls, pass_spans = runner.traced_passes(inputs.queries, tr)
        else:
            inputs, setup_s = runner.setup()
            setups = [setup_s]
            untraced_walls, samples = runner.untraced_passes(inputs.queries, setups)
            walls = {False: untraced_walls, True: []}
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    record = {"workload": w.name, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "queries_per_pass": len(inputs.queries),
              "input_digest": inputs.digest, "facts": inputs.facts,
              "attempted": runner.attempted, "failed": runner.failed,
              "fail_ratio": runner.failed / max(runner.attempted, 1),
              "failures": runner.failures,
              "pass_walls_s": {"untraced": walls[False], "traced": walls[True]}}
    lines = [f"workload {w.name}  seed {seed}  input digest {inputs.digest}  "
             f"{len(inputs.queries)} queries per pass",
             *(f"  {k}: {v}" for k, v in inputs.facts.items())]
    if args.trace:
        layers, cnt, rat, overhead, sweeps = per_layer(
            w, inputs.queries, setup_spans, pass_spans, tr.counts, walls)
        record.update(layers_s=layers, counts=cnt, ratios=rat,
                      trace_overhead_ratio=overhead, sweeps=sweeps,
                      spans={"setup": [list(s) for s in setup_spans],
                             "counting_pass": [list(s) for s in pass_spans[0]]})
        metrics = {m: (layers[m], "s") for m in RESULT_LAYER_TIMES}
        metrics.update({m: (cnt[m], "count") for m in tracing.COUNT_METRICS})
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        lines += [f"  {m} = {v:.6f} s" for m, v in layers.items()]
        lines += [f"  {m} = {v} count" for m, v in cnt.items()]
        lines += [f"  {m} = {'n/a' if v is None else f'{v:.4f}'} ratio"
                  for m, v in rat.items()]
        lines.append(f"  trace.overhead_ratio = {overhead:.4f} ratio")
        for name, sw in sweeps.items():
            slope = "n/a" if sw["slope"] is None else f"{sw['slope']:.3f}"
            pts = ", ".join(f"{n}: {t * 1e3:.3f} ms" for n, t in
                            zip(sw["sizes"], sw["median_s"]))
            lines.append(f"  {name} = {slope} ({sw['metric']} per {sw['query_kind']}"
                         f" query, per-size medians {pts})")
    else:
        metrics, info = end_to_end(walls[False], samples, setups)
        record.update(info)
        lines += [f"  {m} = {v:.6f} {u}" for m, (v, u) in metrics.items()]
        lines.append(f"  query_tail_ms is p{info['tail_percentile']} of "
                     f"{info['latency_samples']} query latencies "
                     f"({info['samples_beyond_tail']} beyond); {info['passes']} full "
                     f"passes, each query timed {info['timings_per_query'][0]}-"
                     f"{info['timings_per_query'][1]} times")
    lines.append(f"  fail_ratio = {record['fail_ratio']:.6f} "
                 f"({runner.failed} of {runner.attempted} queries)")
    lines += [f"  FAILED {f}" for f in runner.failures]
    record["metrics"] = {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}
    (OUT / f"{w.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    correct = runner.failed == 0 and all(inputs.facts.get(k) == v
                                         for k, v in w.expected_facts.items())
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
