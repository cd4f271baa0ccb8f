"""The benchmark's workloads: seeded inputs, one timed call per query, and the
untimed check of each query's output.

Every library call goes through a module attribute (``sb.bricks.X``), never
a name bound at import time, so the tracer's wrappers see it.

Per-seed work is kept steady on purpose.  Random string algebras differ in
cost by orders of magnitude (one algebra of the default corpus takes three
quarters of its census), so a corpus drawn afresh per seed made the census
time vary 1-6 s between seeds.  The algebras are therefore the fixed corpus
of the acceptance suite, and the seed renames their vertices and arrows and
reorders their declarations: every parse, sign solve, enumeration and scan
sees different input text with the same structure.  Sizes are fixed and the
seed draws the content: random walks, Sturmian slopes, window words,
Fibonacci offsets, lambdas and the CLI's string sample.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import stringbricks as sb
import stringbricks.cli  # noqa: F401  (binds sb.cli)
import stringbricks.presets  # noqa: F401  (binds sb.presets)

CORPUS_SEED = 20240809
CORPUS_SIZE = 20
CORPUS_MAX_STRINGS = 600


class SetupError(RuntimeError):
    pass


@dataclass
class Query:
    kind: str
    size: int
    args: tuple
    expect: Any = None


@dataclass
class Inputs:
    queries: list[Query]
    digest: str
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], Inputs]
    run: Callable[[Query], Any]
    check: Callable[[Query, Any], bool]
    sweep_kind: str | None = None  # queries whose sizes form the growth sweep
    exponents: tuple = ()  # (exponent name, per-query metric it is fitted on)
    expected_facts: dict = field(default_factory=dict)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _lit(x) -> str:
    return sb.strings.Context.format_literal(x)


# ---------------------------------------------------------------------------
# algebras


def _random_presentation(rng: random.Random):
    """tests/conftest.py's generator, copied so that edits to the tests do not
    move the benchmark's inputs; it draws from rng in the same order."""
    nv = rng.randint(1, 4)
    vertices = [f"v{i}" for i in range(1, nv + 1)]
    lines = [f"vertex {v}" for v in vertices]
    arrows = []
    for i in range(rng.randint(1, 6)):
        s, t = rng.choice(vertices), rng.choice(vertices)
        arrows.append((f"x{i}", s, t))
        lines.append(f"arrow x{i} {s} {t}")
    amap = {a: (s, t) for a, s, t in arrows}
    pairs = [(a, b) for a in amap for b in amap if amap[a][1] == amap[b][0]]
    rng.shuffle(pairs)
    rels = [pair for pair in pairs if rng.random() < 0.6]
    triples = [(a, b, c) for (a, b) in pairs for c in amap
               if amap[b][1] == amap[c][0]
               and (a, b) not in rels and (b, c) not in rels]
    rng.shuffle(triples)
    rels.extend(triples[:rng.randint(0, 2)])
    for r in rels:
        lines.append("relation " + " ".join(r))
    return sb.algebra.parse_presentation("\n".join(lines))


def corpus_presentations():
    """The acceptance suite's corpus: the first CORPUS_SIZE random
    presentations that are string algebras with solvable signs and at most
    CORPUS_MAX_STRINGS strings of length <= 8."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(20000):
        if len(out) == CORPUS_SIZE:
            return out
        try:
            p = _random_presentation(rng)
        except sb.algebra.PresentationError:
            continue
        if not sb.algebra.validate_string_algebra(p).is_string_algebra:
            continue
        try:
            sb.strings.Context(p).enumerate_strings(8, cap=CORPUS_MAX_STRINGS)
        except (sb.algebra.SignError, sb.strings.CapExceeded):
            continue
        out.append(p)
    raise SetupError("corpus generation stalled")


def relabel_text(p, rng: random.Random) -> str:
    """Presentation text of an isomorphic copy of p: vertices and arrows get
    fresh names in a random order, and the declarations are shuffled."""
    verts = list(p.vertices)
    rng.shuffle(verts)
    vname = {v: f"q{i}" for i, v in enumerate(verts, 1)}
    arrows = list(p.arrows)
    rng.shuffle(arrows)
    aname = {a: f"y{i}" for i, (a, _, _) in enumerate(arrows, 1)}
    rng.shuffle(verts)
    rng.shuffle(arrows)
    rels = list(p.relations)
    rng.shuffle(rels)
    lines = [f"vertex {vname[v]}" for v in verts]
    lines += [f"arrow {aname[a]} {vname[s]} {vname[t]}" for a, s, t in arrows]
    lines += ["relation " + " ".join(aname[a] for a in r) for r in rels]
    if p.declared_signs:
        lines += [f"sign {aname[a]} {s:+d} {e:+d}"
                  for a, (s, e) in sorted(p.declared_signs.items())]
    return "\n".join(lines) + "\n"


def algebra_texts(rng: random.Random) -> list[str]:
    """Lambda_3, Gamma and the corpus, relabelled by rng."""
    base = [sb.presets.lambda3(), sb.presets.gamma(), *corpus_presentations()]
    return [relabel_text(p, rng) for p in base]


def load_context(text: str):
    p = sb.algebra.parse_presentation(text)
    if not sb.algebra.validate_string_algebra(p).is_string_algebra:
        raise SetupError("relabelled presentation is not a string algebra")
    return sb.strings.Context(p, sb.algebra.solve_sign_maps(p))


def systematic_sample(items: list, k: int, rng: random.Random) -> list:
    """k items at even steps from a random offset (all when k >= len)."""
    if k >= len(items):
        return list(items)
    step = len(items) / k
    off = rng.random() * step
    return [items[int(off + i * step)] for i in range(k)]


# ---------------------------------------------------------------------------
# census: the oracle triangle over every string and band of <= 8 syllables


CENSUS_MAX_LEN = 8


def census_setup(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    queries = []
    for text in algebra_texts(rng):
        ctx = load_context(text)
        sb.construct.build_mia(ctx)
        sb.construct.parity_mia(ctx)
        for x in ctx.enumerate_strings(CENSUS_MAX_LEN):
            queries.append(Query("string", len(x), (ctx, x)))
        for b in ctx.enumerate_bands(CENSUS_MAX_LEN):
            for l in (1, 2):
                for lam in (1, 2):
                    queries.append(Query("band", len(b.string), (ctx, b, l, lam)))
    strings = sum(q.kind == "string" for q in queries)
    digest = _digest((q.kind, _lit(q.args[1]) if q.kind == "string"
                      else _lit(q.args[1].string), q.args[2:]) for q in queries)
    return Inputs(queries, digest, {"strings": strings,
                                    "band_cases": len(queries) - strings})


def census_run(q: Query):
    if q.kind == "string":
        ctx, x = q.args
        return (sb.bricks.string_brick_direct(ctx, x).verdict,
                sb.bricks.string_brick_automaton(ctx, x).verdict,
                sb.endo.end_dim_string(ctx, x))
    ctx, b, l, lam = q.args
    return (sb.bricks.band_brick_direct(ctx, b, l, lam).verdict,
            sb.bricks.band_brick_automaton(ctx, b, l).verdict,
            sb.endo.end_dim_band(ctx, b, l, lam))


def census_check(q: Query, out) -> bool:
    direct, automaton, dim = out
    return direct == automaton == (dim == 1) and dim >= 1


# ---------------------------------------------------------------------------
# sturmian: characteristic windows over a doubling sweep, plus refuted ones


# A doubling sweep with the midpoints between doublings: clean and refuted
# windows of six sizes interleave in cost, so the median and tail latencies
# fall inside a smooth spread of deterministic full scans rather than on a
# gap between two size classes.
STURMIAN_SIZES = (32, 45, 64, 90, 128, 181)
STURMIAN_RANDOM_WORDS = 3  # per size


def random_directive(rng: random.Random):
    """An infinite directive sequence; terms stay in {1, 2} after d1 so the
    slope, and with it the pair-scan work, varies little between seeds."""
    head = (rng.randint(0, 1),) + tuple(rng.randint(1, 2)
                                        for _ in range(rng.randint(0, 2)))
    period = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
    return sb.sturmian.DirectiveSequence(head, period)


def sturmian_setup(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    Window = sb.words.Window
    A, B = sb.sturmian.A, sb.sturmian.B
    fib = sb.sturmian.DirectiveSequence.parse("1,(1)")
    queries = []
    for n in STURMIAN_SIZES:
        for d in (fib, random_directive(rng)):
            queries.append(Query("clean", n, (sb.sturmian.characteristic_prefix(d, n),)))
            longer = sb.sturmian.characteristic_prefix(d, n + 1)
            dropped = Window(longer.letters[1:], True, f"characteristic({d})[1:]",
                             left_closed=True, right_closed=False)
            queries.append(Query("dropped", n, (dropped,)))
        for _ in range(STURMIAN_RANDOM_WORDS):
            letters = tuple(rng.choice((A, B)) for _ in range(n))
            queries.append(Query("random", n, (Window(letters, False, "random",
                                                      left_closed=False,
                                                      right_closed=False),)))
    sb.sturmian.lambda3_context()  # the bridge's algebra, built once per process
    digest = _digest((q.kind, q.args[0].origin,
                      "".join(l.sym for l in q.args[0].letters)) for q in queries)
    return Inputs(queries, digest)


def _bridge_sides(kind: str):
    if kind == "dropped":
        return (sb.sturmian.RIGHT_INFINITE,)
    return (sb.sturmian.RIGHT_INFINITE, sb.sturmian.BI_INFINITE)


def sturmian_run(q: Query):
    w = q.args[0]
    violation = sb.sturmian.sturmian_window_check(w)
    sides = []
    for side in _bridge_sides(q.kind):
        res = sb.sturmian.bridge(w, side)
        direct = sb.bricks.string_brick_direct(sb.sturmian.lambda3_context(),
                                               res.string_window)
        sides.append((res, direct))
    return violation, sides


def sturmian_check(q: Query, out) -> bool:
    violation, sides = out
    for res, direct in sides:
        witness = res.report.witness is not None
        if witness != (direct.witness is not None):
            return False
        if q.kind == "clean" and (violation is not None or witness):
            return False
        if q.kind == "dropped" and not witness:
            return False
        if q.kind == "random" and not (violation is not None and witness
                                       and res.consistent()):
            return False
    return True


# ---------------------------------------------------------------------------
# endo_long: exact dim End on long strings and long bands


ENDO_STRING_SIZES = (20, 24, 28, 32, 36)
ENDO_CORPUS_SIZE = 16  # syllables of the corpus walks
ENDO_BANDS = ((10, 5), (12, 3), (14, 8))  # (length, bands) at l = 1 and 2
_FIB_BLOCKS = {"a": ("b1", "a1'"), "b": ("a2'", "b2")}


def random_string(ctx, n: int, rng: random.Random):
    """A random string of n syllables: a depth-first walk over
    Context.continuations in random order, so it finds one exactly when a
    string of length n exists (None otherwise)."""
    def extend(seq):
        if len(seq) == n:
            return seq
        cont = ctx.continuations(seq) if seq else ctx.syllables()
        rng.shuffle(cont)
        for nxt in cont:
            found = extend(seq + (nxt,))
            if found is not None:
                return found
        return None

    found = extend(())
    return None if found is None else ctx.make_string(found)


def endo_setup(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    texts = algebra_texts(rng)
    l3 = load_context(sb.presets.lambda_n_text(3))  # the substitution's names
    gamma = load_context(texts[1])
    corpus = [load_context(t) for t in texts[2:]]
    fib = sb.sturmian.characteristic_prefix(
        sb.sturmian.DirectiveSequence.parse("1,(1)"), 200)
    fib_text = "".join(l.sym for l in fib.letters)
    queries = []
    for n in ENDO_STRING_SIZES:
        off = rng.randrange(len(fib_text) - n // 2)
        toks = [t for c in fib_text[off:off + n // 2] for t in _FIB_BLOCKS[c]]
        queries.append(Query("fib", n, (l3, l3.parse_literal(" ".join(toks)))))
        walk = random_string(gamma, n, rng)
        if walk is None:
            raise SetupError(f"Gamma has no string of length {n}")
        queries.append(Query("walk", n, (gamma, walk)))
    for ctx in corpus:
        x = random_string(ctx, ENDO_CORPUS_SIZE, rng)
        if x is not None:
            queries.append(Query("walk", ENDO_CORPUS_SIZE, (ctx, x)))
    by_len: dict[int, list] = {}
    for b in l3.enumerate_bands(14):
        by_len.setdefault(len(b.string), []).append(b)
    # The bands are the first ones of each length in canonical order, the
    # same at every seed (the seed draws lambda): band costs differ by up to
    # 1.5x within a length.  The strings' costs spread over 1-1500 ms and
    # move with the seed, so the bands are counted to hold both reported
    # quantiles: with 51 queries the median falls among the five length-10
    # bands at l = 2 and the p75 tail (the 13th slowest) among the eight
    # length-14 bands at l = 2, whose costs do not depend on the seed.
    for n, count in ENDO_BANDS:
        for b in by_len[n][:count]:
            for l in (1, 2):
                queries.append(Query("band", n, (l3, b, l, rng.randint(1, 2))))
    for n, count in ((8, 2), (10, 1)):
        for b in by_len[n][:count]:
            queries.append(Query("band", n, (l3, b, 3, rng.randint(1, 2))))
    for q in queries:
        if q.kind == "band":
            q.expect = sb.bricks.band_brick_direct(*q.args).verdict
        else:
            q.expect = sb.bricks.string_brick_direct(*q.args).verdict
    digest = _digest((q.kind, q.size, _lit(q.args[1]) if q.kind != "band"
                      else (_lit(q.args[1].string), q.args[2:])) for q in queries)
    return Inputs(queries, digest)


def endo_run(q: Query):
    if q.kind == "band":
        return sb.endo.end_dim_band(*q.args)
    return sb.endo.end_dim_string(*q.args)


def endo_check(q: Query, dim) -> bool:
    return dim >= 1 and (dim == 1) == q.expect


# ---------------------------------------------------------------------------
# cli: in-process command-line calls against presentation files


# Lambda_3, Gamma and corpus algebras 1-4; corpus algebra 0, whose
# length-8 bands at l = 2 take 0.2 s of endo each, is left to the census so
# that the calls stay dominated by the per-call path.
CLI_ALGEBRAS = (0, 1, 3, 4, 5, 6)
CLI_STRINGS = 16  # per algebra


def cli_setup(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    queries = []
    texts = algebra_texts(rng)
    for i in CLI_ALGEBRAS:
        text = texts[i]
        path = workdir / f"algebra{i}.alg"
        path.write_text(text, encoding="utf-8")
        ctx = load_context(text)
        xs = sorted(ctx.enumerate_strings(8), key=lambda x: (len(x), x.key()))
        for x in systematic_sample(xs, CLI_STRINGS, rng):
            queries.append(Query("string", len(x), (
                "check-string-brick", str(path), _lit(x), "--method", "all", "--json")))
        for b in ctx.enumerate_bands(8):
            for l in (1, 2):
                queries.append(Query("band", len(b.string), (
                    "check-band-brick", str(path), _lit(b.string), "--l", str(l),
                    "--method", "all", "--json")))
        queries.append(Query("roundtrip", 0, ("roundtrip", str(path), "--json")))
    rng.shuffle(queries)
    digest = _digest((q.args[0], Path(q.args[1]).name, q.args[2:]) for q in queries)
    return Inputs(queries, digest)


def cli_run(q: Query):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sb.cli.main(list(q.args))
    return code, buf.getvalue()


def cli_check(q: Query, out) -> bool:
    code, text = out
    doc = json.loads(text)
    if doc.get("schema") != sb.cli.SCHEMA or doc.get("exit_code") != code:
        return False
    if q.kind == "roundtrip":
        return code == 0 and doc.get("isomorphic") is True
    return code in (0, 1) and doc.get("verdict") is (code == 0)


WORKLOADS = {
    # every relabelling is isomorphic to the acceptance corpus, so the census
    # has acceptance criteria 2-3's size at every seed
    "census": Workload("census", census_setup, census_run, census_check,
                       expected_facts={"strings": 1436, "band_cases": 104}),
    "sturmian": Workload("sturmian", sturmian_setup, sturmian_run, sturmian_check,
                         sweep_kind="clean", exponents=(
                             ("sturmian.check_exponent", "sturmian.check_s"),
                             ("mia.scan_exponent", "mia.self_s"),
                             ("bricks.direct_scan_exponent", "bricks.direct_self_s"))),
    "endo_long": Workload("endo_long", endo_setup, endo_run, endo_check,
                          sweep_kind="fib", exponents=(
                              ("endo.solve_exponent", "endo.solve_s"),)),
    "cli": Workload("cli", cli_setup, cli_run, cli_check),
}
