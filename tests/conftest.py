import random

import pytest

from stringbricks.algebra import (SignError, parse_presentation,
                                  validate_string_algebra)
from stringbricks.presets import gamma, lambda3, lambda_n
from stringbricks.bricks import _direct_witness
from stringbricks.mia import _host, _report
from stringbricks.scan import Hit, Track, pair_scan, unroll
from stringbricks.strings import CapExceeded, Context, Str, StringError
from stringbricks.sturmian import _blocks
from stringbricks.words import PERIODIC, inv_seq


def concat(ctx: Context, x: Str, y: Str) -> Str:
    """Defined iff t(x)=s(y), sigma(y)=-eps(x) and the join is a valid
    string; zero-length strings act as one-sided identities."""
    if x.dst != y.src:
        raise StringError(f"undefined concatenation: t(x)={x.dst} != s(y)={y.src}")
    if y.sig != -x.eps:
        raise StringError(f"undefined concatenation: sigma(y)={y.sig} != -eps(x)={-x.eps}")
    if x.is_zero():
        return y
    if y.is_zero():
        return x
    try:
        return ctx.make_string(x.letters + y.letters)
    except StringError as err:
        raise StringError(f"undefined concatenation: {err}")


def factor_ok(before, after):
    """A factor occurrence's boundary: an inverse letter or a closed end
    before it, a direct letter or a closed end after it."""
    return (before is None or before.inv) and (after is None or not after.inv)


def image_ok(before, after):
    """An image occurrence's boundary, the mirror of a factor's."""
    return (before is None or not before.inv) and (after is None or after.inv)


def sturmian_pair_scan(u):
    """The first Sturmian violation of an {a,b} window, by the pair scan
    alone (the reference for the balance test): the factor/image scan of
    the bridge's blocks from block boundaries, as a hit in window gaps."""
    blocks = _blocks(u)
    t = Track(blocks, False, False, range(0, len(blocks) + 1, 2))
    hit = next(pair_scan(t, (t,)), None)
    return None if hit is None else Hit(0, hit.of // 2, hit.oi // 2, hit.L // 2)


def direct_band_witness_3q(ctx: Context, q):
    """The direct route's witness for the band word of q, scanned 3|q|
    letters past each start instead of the route's |q|."""
    n = len(q)
    return _direct_witness(ctx, unroll(q, n, 3 * n), unroll(inv_seq(q), n, 3 * n), 1)


def periodic_witness_3q(m, w):
    """The automaton route's witness for a purely periodic pointed word w,
    scanned 3|q| letters past each start instead of the route's |q|."""
    hosts = (_host(m, w), _host(m, w.inverse(m)))
    for h in hosts:
        h.track = unroll(h.q, h.T, 3 * h.P)
    return _report(hosts, PERIODIC, weak=True).witness


def path_quiver_text(n: int) -> str:
    """v0 -> v1 -> ... -> vn, one arrow per step and no relations."""
    return "".join([*(f"vertex v{i}\n" for i in range(n + 1)),
                    *(f"arrow a{i} v{i} v{i + 1}\n" for i in range(n))])


CORPUS_SEED = 20240809
CORPUS_SIZE = 20
CORPUS_MAX_STRINGS = 600


@pytest.fixture(scope="session")
def l3():
    return Context(lambda3())


@pytest.fixture(scope="session")
def gam():
    return Context(gamma())


@pytest.fixture(scope="session")
def l6():
    return Context(lambda_n(6))


def random_presentation(rng: random.Random):
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
    return parse_presentation("\n".join(lines))


def corpus_algebras(count=CORPUS_SIZE, seed=CORPUS_SEED,
                    max_strings=CORPUS_MAX_STRINGS):
    """The first `count` seeded random presentations that validate as string
    algebras with solvable signs and a bounded length-8 string census."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 20000, "corpus generation stalled"
        try:
            p = random_presentation(rng)
        except Exception:
            continue
        if not validate_string_algebra(p).is_string_algebra:
            continue
        try:
            ctx = Context(p)
            ctx.enumerate_strings(8, cap=max_strings)
        except (SignError, CapExceeded):
            continue
        out.append(ctx)
    return out


@pytest.fixture(scope="session")
def corpus():
    return corpus_algebras()


@pytest.fixture()
def tampered_gap_zero_classes(monkeypatch):
    """Every finite host with its basepoint at gap 0 (the automaton's shift
    representative, and the inverse of a word pointed at its right end)
    reports an empty class at its last gap, so the automaton route's
    basepoint-shift spot-check must fail."""
    import stringbricks.mia as miamod

    class Tampered(miamod._FiniteHost):
        def __init__(self, m, u, bpos, base):
            super().__init__(m, u, bpos, base)
            if bpos == 0:
                self.G = self.G[:-1] + [frozenset()]

    monkeypatch.setattr(miamod, "_FiniteHost", Tampered)
