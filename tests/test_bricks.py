import hashlib
import itertools
import random

import pytest

from conftest import direct_band_witness_3q
from stringbricks.bricks import (band_brick_automaton, band_brick_direct,
                                 band_brick_endo, string_brick_automaton,
                                 string_brick_direct, string_brick_endo)
from stringbricks.construct import (binary_word, build_mia, parity_mia,
                                   string_to_word)
from stringbricks.endo import end_dim_band, end_dim_string
from stringbricks.mia import is_brick_word, is_weak_brick_word, transport
from stringbricks.strings import Context
from stringbricks.words import Letter, Window, Word


def L(tok):
    return Letter(tok[:-1], True) if tok.endswith("'") else Letter(tok, False)


def lits(text):
    return tuple(L(t) for t in text.split())


# --- named cases -----------------------------------------------------------------

def test_a_is_brick(l3):
    a = l3.parse_literal("b1 a1'")
    assert string_brick_direct(l3, a).verdict
    assert string_brick_automaton(l3, a).verdict
    assert end_dim_string(l3, a) == 1


def test_ab_is_not_brick(l3):
    ab = l3.parse_literal("b1 a1' a2' b2")
    rep = string_brick_direct(l3, ab)
    assert not rep.verdict
    w = rep.witness
    assert w is not None and w.content == "1(v2,+1)"
    assert (w.factor.start, w.factor.end) == (0, 0)
    assert (w.image.start, w.image.end) == (4, 4)
    assert not string_brick_automaton(l3, ab).verdict
    assert end_dim_string(l3, ab) == 2


def test_band_brick_named(l3):
    b, _ = l3.is_band(l3.parse_literal("a2' b2"))
    for lam in (1, 2, 5):
        assert band_brick_direct(l3, b, 1, lam).verdict
    assert band_brick_automaton(l3, b, 1).verdict
    assert end_dim_band(l3, b, 1, 1) == 1
    rep = band_brick_direct(l3, b, 2, 1)
    assert not rep.verdict and rep.reason == "l must be 1"
    assert not band_brick_automaton(l3, b, 2).verdict
    assert end_dim_band(l3, b, 2, 1) >= 2


def test_band_routes_refuse_lambda_zero_in_the_field(l3):
    """lambda is read in F_32003, where endo solves: the direct and automaton
    routes refuse what endo refuses, 32003 and its negative as well as 0,
    and endo refuses it before its cap, at any l."""
    b, _ = l3.is_band(l3.parse_literal("a2' b2"))
    for lam in (0, 32003, -32003):
        for route in (band_brick_direct, band_brick_automaton, band_brick_endo):
            for l in (1, 2, 500):
                with pytest.raises(ValueError, match="lambda must be nonzero"):
                    route(l3, b, l, lam)
    assert band_brick_automaton(l3, b, 1, 2) == band_brick_automaton(l3, b, 1)


def test_rotated_aabb_band_not_brick(l3):
    b, _ = l3.is_band(l3.parse_literal("a1' b1 a1' a2' b2 a2' b2 b1"))
    assert b is not None
    rep = band_brick_direct(l3, b, 1, 1)
    assert not rep.verdict
    assert rep.witness is not None and rep.witness.content == "1(v2,+1)"
    assert not band_brick_automaton(l3, b, 1).verdict
    assert end_dim_band(l3, b, 1, 1) >= 2


def test_periodic_string_not_brick(l3):
    q = lits("a2' b2")
    rep = string_brick_direct(l3, Word(q, (), q))
    assert not rep.verdict and rep.periodicity == "periodic"
    rep2 = string_brick_automaton(l3, Word(q, (), q))
    assert not rep2.verdict and rep2.periodicity == "periodic"
    rep3 = string_brick_direct(l3, Word((), (), q))
    assert not rep3.verdict


# --- the oracle triangle -----------------------------------------------------------

def triangle_strings(ctx, max_len):
    for x in ctx.enumerate_strings(max_len):
        d = string_brick_direct(ctx, x).verdict
        a = string_brick_automaton(ctx, x).verdict
        e = end_dim_string(ctx, x) == 1
        assert d == a == e, Context.format_literal(x)


def test_triangle_lambda3_gamma(l3, gam):
    triangle_strings(l3, 8)
    triangle_strings(gam, 8)


def test_triangle_corpus_sample(corpus):
    for ctx in corpus[:6]:
        triangle_strings(ctx, 6)


def test_band_triangle(l3, gam):
    for ctx in (l3, gam):
        for b in ctx.enumerate_bands(8):
            for l in (1, 2):
                for lam in (1, 2):
                    d = band_brick_direct(ctx, b, l, lam).verdict
                    a = band_brick_automaton(ctx, b, l).verdict
                    e = end_dim_band(ctx, b, l, lam) == 1
                    assert d == a == e
                    if l == 2:
                        assert not d


# --- invariances ----------------------------------------------------------------

def test_inversion_invariance(l3, gam):
    for ctx in (l3, gam):
        for x in ctx.enumerate_strings(6):
            if x.is_zero():
                continue
            assert string_brick_direct(ctx, x).verdict == \
                string_brick_direct(ctx, x.inverse()).verdict


def test_band_rotation_invariance(l3):
    b, _ = l3.is_band(l3.parse_literal("a1' a2' b2 b1"))
    letters = b.string.letters
    base = band_brick_direct(l3, b, 1, 1).verdict
    for r in range(1, len(letters)):
        rot = l3.try_string(letters[r:] + letters[:r])
        cand, _ = l3.is_band(rot)
        if cand is not None:
            assert band_brick_direct(l3, cand, 1, 1).verdict == base


def test_band_lambda_invariance(l3, gam):
    for ctx in (l3, gam):
        for b in ctx.enumerate_bands(6):
            verdicts = {band_brick_direct(ctx, b, 1, lam).verdict for lam in (1, 2, 5)}
            assert len(verdicts) == 1
            dims = {end_dim_band(ctx, b, 1, lam) for lam in (1, 2, 5)}
            assert len(dims) == 1


def test_witness_bound_soundness(l3, gam, corpus):
    for ctx in (l3, gam, *corpus):
        for b in ctx.enumerate_bands(8):
            w1 = band_brick_direct(ctx, b, 1, 1).witness
            w3 = direct_band_witness_3q(ctx, b.string.letters)
            assert w1 == w3


def _is_inverse_token(tok):
    return tok is not None and tok.endswith("'")


def test_witness_replays(l3, gam, corpus):
    # every reported witness re-classifies: factor boundaries are
    # (inverse before, direct after), image boundaries the mirror
    for ctx in (l3, gam, *corpus[:5]):
        for x in ctx.enumerate_strings(6):
            rep = string_brick_direct(ctx, x)
            if rep.witness is None:
                continue
            w = rep.witness
            assert w.factor.before is None or _is_inverse_token(w.factor.before)
            assert w.factor.after is None or not _is_inverse_token(w.factor.after)
            assert w.image.before is None or not _is_inverse_token(w.image.before)
            assert w.image.after is None or _is_inverse_token(w.image.after)


def test_endo_reports(l3):
    a = l3.parse_literal("b1 a1'")
    rep = string_brick_endo(l3, a)
    assert rep.verdict and rep.method == "endo" and "end_dim=1" in rep.reason
    b, _ = l3.is_band(l3.parse_literal("a2' b2"))
    rep = band_brick_endo(l3, b, 2, 1)
    assert not rep.verdict and "end_dim=2" in rep.reason


def arrow_automaton(ctx, x):
    """The automaton route of a finite string over the arrow-alphabet MIA
    M_Lambda instead of the binary one; M_Lambda is reversible, so the
    class-inversion check runs."""
    return is_brick_word(build_mia(ctx), string_to_word(ctx, x))


def test_automaton_on_arrow_alphabet_agrees(l3, gam):
    for ctx in (l3, gam):
        for x in ctx.enumerate_strings(5):
            assert arrow_automaton(ctx, x).verdict == \
                string_brick_automaton(ctx, x).verdict


def test_window_direct_matches_automaton(l3):
    rng = random.Random(13)
    blocks = {"a": lits("b1 a1'"), "b": lits("a2' b2")}
    for _ in range(20):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(4, 12)))
        letters = tuple(s for c in word for s in blocks[c])
        win = Window(letters, False, "random", left_closed=False, right_closed=False)
        d = string_brick_direct(l3, win)
        a = string_brick_automaton(l3, win)
        assert (d.witness is None) == (a.witness is None)


def test_every_string_window_matches_direct(l3, gam):
    """Every string as a window with each pair of edges: the automaton route
    raises nothing and finds the direct route's witness span.  Unlike the
    block windows above, most of these have different states at their two
    ends, so the inverse window must be pointed at the right end of w."""
    def span(rep):
        w = rep.witness
        return None if w is None else (w.factor.start, w.factor.end,
                                       w.image.start, w.image.end, w.image_host)

    for ctx in (l3, gam):
        for x in ctx.enumerate_strings(6):
            if not len(x):
                continue
            for lc in (False, True):
                for rc in (False, True):
                    win = Window(x.letters, False, "string", left_closed=lc, right_closed=rc)
                    assert span(string_brick_automaton(ctx, win)) == \
                        span(string_brick_direct(ctx, win)), (x.letters, lc, rc)


def test_string_automaton_builds_one_host_pair(l3, gam, monkeypatch):
    """The string route builds the host of w and of w^{-1} once each; the
    shift check reads that pair and builds no other."""
    import stringbricks.mia as miamod
    built = []

    class Counted(miamod._FiniteHost):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(args)

    monkeypatch.setattr(miamod, "_FiniteHost", Counted)
    for ctx in (l3, gam):
        for x in ctx.enumerate_strings(4):
            if len(x):
                built.clear()
                string_brick_automaton(ctx, x)
                assert len(built) == 2


def test_shift_spot_check_fires(l3, request):
    x = l3.parse_literal("b1 a1'")
    assert string_brick_automaton(l3, x).verdict
    assert arrow_automaton(l3, x).verdict
    request.getfixturevalue("tampered_gap_zero_classes")
    with pytest.raises(RuntimeError, match="basepoint shift"):
        string_brick_automaton(l3, x)
    with pytest.raises(RuntimeError, match="basepoint shift"):
        arrow_automaton(l3, x)


# sha256 prefix of every report below, in order, as its repr: verdicts,
# witness contents and spans, periodicity classes and scopes must all stay
# as they are
PINNED_REPORTS = (2309, "e9acb15ad573c953")


def pinned_reports(ctx):
    """The automaton and direct reports of every string of <= 6 syllables,
    of the same strings as windows with each edge open or closed on the
    arrow and the binary MIA, and every band of <= 6 syllables as a brick
    and as a weak brick word, with its direct report at l = 1."""
    m = build_mia(ctx)
    phi, md = parity_mia(ctx)
    xs = ctx.enumerate_strings(6)
    for x in xs:
        yield string_brick_automaton(ctx, x), string_brick_direct(ctx, x)
    for x in (x for x in xs if x.letters):
        for lc, rc in itertools.product((False, True), repeat=2):
            win = Window(x.letters, False, "string", lc, rc)
            w = string_to_word(ctx, win)
            for mm, ww in ((m, w), (md, transport(phi, w))):
                yield is_brick_word(mm, ww), string_brick_direct(ctx, win)
    for b in ctx.enumerate_bands(6):
        q = b.string.letters
        w = binary_word(ctx, Word(q, (), q))
        yield is_brick_word(md, w), is_weak_brick_word(md, w), band_brick_direct(ctx, b, 1)


def test_reports_are_pinned(l3, gam):
    digest, n = hashlib.sha256(), 0
    for ctx in (l3, gam):
        for reports in pinned_reports(ctx):
            digest.update(repr(reports).encode() + b"\n")
            n += 1
    assert (n, digest.hexdigest()[:16]) == PINNED_REPORTS
