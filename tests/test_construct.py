import hashlib

import pytest

from conftest import CORPUS_SEED, concat, corpus_algebras, path_quiver_text
from stringbricks.algebra import parse_presentation, validate_string_algebra
from stringbricks.construct import (binary_word, build_mia, parity_mia,
                                    parse_zero_label, state_label,
                                    string_to_word, to_dot, word_to_string,
                                    zero_label)
from stringbricks.mia import Mia, equivalent, parse_mia, relabel, validate_mia
from stringbricks.presets import lambda_n
from stringbricks.strings import Context, Str, StringError
from stringbricks.words import (Letter, Window, Word, inv_seq, unfold_left,
                                unfold_right)
from test_strings import reference_continuations, reference_make_string


def L(tok):
    return Letter(tok[:-1], True) if tok.endswith("'") else Letter(tok, False)


def lits(text):
    return tuple(L(t) for t in text.split())


def state_strings(ctx: Context) -> dict:
    """Label -> the string each automaton state stands for, read back from
    the label."""
    out = {}
    for lab in build_mia(ctx).states:
        zero = parse_zero_label(lab)
        out[lab] = ctx.zero(*zero) if zero else ctx.make_string(lits(lab.replace(".", " ")))
        assert state_label(out[lab]) == lab
    return out


def test_gamma_fig3(gam):
    m = build_mia(gam)
    assert len(m.states) == 28
    assert len(m.initial) == 12
    assert len(m.trans) == 32
    assert "a3.b" in m.states and "c1'.b'" in m.states
    # spot transitions straight off the published diagram
    assert m.step("a3", L("b")) == "a3.b"
    assert m.step("a3.b", L("c1")) is None
    assert m.step("b", L("c1")) == "c1"
    assert m.step("b", L("c3'")) == "c3'"
    assert m.step("a3.b", L("c3'")) == "c3'"
    assert m.step("1(v3,+1)", L("a3")) == "a3"
    assert m.step("c3'", L("c2")) == "c2"
    assert m.step("1(v6,-1)", L("c2")) == "c2"
    assert m.step("c2", L("c1'")) == "c1'"
    assert m.step("c1'", L("b'")) == "c1'.b'"
    assert m.step("c1'.b'", L("a1")) == "a1"
    assert m.step("b'", L("a3'")) == "a3'"


def test_lambda3_states(l3):
    m = build_mia(l3)
    assert len(m.states) == 14
    assert len(m.initial) == 6


def test_initial_states_are_sources(l3, gam, corpus):
    for ctx in (l3, gam, *corpus):
        m = build_mia(ctx)
        targets = set(m.trans.values())
        assert targets.isdisjoint(set(m.initial))


def test_gentle_state_count(l3, corpus):
    for ctx in (l3, *corpus):
        rep = validate_string_algebra(ctx.presentation)
        if not rep.is_gentle:
            continue
        m = build_mia(ctx)
        assert len(m.states) == 2 * len(ctx.presentation.vertices) + \
            2 * len(ctx.presentation.arrows)


def test_transition_iff_extension_is_string(l3, gam, corpus):
    # t(x, b) defined <=> xb is a string, checked against concatenation
    for ctx in (l3, gam, *corpus[:5]):
        m = build_mia(ctx)
        strs = state_strings(ctx)
        for lab, x in strs.items():
            for b in ctx.syllables():
                via_concat = True
                try:
                    one = ctx.make_string((b,))
                    concat(ctx, x, one)
                except StringError:
                    via_concat = False
                assert (m.step(lab, b) is not None) == via_concat


def test_zero_state_rows_match_sign_filter(l3, gam, l6, corpus):
    """A zero state 1_(v,i) reads exactly the syllables b with s(b) = v and
    sigma(b) = -i, in syllable order."""
    for ctx in (l3, gam, l6, *corpus):
        m = build_mia(ctx)
        for lab in m.initial:
            v, i = parse_zero_label(lab)
            assert [b for (x, b) in m.trans if x == lab] == [
                b for b in ctx.syllables() if ctx.letter_src(b) == v and ctx.sig(b) == -i]


def test_transition_lands_on_maximal_right_substring(gam):
    m = build_mia(gam)
    strs = state_strings(gam)
    state_keys = {x.letters for x in strs.values() if not x.is_zero()}
    for (lab, b), ylab in m.trans.items():
        x = strs[lab]
        joined = (x.letters + (b,)) if not x.is_zero() else (b,)
        # the landed state is the longest suffix of the join that is a state
        best = next(joined[k:] for k in range(len(joined)) if joined[k:] in state_keys)
        assert strs[ylab].letters == best


def test_parity_outdegree(l3, gam, corpus):
    for ctx in (l3, gam, *corpus):
        m = build_mia(ctx)
        for x in m.states:
            direct = [l for l in m.letters() if not l.inv and m.step(x, l)]
            inverse = [l for l in m.letters() if l.inv and m.step(x, l)]
            assert len(direct) <= 1 and len(inverse) <= 1


def test_parity_lambda3(l3):
    _, md = parity_mia(l3)
    assert len(md.states) == 14
    # from state a1 the inverse letter leads to B1 (a1 a1' backtracks)
    assert md.step("a1", Letter("0", True)) == "b1'"


def test_parity_mia_validates(l3, gam, corpus):
    for ctx in (l3, gam, *corpus):
        _, md = parity_mia(ctx)
        assert validate_mia(md) == []


def test_empty_arrow_set_rejected():
    from stringbricks.algebra import parse_presentation
    ctx = Context(parse_presentation("vertex v\n"))
    with pytest.raises(StringError):
        parity_mia(ctx)


def test_string_word_roundtrip(l3, gam):
    for ctx in (l3, gam):
        for x in ctx.enumerate_strings(6):
            assert word_to_string(ctx, string_to_word(ctx, x)) == x


def test_zero_string_word(l3):
    w = string_to_word(l3, l3.zero("v1", 1))
    assert w.left == Word() and w.right == Word()
    assert w.base == zero_label("v1", 1)


def test_two_representatives_same_string(l3):
    m = build_mia(l3)
    x = l3.parse_literal("b1 a1'")
    from stringbricks.mia import finite_word
    w1 = finite_word((), "1(v2,+1)", x.letters)
    w2 = finite_word(x.letters, "1(v2,+1)", ())
    assert equivalent(m, w1, w2)
    assert word_to_string(l3, w1) == word_to_string(l3, w2) == x


def test_infinite_roundtrips(l3, gam, corpus):
    # each word reads back as its string, and its basepoint is the
    # zero-length string that concatenates with the letters on both sides
    # of its gap
    fitted = 0
    for ctx in (l3, gam, *corpus[:5]):
        xs = {x.letters for x in ctx.enumerate_strings(3)}
        for b in ctx.enumerate_bands(6):
            q = b.string.letters
            for x in sorted(xs):
                for rep in (Word((), x, q), Word(q, x), Word(q, x, q)):
                    try:
                        w = string_to_word(ctx, rep)
                    except StringError:
                        continue
                    assert word_to_string(ctx, w) == rep
                    zero = ctx.zero(*parse_zero_label(w.base))
                    if w.left != Word():
                        concat(ctx, ctx.make_string(unfold_left(w.left, 1)), zero)
                    if w.right != Word():
                        concat(ctx, zero, ctx.make_string(unfold_right(w.right, 1)))
                    fitted += 1
    assert fitted > 100


def test_binary_word_example(l3):
    w = binary_word(l3, l3.parse_literal("b1 a1'"))
    assert w.left.core == lits("0 0'")
    assert w.base == "1(v2,+1)"


def test_dot_export(gam):
    m = build_mia(gam)
    dot = to_dot(m)
    assert dot.startswith("digraph")
    assert dot.count("doublecircle") == 12
    assert '"a3" -> "a3.b" [label="b"];' in dot
    _, md = parity_mia(gam)
    dotd = to_dot(md)
    assert '[label="1"];' in dotd and '[label="0"];' in dotd


# sha256 prefixes of the format_mia and to_dot texts of the arrow and binary
# MIAs; both exports must stay byte for byte as they are
PINNED_EXPORTS = {
    ("l3", "arrow", "format_mia"): "5f0168d30cc938c7",
    ("l3", "arrow", "to_dot"): "07ff99222d6abec8",
    ("l3", "binary", "format_mia"): "41ca5c7c167a1d48",
    ("l3", "binary", "to_dot"): "38d879ea6e4876d6",
    ("gam", "arrow", "format_mia"): "c5650341478fbfb5",
    ("gam", "arrow", "to_dot"): "2f7bc8b44730b9d4",
    ("gam", "binary", "format_mia"): "ee057bdfae10333b",
    ("gam", "binary", "to_dot"): "45fc37fe919c8e23",
}


def test_exports_are_pinned(l3, gam):
    from stringbricks.mia import format_mia
    for name, ctx in (("l3", l3), ("gam", gam)):
        for kind, m in (("arrow", build_mia(ctx)), ("binary", parity_mia(ctx)[1])):
            for export in (format_mia, to_dot):
                digest = hashlib.sha256(export(m).encode()).hexdigest()[:16]
                assert digest == PINNED_EXPORTS[name, kind, export.__name__]


def reference_build_mia(ctx: Context) -> Mia:
    """M_Lambda built through Str values: every state validated by the
    per-index reference, sorted by Str.key and labelled, and its
    transitions found by the brute continuation rule."""
    p = ctx.presentation

    state_strs = [ctx.zero(v, i) for v in p.vertices for i in (1, -1)]
    state_strs += (reference_make_string(ctx, (l,)) for l in ctx.syllables())
    for r in p.relations:
        word = tuple(Letter(a, False) for a in r)
        for x in (word, inv_seq(word)):
            for k in range(2, len(x)):
                state_strs.append(reference_make_string(ctx, x[:k]))
    state_strs = sorted({s.key(): s for s in state_strs}.values(), key=Str.key)

    labels = {s.key(): state_label(s) for s in state_strs}
    nonzero_keys = {s.letters: labels[s.key()] for s in state_strs if s.letters}

    def max_right_state(letters: tuple[Letter, ...]) -> str:
        for k in range(len(letters)):
            lab = nonzero_keys.get(letters[k:])
            if lab is not None:
                return lab
        raise AssertionError("single syllables are always states")

    trans: dict[tuple[str, Letter], str] = {}
    for s in state_strs:
        lab = labels[s.key()]
        nxt = (reference_continuations(ctx, s.letters) if s.letters
               else ctx.leaving.get((s.dst, s.eps), ()))
        for b in nxt:
            trans[(lab, b)] = max_right_state(s.letters + (b,))

    e = {labels[s.key()]: zero_label(s.dst, s.eps) for s in state_strs}
    initial = [labels[s.key()] for s in state_strs if not s.letters]
    inv = {labels[s.key()]: state_label(s.inverse()) for s in state_strs if not s.letters}
    return Mia(
        states=tuple(labels[s.key()] for s in state_strs),
        initial=tuple(initial),
        inv=inv,
        e=e,
        alphabet=tuple(sorted(ctx.amap)),
        trans=trans,
    )


def reference_relabel(m: Mia, phi) -> Mia:
    """The relabelled MIA built letter by letter, two Letters per transition."""
    trans = {(x, Letter(phi[l.sym], l.inv)): y for (x, l), y in m.trans.items()}
    return Mia(m.states, m.initial, m.inv, m.e, tuple(sorted(set(phi.values()))), trans)


def test_build_mia_matches_reference(gam, long_rels, corpus):
    """The automaton built from the forbidden words by suffix lookup, and its
    parity relabelling, equal the Str-based reference field for field, in
    the same state, transition and e order, on Lambda_2-Lambda_8, Gamma,
    the corpus, 30 further seeded string algebras, and path quivers and an
    algebra with relations of length 3 and 4."""
    paths = [path_quiver_text(n) + "".join(
        f"relation {' '.join(f'a{j}' for j in range(i, i + k))}\n" for i, k in rels)
        for n, rels in ((7, ((0, 3), (3, 4))),
                        (60, ((0, 2), (5, 3), (12, 4), (29, 3), (30, 2), (47, 4))),
                        (700, tuple((i + d, k) for i in range(0, 693, 7)
                                    for d, k in ((0, 3), (3, 4)))))]
    ctxs = [Context(lambda_n(k)) for k in range(2, 9)] + [gam, long_rels, *corpus]
    ctxs += corpus_algebras(30, seed=CORPUS_SEED + 2)
    ctxs += [Context(parse_presentation(text)) for text in paths]
    for ctx in ctxs:
        ref = reference_build_mia(ctx)
        m = build_mia(ctx)
        assert m == ref, ctx.presentation
        assert (list(m.trans), list(m.e)) == (list(ref.trans), list(ref.e))
        phi, md = parity_mia(ctx)
        assert md == relabel(ref, phi) == reference_relabel(ref, phi), ctx.presentation
        assert list(md.trans) == list(reference_relabel(ref, phi).trans)
    assert max(ctx.maxrel for ctx in ctxs) == 4


def test_word_to_string_rejects(l3):
    from stringbricks.mia import PointedWord, finite_word
    with pytest.raises(StringError, match="not a zero-length state"):
        word_to_string(l3, finite_word((), "b1", ()))
    win = Window(lits("b1 a1' a2' b2"), False, "sample")
    with pytest.raises(StringError):
        word_to_string(l3, PointedWord(Word(core=lits("a1")), "1(v1,-1)", win))
    with pytest.raises(StringError):
        word_to_string(l3, finite_word(lits("b1 b1"), "1(v2,+1)", ()))


def test_mia_text_export_parses(gam):
    from stringbricks.mia import format_mia
    m = build_mia(gam)
    m2 = parse_mia(format_mia(m))
    assert m2.trans == dict(m.trans)


def test_window_word_roundtrip(l3):
    from stringbricks.mia import check_word, transport, transport_back
    win = Window(lits("b1 a1' a2' b2 b1 a1'"), False, "sample",
                 left_closed=True, right_closed=False)
    w = string_to_word(l3, win)
    m = build_mia(l3)
    check_word(m, w)
    assert word_to_string(l3, w) == win
    phi, md = parity_mia(l3)
    wd = transport(phi, w)
    assert isinstance(wd.right, Window)
    assert transport_back(m, phi, wd) == w


def test_word_shapes_are_checked_on_data(l3):
    """A left part with a right period, a right part with a left period, a
    window after a non-empty left part and a window on the left are no
    pointed words; a finite word is no infinite string, and a window with a
    backtrack is no string."""
    from stringbricks.bricks import string_brick_direct
    from stringbricks.mia import (PointedWord, UnsupportedRepresentation,
                                  check_word, is_brick_word, transport_back,
                                  underlying)
    m = build_mia(l3)
    phi = parity_mia(l3)[0]
    q = lits("a2' b2")
    shapes = [PointedWord(Word((), (), q), "1(v2,+1)", Word()),
              PointedWord(Word(), "1(v2,+1)", Word(q)),
              PointedWord(Word(core=lits("b1")), "1(v2,+1)",
                          Window(lits("a1'"), False, "sample")),
              # the binary window word of b1 a1', inverted without re-pointing
              PointedWord(Window(lits("0 0'"), False, "sample"), "1(v2,-1)", Word())]
    for w in shapes:
        for check in (underlying, lambda w: check_word(m, w),
                      lambda w: is_brick_word(m, w),
                      lambda w: transport_back(m, phi, w)):
            with pytest.raises(UnsupportedRepresentation):
                check(w)
    for x in (Word(core=q), Word(), Window(lits("b1 b1'"), False, "backtrack")):
        for check in (lambda x: string_to_word(l3, x),
                      lambda x: string_brick_direct(l3, x), l3.validate_inf_str):
            with pytest.raises(StringError):
                check(x)
