import itertools
import random
import re

import pytest

from conftest import path_quiver_text, periodic_witness_3q
from stringbricks.algebra import parse_presentation
from stringbricks.construct import build_mia, parity_mia, string_to_word
from stringbricks.mia import (Mia, MiaError, PointedWord,
                              UnsupportedRepresentation, check_local_bijection,
                              check_word, equivalent, finite_word, format_mia,
                              is_brick_word, is_weak_brick_word, parse_mia,
                              relabel, shift_basepoint, transport,
                              transport_back, underlying, validate_mia)
from stringbricks.strings import Context, StringError
from stringbricks.words import Letter, Window, Word, inv_seq


def L(tok):
    return Letter(tok[:-1], True) if tok.endswith("'") else Letter(tok, False)


def lits(text):
    return tuple(L(t) for t in text.split())


# --- validation ---------------------------------------------------------------

def test_validate_constructed(l3, gam, corpus):
    for ctx in (l3, gam, *corpus):
        assert validate_mia(build_mia(ctx)) == []


def synthetic(fix=None):
    """A tiny MIA: two initial states u,u' and one plain state s."""
    b = Letter("b", False)
    m = dict(
        states=("u", "u'", "s"),
        initial=("u", "u'"),
        inv={"u": "u'", "u'": "u"},
        e={"u": "u", "u'": "u'", "s": "u"},
        alphabet=("b",),
        trans={("u", b): "s", ("s", b): "s"},
    )
    if fix:
        m.update(fix)
    return Mia(**m)


def test_validate_fixed_point_involution():
    m = synthetic(dict(inv={"u": "u", "u'": "u'"}))
    assert any(code == "1" for code, _ in validate_mia(m))


def test_validate_axiom3():
    b = Letter("b", False)
    # t(s,b) defined but e(t(s,b)) disagrees with e(t(e(s),b))
    m = synthetic(dict(states=("u", "u'", "s", "r"),
                       e={"u": "u", "u'": "u'", "s": "u", "r": "u'"},
                       trans={("u", b): "s", ("s", b): "r"}))
    assert any(code == "3" for code, _ in validate_mia(m))


def test_validate_axiom3_undefined_at_e():
    b = Letter("b", False)
    m = synthetic(dict(e={"u": "u", "u'": "u'", "s": "u'"},
                       trans={("u", b): "s", ("s", b): "s"}))
    # t(s,b) defined but t(e(s),b) = t(u',b) undefined
    assert any(code == "3" for code, _ in validate_mia(m))


# --- runs ----------------------------------------------------------------------

def test_run_empty_word(gam):
    m = build_mia(gam)
    for v in m.initial:
        assert m.run(v, []) == v


def test_run_gamma_example(gam):
    m = build_mia(gam)
    assert m.run("1(v3,+1)", lits("a3 b")) == "a3.b"
    assert m.run("1(v3,+1)", lits("a3 b c1")) is None


def test_run_composition(gam):
    m = build_mia(gam)
    rng = random.Random(0)
    letters = m.letters()
    found = 0
    while found < 200:
        v = rng.choice(m.states)
        u = [rng.choice(letters) for _ in range(rng.randint(0, 3))]
        w = [rng.choice(letters) for _ in range(rng.randint(0, 3))]
        if m.run(v, u + w) is not None:
            found += 1
            assert m.run(v, u + w) == m.run(m.run(v, u), w)


def test_axiom3_lifts_to_words(gam):
    m = build_mia(gam)
    rng = random.Random(1)
    letters = m.letters()
    checked = 0
    while checked < 300:
        v = rng.choice(m.states)
        w = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
        got = m.run(v, w)
        if got is None:
            continue
        checked += 1
        via_e = m.run(m.e[v], w)
        assert via_e is not None
        assert m.e[got] == m.e[via_e]


# --- equivalence ----------------------------------------------------------------

def test_equivalent_example(l3):
    m = build_mia(l3)
    a = lits("b1 a1'")
    w1 = finite_word((), "1(v2,+1)", a)
    w2 = finite_word(a, "1(v2,+1)", ())
    assert equivalent(m, w1, w2)
    assert equivalent(m, w1, w1)


def test_equivalent_different_words(l3):
    m = build_mia(l3)
    w1 = finite_word((), "1(v2,+1)", lits("b1 a1'"))
    w2 = finite_word((), "1(v2,+1)", lits("b1"))
    assert not equivalent(m, w1, w2)


def test_equivalent_periodic(l3):
    m = build_mia(l3)
    q = lits("a2' b2")
    w1 = string_to_word(l3, Word(q, (), q))
    w2 = string_to_word(l3, Word(q, (), q))
    assert equivalent(m, w1, w2)


def test_basepoint_must_be_initial(l3):
    m = build_mia(l3)
    w = finite_word((), "b1", lits("a1'"))
    with pytest.raises(MiaError):
        check_word(m, w)


def test_invalid_word_rejected(l3):
    m = build_mia(l3)
    # 1(v2,-1) cannot read b1 (sign mismatch)
    w = finite_word((), "1(v2,-1)", lits("b1"))
    with pytest.raises(MiaError):
        check_word(m, w)


def test_underlying_keeps_or_rejects_a_window_left_part():
    win = Window(lits("a1'"), False, "sample")
    assert underlying(PointedWord(Word(), "1(v2,+1)", win)) == win
    with pytest.raises(UnsupportedRepresentation):
        underlying(PointedWord(Word(core=lits("b1")), "1(v2,+1)", win))


# --- brick words -----------------------------------------------------------------

def test_brick_word_a(l3):
    m = build_mia(l3)
    rep = is_brick_word(m, string_to_word(l3, l3.parse_literal("b1 a1'")))
    assert rep.verdict and rep.witness is None


def test_brick_word_ab_witness(l3):
    m = build_mia(l3)
    rep = is_brick_word(m, string_to_word(l3, l3.parse_literal("b1 a1' a2' b2")))
    assert not rep.verdict
    w = rep.witness
    assert w is not None
    assert w.content == "<1(v2,+1)>"
    assert (w.factor.start, w.factor.end) == (0, 0)
    assert (w.image.start, w.image.end) == (4, 4)


def test_brick_word_periodic(l3):
    m = build_mia(l3)
    q = lits("a2' b2")
    w = string_to_word(l3, Word(q, (), q))
    assert not is_brick_word(m, w).verdict            # periodic
    assert is_brick_word(m, w).periodicity == "periodic"
    assert is_weak_brick_word(m, w).verdict           # no finite witness
    assert periodic_witness_3q(m, w) is None          # sound at 3x the bound


def test_periodic_words_are_validated_before_the_verdict(l3):
    """A periodic word never is a brick word, but the verdict is given only
    for a valid word: a purely periodic one is checked on its host, one with
    a core (no host) by its basepoint, so an invalid word raises MiaError
    from is_brick_word as it does from check_word."""
    phi, md = parity_mia(l3)
    q = lits("a2' b2")
    band = transport(phi, string_to_word(l3, Word(q, (), q)))
    xs = sorted({x.letters for x in l3.enumerate_strings(3)})

    def first_ray(make):
        """The first valid word make(x, q) whose underlying word has a core."""
        for b in l3.enumerate_bands(6):
            for x in xs:
                try:
                    w = string_to_word(l3, make(x, b.string.letters))
                except StringError:
                    continue
                if underlying(w).core:
                    return w

    rays = [first_ray(lambda x, q: Word((), x, q)), first_ray(lambda x, q: Word(q, x))]
    cases = [(md, band)] + [(mm, w) for w in rays
                            for mm, w in ((build_mia(l3), w), (md, transport(phi, w)))]
    raised = valid = 0
    for mm, w in cases:
        for base in (*mm.states, "nope"):
            pw = PointedWord(w.left, base, w.right)
            try:
                check_word(mm, pw)
            except UnsupportedRepresentation:
                pass  # a word with a core has no host, after its basepoint check
            except MiaError:
                for f in (is_brick_word, is_weak_brick_word):
                    with pytest.raises(MiaError):
                        f(mm, pw)
                raised += 1
                continue
            report = is_brick_word(mm, pw)
            assert not report.verdict and report.periodicity != "finite"
            valid += 1
    assert raised > len(cases) and valid >= len(cases)


def test_brick_and_weak_brick_word_by_kind(l3):
    """The two notions on every kind of word: they differ only in the
    aperiodicity requirement, on uncertified windows and periodic words."""
    m = build_mia(l3)
    phi, md = parity_mia(l3)
    blocks = {"a": "b1 a1'", "b": "a2' b2"}
    fib = tuple(l for c in "abaab" for l in lits(blocks[c]))

    def both(w):
        reports = [is_brick_word(m, w), is_weak_brick_word(m, w)]
        wd = transport(phi, w)
        reports_d = [is_brick_word(md, wd), is_weak_brick_word(md, wd)]
        assert [(r.verdict, r.periodicity) for r in reports] == \
               [(r.verdict, r.periodicity) for r in reports_d]
        return reports

    def window(certified, closed):
        return string_to_word(l3, Window(fib, certified, "fib", left_closed=closed,
                                         right_closed=closed))

    # an uncertified window without a witness: only the aperiodicity fails
    brick, weak = both(window(False, False))
    assert not brick.verdict and brick.periodicity == "unknown-window"
    assert weak.verdict and brick.witness is None and weak.witness is None
    # a refuted window: both false on the same witness
    brick, weak = both(window(False, True))
    assert not brick.verdict and not weak.verdict
    assert brick.witness is not None and brick.witness == weak.witness
    # a certified window without a witness: both hold
    brick, weak = both(window(True, False))
    assert brick.verdict and weak.verdict
    assert brick.periodicity == weak.periodicity == "aperiodic-certified"
    # finite words: the notions coincide, witness included
    for text in ("b1 a1'", "b1 a1' a2' b2"):
        brick, weak = both(string_to_word(l3, l3.parse_literal(text)))
        assert brick == weak and brick.periodicity == "finite"
    # a periodic band word: never a brick word, a weak one at either bound
    q = lits("a2' b2")
    w = string_to_word(l3, Word(q, (), q))
    brick, weak1 = both(w)
    assert not brick.verdict and brick.periodicity == "periodic"
    assert weak1.verdict and periodic_witness_3q(m, w) is None
    assert periodic_witness_3q(md, transport(phi, w)) is None


def test_brick_implies_weak_and_finite_coincide(l3, gam):
    for ctx in (l3, gam):
        m = build_mia(ctx)
        for x in ctx.enumerate_strings(5):
            w = string_to_word(ctx, x)
            b = is_brick_word(m, w).verdict
            wk = is_weak_brick_word(m, w).verdict
            assert b == wk  # finite words: the notions coincide


def test_brick_invariant_under_shifts(l3, gam):
    rng = random.Random(5)
    words = []
    for ctx in (l3, gam):
        m = build_mia(ctx)
        xs = [x for x in ctx.enumerate_strings(6) if len(x) >= 1]
        for x in rng.sample(xs, min(50, len(xs))):
            words.append((m, string_to_word(ctx, x)))
    shifts = 0
    for m, w in words:
        rep = is_brick_word(m, w).verdict
        n = len(w.left.core) + len(w.right.core)
        for _ in range(3):
            g = rng.randint(0, n)
            shifted = shift_basepoint(m, w, g - len(w.left.core))
            assert equivalent(m, shifted, w)
            assert is_brick_word(m, shifted).verdict == rep
            shifts += 1
    assert shifts >= 100


# --- local bijections and transport ------------------------------------------------

def test_parity_is_local_bijection(l3, gam, corpus):
    for ctx in (l3, gam, *corpus[:5]):
        m = build_mia(ctx)
        phi = {a: "0" for a in ctx.amap}
        assert check_local_bijection(m, phi)


def test_identity_is_local_bijection(gam):
    m = build_mia(gam)
    assert check_local_bijection(m, {a: a for a in m.alphabet})


def test_constant_map_can_fail():
    b, c = Letter("b", False), Letter("c", False)
    m = Mia(states=("u", "u'", "s", "t"),
            initial=("u", "u'"),
            inv={"u": "u'", "u'": "u"},
            e={"u": "u", "u'": "u'", "s": "u", "t": "u"},
            alphabet=("b", "c"),
            trans={("u", b): "s", ("u", c): "t",
                   ("u'", b): "s", ("u'", c): "t"})
    assert validate_mia(m) == []
    assert not check_local_bijection(m, {"b": "0", "c": "0"})
    with pytest.raises(MiaError):
        check_local_bijection(m, {"b": "0"})


def reference_local_bijection(m, phi):
    """The definition, state by state: no two defined letters at a state
    share an image."""
    for x in m.states:
        seen = {}
        for l in m.letters():
            if m.step(x, l) is None:
                continue
            img = Letter(phi[l.sym], l.inv)
            if img in seen and seen[img] != l:
                return False
            seen[img] = l
    return True


def test_local_bijection_matches_reference_on_random_mias():
    rng = random.Random(11)
    outcomes = []
    for _ in range(400):
        states = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
        alphabet = tuple(sorted(rng.sample("abcd", rng.randint(1, 4))))
        # letters outside the alphabet (x) are ignored by both
        letters = [Letter(a, inv) for a in alphabet + ("x",) for inv in (False, True)]
        trans = {(rng.choice(states), rng.choice(letters)): rng.choice(states)
                 for _ in range(rng.randint(0, 16))}
        m = Mia(states, (), {}, {}, alphabet, trans)
        phi = {a: rng.choice("01") for a in alphabet}
        got = check_local_bijection(m, phi)
        assert got == reference_local_bijection(m, phi), (trans, phi)
        outcomes.append(got)
    assert outcomes.count(True) > 100 and outcomes.count(False) > 100


def test_relabel_gamma_fig4(gam):
    m = build_mia(gam)
    _, md = parity_mia(gam)
    assert len(md.states) == 28 and len(md.trans) == 32
    zero, one = Letter("0", False), Letter("0", True)
    assert md.step("a3.b", one) == "c3'"       # ba3 --1--> C3
    assert md.step("a3", zero) == "a3.b"
    assert md.step("1(v3,+1)", zero) == "a3"
    assert md.step("b", zero) == "c1"
    assert md.step("b", one) == "c3'"
    assert md.step("c1", one) == "c2'"
    # the relabeled automaton keeps states, initials, involution and e
    assert md.states == m.states and md.initial == m.initial


def test_transport_example(l3):
    m = build_mia(l3)
    phi, md = parity_mia(l3)
    w = finite_word((), "1(v2,+1)", lits("b1 a1'"))
    wd = transport(phi, w)
    assert wd.right.core == lits("0 0'")
    assert wd.base == "1(v2,+1)"
    assert transport_back(m, phi, wd) == w


def test_transport_roundtrip_corpus(l3, gam):
    for ctx in (l3, gam):
        m = build_mia(ctx)
        phi, _ = parity_mia(ctx)
        for x in ctx.enumerate_strings(6):
            w = string_to_word(ctx, x)
            assert transport_back(m, phi, transport(phi, w)) == w
    # the full string of a 300-arrow path quiver: each step back is one
    # lookup, not a scan of the alphabet
    n = 300
    ctx = Context(parse_presentation(path_quiver_text(n)))
    w = string_to_word(ctx, ctx.parse_literal(" ".join(f"a{i}" for i in range(n))))
    m, phi = build_mia(ctx), parity_mia(ctx)[0]
    assert len(underlying(w).core) == n
    assert transport_back(m, phi, transport(phi, w)) == w


def test_transport_periodic_roundtrip(l3):
    m = build_mia(l3)
    phi, _ = parity_mia(l3)
    q = lits("a2' b2")
    w = string_to_word(l3, Word(q, (), q))
    assert transport_back(m, phi, transport(phi, w)) == w


def test_transport_eventually_periodic_roundtrip(l3, gam):
    # one walk back serves both parts: words eventually periodic on the
    # right, on the left and on both sides
    checked = 0
    for ctx in (l3, gam):
        m = build_mia(ctx)
        phi, _ = parity_mia(ctx)
        xs = sorted({x.letters for x in ctx.enumerate_strings(3)})
        for b in ctx.enumerate_bands(6):
            q = b.string.letters
            for rep in (r for x in xs for r in (Word((), x, q), Word(q, x), Word(q, x, q))):
                try:
                    w = string_to_word(ctx, rep)
                except StringError:
                    continue
                assert transport_back(m, phi, transport(phi, w)) == w
                checked += 1
    assert checked == 77


# --- text format ---------------------------------------------------------------

def test_mia_format_roundtrip(l3, gam):
    for ctx in (l3, gam):
        for m in (build_mia(ctx), parity_mia(ctx)[1]):
            m2 = parse_mia(format_mia(m))
            assert m2.states == m.states
            assert m2.initial == m.initial
            assert m2.inv == dict(m.inv)
            assert m2.e == dict(m.e)
            assert m2.trans == dict(m.trans)
            assert m2.alphabet == m.alphabet


def test_parse_mia_binary_sugar():
    text = """\
state u initial inv=u' e=u
state u' initial inv=u e=u'
state s e=u
trans u 0 s
trans s 1 s
"""
    m = parse_mia(text)
    assert m.alphabet == ("0",)
    assert m.step("s", Letter("0", True)) == "s"


def test_parse_mia_rejects_duplicate_state(l3):
    text = format_mia(parity_mia(l3)[1])
    line = next(x for x in text.splitlines() if " initial " in x)
    lineno = len(text.splitlines()) + 1
    message = f"line {lineno}: duplicate state {line.split()[1]}"
    with pytest.raises(MiaError, match=re.escape(message)):
        parse_mia(text + line + "\n")
    with pytest.raises(MiaError, match="duplicate state"):
        parse_mia(text.replace(line, line.replace("initial", "")) + line + "\n")


def test_validate_duplicate_states():
    m = synthetic(dict(states=("u", "u'", "s", "u"), initial=("u", "u'", "u")))
    assert ("0", "duplicate state u") in validate_mia(m)
    assert ("0", "duplicate initial state u") in validate_mia(m)


def test_pointed_word_inverse(l3):
    m = build_mia(l3)
    w = string_to_word(l3, l3.parse_literal("b1 a1' a2' b2"))
    wi = w.inverse(m)
    check_word(m, wi)
    assert wi.inverse(m) == w
    assert wi.left.core == inv_seq(w.right.core) == ()
    assert wi.base == m.inv[w.base]


def test_window_inverse_is_a_window_word(l3, gam):
    """The inverse of a window word is a window word pointed at its left
    edge: valid, and inverting back, for every string of 1-6 syllables as a
    window with each edge open or closed, on the arrow and the binary MIA;
    a window whose run is undefined has no inverse."""
    checked = 0
    for ctx in (l3, gam):
        m = build_mia(ctx)
        phi, md = parity_mia(ctx)
        for x in ctx.enumerate_strings(6):
            if not x.letters:
                continue
            for lc, rc in itertools.product((False, True), repeat=2):
                w = string_to_word(ctx, Window(x.letters, False, "string", lc, rc))
                for mm, ww in ((m, w), (md, transport(phi, w))):
                    wi = ww.inverse(mm)
                    check_word(mm, wi)
                    assert wi.left == Word() and wi.inverse(mm) == ww
                    checked += 1
    assert checked == 2032
    m = build_mia(l3)
    w = string_to_word(l3, Window(lits("b1 a1'"), False, "string"))
    bad = PointedWord(Word(), w.base, Window(lits("b1 a1' a1"), False, "backtrack"))
    with pytest.raises(MiaError, match="window run undefined"):
        bad.inverse(m)
    # a window word's basepoint is an initial state, as any pointed word's
    for base in ("a1'", "b2"):
        with pytest.raises(MiaError, match="not an initial state"):
            check_word(m, PointedWord(Word(), base, w.right))


def test_equivalent_periodic_rotation(l3):
    m = build_mia(l3)
    q = lits("a2' b2")
    rot = lits("b2 a2'")
    w1 = string_to_word(l3, Word(q, (), q))
    w2 = string_to_word(l3, Word(rot, (), rot))
    # same doubly infinite word, seams one letter apart
    assert equivalent(m, w1, w2)
    assert equivalent(m, w2, w1)


def test_equivalent_periodic_different_words(l3):
    m = build_mia(l3)
    q = lits("a2' b2")
    other = lits("a1' b1")
    w1 = string_to_word(l3, Word(q, (), q))
    w2 = string_to_word(l3, Word(other, (), other))
    assert not equivalent(m, w1, w2)


def test_equivalent_mixed_shapes(l3):
    m = build_mia(l3)
    q = lits("a2' b2")
    wfin = string_to_word(l3, l3.parse_literal("a2' b2"))
    wper = string_to_word(l3, Word(q, (), q))
    assert not equivalent(m, wfin, wper)
    assert not equivalent(m, wper, wfin)
    # a window is a view of a word that goes on, which does not decide it
    wwin = string_to_word(l3, Window(q, False, "sample"))
    for pair in ((wfin, wwin), (wwin, wper), (wwin, wwin)):
        with pytest.raises(UnsupportedRepresentation):
            equivalent(m, *pair)
