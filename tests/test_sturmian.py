import itertools
import random
import sys

import pytest

import stringbricks.construct as construct
from conftest import sturmian_pair_scan
from stringbricks.bricks import string_brick_automaton
from stringbricks.strings import CapExceeded, Context
from stringbricks.sturmian import (BI_INFINITE, BRIDGE_CAP, PREFIX_CAP,
                                   RIGHT_INFINITE, DirectiveSequence,
                                   SturmianError,
                                   SturmianViolation, _BLOCKS, bridge,
                                   characteristic_prefix, lambda3_context,
                                   sturmian_window_check)
from stringbricks.words import Letter, Window, complexity_profile

A = Letter("a", False)
B = Letter("b", False)


def word_of(w):
    return "".join(l.sym for l in w.letters)


def test_directive_parse_format():
    d = DirectiveSequence.parse("1,(1)")
    assert d.head == (1,) and d.period == (1,)
    assert str(d) == "1,(1)"
    d2 = DirectiveSequence.parse("0,2,(1,2)")
    assert d2.head == (0, 2) and d2.period == (1, 2)
    assert DirectiveSequence.parse("3").period == ()


def test_directive_validation():
    with pytest.raises(SturmianError):
        DirectiveSequence((1, 0), ())
    with pytest.raises(SturmianError):
        DirectiveSequence((), ())
    with pytest.raises(SturmianError):
        DirectiveSequence.parse("1,(1")


def test_fibonacci_prefix():
    d = DirectiveSequence.parse("1,(1)")
    assert word_of(characteristic_prefix(d, 13)) == "abaababaabaab"
    assert characteristic_prefix(d, 13).certified_aperiodic


def test_single_step_prefix():
    d = DirectiveSequence.parse("1")
    w = characteristic_prefix(d, 2)
    assert word_of(w) == "ab"
    assert not w.certified_aperiodic


def test_finite_directive_runs_out():
    with pytest.raises(SturmianError):
        characteristic_prefix(DirectiveSequence.parse("1"), 50)


def test_prefix_property():
    d = DirectiveSequence.parse("2,(1,3)")
    long = word_of(characteristic_prefix(d, 144))
    for m in (1, 5, 21, 89):
        assert word_of(characteristic_prefix(d, m)) == long[:m]


def test_window_check_fibonacci():
    d = DirectiveSequence.parse("1,(1)")
    assert sturmian_window_check(characteristic_prefix(d, 500)) is None


def test_long_characteristic_windows_are_clean():
    for text in ("1,(1)", "0,2,(1,3)"):
        w = characteristic_prefix(DirectiveSequence.parse(text), 10 ** 4)
        assert sturmian_window_check(w) is None


def test_flipped_fibonacci_violation_matches_pair_scan():
    """One flipped letter in a long balanced window: the violation is the
    pair scan's, infix and both positions."""
    u = list(characteristic_prefix(DirectiveSequence.parse("1,(1)"), 2000).letters)
    for f in (3, 1000, 1997):
        flipped = tuple(u[:f] + [A if u[f] == B else B] + u[f + 1:])
        hit = sturmian_pair_scan(flipped)
        v = sturmian_window_check(Window(flipped, False, "flipped"))
        assert v == SturmianViolation(flipped[hit.of:hit.of + hit.L], hit.of - 1, hit.oi - 1)


def test_window_check_rejects_other_letters():
    for other in (Letter("c", False), Letter("a", True)):
        with pytest.raises(SturmianError):
            sturmian_window_check(Window((A, B, other, A), False, "other"))


def test_window_check_aabb():
    w = Window((A, A, B, B, A), False, "bad")
    v = sturmian_window_check(w)
    assert v is not None
    assert v.infix == ()  # both aa and bb occur: the empty infix violates


def test_window_check_periodic_ok():
    w = Window((A, B) * 30, False, "periodic")
    assert sturmian_window_check(w) is None  # criterion holds; aperiodicity is separate


def test_balance_of_generated_prefixes():
    d = DirectiveSequence.parse("1,(2,1)")
    w = characteristic_prefix(d, 400)
    letters = word_of(w)
    for k in (1, 3, 7, 15, 30):
        counts = {letters[i:i + k].count("a") for i in range(len(letters) - k + 1)}
        assert max(counts) - min(counts) <= 1


def test_complexity_of_characteristic_prefixes():
    for text in ("1,(1)", "2,(1,2)", "0,(3)"):
        d = DirectiveSequence.parse(text)
        w = characteristic_prefix(d, 600)
        prof = complexity_profile(w, 40)
        assert prof == [k + 1 for k in range(1, 41)]


def test_bridge_fibonacci_consistent():
    d = DirectiveSequence.parse("1,(1)")
    res = bridge(characteristic_prefix(d, 300), RIGHT_INFINITE)
    assert res.report.witness is None
    assert res.violation is None
    assert res.consistent()
    assert res.report.verdict  # certified aperiodic and no witness in window


def test_bridge_parity_image():
    d = DirectiveSequence.parse("1,(1)")
    w = characteristic_prefix(d, 20)
    res = bridge(w, BI_INFINITE)
    expect = "".join("01" if l == A else "10" for l in w.letters)
    got = "".join("1" if l.inv else "0" for l in res.word.right.letters)
    assert got == expect
    assert res.word.base == "1(v2,+1)"


def test_bridge_dropped_prefix_finds_witness():
    d = DirectiveSequence.parse("1,(1)")
    w = characteristic_prefix(d, 301)
    dropped = Window(w.letters[1:], True, "fibonacci-dropped",
                     left_closed=True, right_closed=False)
    res = bridge(dropped, RIGHT_INFINITE)
    assert res.report.witness is not None
    assert not res.report.verdict


def test_bridge_explicit_violation_window():
    # a window containing both a y a and b y b (y = empty)
    w = Window((B, A, A, B, B, A), False, "corrupted")
    res = bridge(w, BI_INFINITE)
    assert res.violation is not None
    assert res.report.witness is not None
    assert res.consistent()


def test_bridge_rejects_other_alphabets(l3):
    with pytest.raises(SturmianError):
        bridge(Window((Letter("c", False),), False, ""), BI_INFINITE)


def test_bridge_rejects_an_empty_window():
    # an empty window has no gap to point the bridge's word at
    for side in (RIGHT_INFINITE, BI_INFINITE):
        with pytest.raises(SturmianError, match="nonempty window"):
            bridge(Window((), False, "empty"), side)


def test_bridge_cap():
    # an all-a window is the cheapest to bridge, so the cap itself is checked
    assert bridge(Window((A,) * BRIDGE_CAP, False, "at cap"), BI_INFINITE).violation is None
    with pytest.raises(CapExceeded, match=f"cap {BRIDGE_CAP} "):
        bridge(Window((A,) * (BRIDGE_CAP + 1), False, "past cap"), BI_INFINITE)


def test_prefix_cap_and_input_errors():
    # a cap hit is CapExceeded, naming the cap; a bad argument stays SturmianError
    fib = DirectiveSequence.parse("1,(1)")
    with pytest.raises(CapExceeded, match=f"cap {PREFIX_CAP}$"):
        characteristic_prefix(fib, PREFIX_CAP + 1)
    with pytest.raises(SturmianError):
        characteristic_prefix(fib, 0)
    with pytest.raises(SturmianError):
        bridge(characteristic_prefix(fib, 8), "sideways")


def test_bridge_builds_its_word_once(monkeypatch):
    """One construction step and no validation per bridge side, wherever the
    package binds the names, and the same report as the automaton route on
    the window."""
    original = construct._pointed_word
    calls, validated = [], []

    def counted(ctx, x):
        calls.append(x)
        return original(ctx, x)

    for name, mod in list(sys.modules.items()):
        if name.startswith("stringbricks") and getattr(mod, "_pointed_word", None) is original:
            monkeypatch.setattr(mod, "_pointed_word", counted)
    validate = Context.validate_inf_str

    def counted_validate(ctx, rep):
        validated.append(rep)
        return validate(ctx, rep)

    monkeypatch.setattr(Context, "validate_inf_str", counted_validate)
    d = DirectiveSequence.parse("1,(1)")
    longer = characteristic_prefix(d, 301)
    rng = random.Random(5)
    windows = [characteristic_prefix(d, 20), characteristic_prefix(d, 300),
               Window(longer.letters[1:], True, "fibonacci-dropped",
                      left_closed=True, right_closed=False),
               Window((B, A, A, B, B, A), False, "corrupted"),
               *(_random_window(rng) for _ in range(10))]
    witnesses = 0
    for w in windows:
        for side in (RIGHT_INFINITE, BI_INFINITE):
            calls.clear()
            validated.clear()
            res = bridge(w, side)
            assert calls == [res.string_window] and validated == []
            assert res.report == string_brick_automaton(lambda3_context(),
                                                        res.string_window)
            witnesses += res.report.witness is not None
    assert 0 < witnesses < 2 * len(windows)


def test_bridge_blocks_always_form_a_string():
    """The bridge does not validate its window: Lambda_3's relations have
    length 2, so a fault lies within two adjacent blocks, and every word of
    two blocks is a string."""
    ctx = lambda3_context()
    assert {len(r) for r in ctx.presentation.relations} == {2}
    for x, y in itertools.product(_BLOCKS, repeat=2):
        ctx.make_string(_BLOCKS[x] + _BLOCKS[y])


def _random_window(rng):
    kind = rng.random()
    if kind < 0.45:
        d = DirectiveSequence((rng.randint(0, 2),),
                              tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
        n = rng.randint(30, 120)
        w = characteristic_prefix(d, n + 4)
        return Window(w.letters, False, "sturmian-sample",
                      left_closed=False, right_closed=False)
    if kind < 0.8:
        d = DirectiveSequence((1,), (rng.randint(1, 2),))
        w = characteristic_prefix(d, rng.randint(40, 120))
        letters = list(w.letters)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(letters))
            letters[i] = A if letters[i] == B else B
        return Window(tuple(letters), False, "corrupted",
                      left_closed=False, right_closed=False)
    letters = tuple(rng.choice((A, B)) for _ in range(rng.randint(30, 90)))
    return Window(letters, False, "random", left_closed=False, right_closed=False)


def test_window_equivalence_on_random_windows():
    """Brick-word witness in window <=> Sturmian violation in window, with
    2-block margins; disagreements near the edge are re-checked on a trimmed
    window."""
    rng = random.Random(20240809)
    agreements = 0
    for _ in range(200):
        w = _random_window(rng)
        res = bridge(w, BI_INFINITE)
        witness = res.report.witness is not None
        violation = res.violation is not None
        if witness != violation:
            # margin effect: retry with the outer two blocks trimmed
            trimmed = Window(w.letters[2:-2], False, w.origin,
                             left_closed=False, right_closed=False)
            res2 = bridge(trimmed, BI_INFINITE)
            assert (res2.report.witness is not None) == \
                   (res2.violation is not None)
        else:
            agreements += 1
    assert agreements >= 190
