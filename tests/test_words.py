import random
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from stringbricks.words import (Letter, Window, Word, WordError,
                                classify_periodicity, complexity_profile,
                                invert, inv_seq, primitive_root, unfold_left,
                                unfold_right)

Z = Letter("0", False)
O = Letter("0", True)
A = Letter("a", False)
B = Letter("b", False)

letters_st = st.lists(
    st.sampled_from([Z, O, A, B]), min_size=0, max_size=12).map(tuple)


def test_letter_involution():
    assert Z.inverse() == O
    assert O.inverse() == Z
    assert str(O) == "0'"


def test_invert_finite():
    # 0 1 1 reverses and flips to 0 0 1 (with 1 = 0')
    w = Word(core=(Z, O, O))
    assert invert(w).core == (Z, Z, O)


@given(letters_st)
def test_invert_involution(seq):
    w = Word(core=seq)
    assert invert(invert(w)) == w


@given(letters_st, st.lists(st.sampled_from([Z, O, A]), min_size=1, max_size=4).map(tuple))
def test_invert_rightinf_matches_unfold(prefix, period):
    w = Word((), prefix, period)
    iv = invert(w)
    assert iv.left_period and not iv.right_period
    n = 2 * (len(prefix) + len(period)) + 5
    assert unfold_left(iv, n) == inv_seq(unfold_right(w, n))


def test_invert_rightinf_example():
    w = Word((), (), (Z, O))
    iv = invert(w)
    assert iv.left_period and not iv.right_period
    assert unfold_left(iv, 8) == inv_seq(unfold_right(w, 8))


def test_period_normalization():
    assert Word((), (), (Z, O, Z, O)).right_period == (Z, O)
    assert Word((A, B, A, B), (), (A, B)) == Word((A, B), (), (A, B))
    # a preperiod that is absorbed by rotation
    assert Word((), (O,), (Z, O)) == Word((), (), (O, Z))
    assert classify_periodicity(Word((), (O,), (Z, O))) == "periodic"


def test_classify():
    assert classify_periodicity(Word(core=(Z,))) == "finite"
    assert classify_periodicity(Word((A, B), (), (A, B))) == "periodic"
    assert classify_periodicity(Word((), (Z,), (Z, O))) == "almost-periodic-right"
    assert classify_periodicity(Word((Z, O), (O,))) == "almost-periodic-left"
    assert classify_periodicity(Window((A, B), True, "gen")) == "aperiodic-certified"
    assert classify_periodicity(Window((A, B), False, "")) == "unknown-window"


@given(letters_st, st.lists(st.sampled_from([Z, O]), min_size=1, max_size=3).map(tuple))
def test_classify_mirrors_under_inversion(prefix, period):
    w = Word((), prefix, period)
    c, ci = classify_periodicity(w), classify_periodicity(invert(w))
    flip = {"almost-periodic-right": "almost-periodic-left",
            "almost-periodic-left": "almost-periodic-right"}
    assert ci == flip.get(c, c)


def test_primitive_root():
    assert primitive_root((Z, O, Z, O)) == (Z, O)
    assert primitive_root((Z, O, O)) == (Z, O, O)


def test_complexity_periodic():
    w = Window((Z, O) * 20, False, "")
    assert complexity_profile(w, 5) == [2, 2, 2, 2, 2]


def test_complexity_constant():
    w = Window((Z,) * 12, False, "")
    assert complexity_profile(w, 3) == [1, 1, 1]


def test_complexity_guard():
    with pytest.raises(WordError):
        complexity_profile(Window((Z,) * 10, False, ""), 5)


def test_complexity_monotone_until_saturation():
    rng = random.Random(7)
    letters = tuple(rng.choice([A, B]) for _ in range(200))
    prof = complexity_profile(Window(letters, False, ""), 12)
    assert prof == sorted(prof)


# --- reference: the four word classes that Word replaced ---------------------


def _rot_left(seq):
    return seq[1:] + seq[:1]


def _rot_right(seq):
    return seq[-1:] + seq[:-1]


@dataclass(frozen=True)
class Finite:
    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))


@dataclass(frozen=True)
class RightInf:
    prefix: tuple
    period: tuple

    def __post_init__(self):
        prefix, period = tuple(self.prefix), tuple(self.period)
        if not period:
            raise WordError("empty period")
        period = primitive_root(period)
        while prefix and prefix[-1] == period[-1]:
            period = _rot_right(period)
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)


@dataclass(frozen=True)
class LeftInf:
    period: tuple
    suffix: tuple

    def __post_init__(self):
        period, suffix = tuple(self.period), tuple(self.suffix)
        if not period:
            raise WordError("empty period")
        period = primitive_root(period)
        while suffix and suffix[0] == period[0]:
            period = _rot_left(period)
            suffix = suffix[1:]
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "suffix", suffix)


@dataclass(frozen=True)
class BiInf:
    left_period: tuple
    core: tuple
    right_period: tuple

    def __post_init__(self):
        lp, core, rp = tuple(self.left_period), tuple(self.core), tuple(self.right_period)
        if not lp or not rp:
            raise WordError("empty period")
        lp, rp = primitive_root(lp), primitive_root(rp)
        while core and core[0] == lp[0]:
            lp = _rot_left(lp)
            core = core[1:]
        while core and core[-1] == rp[-1]:
            rp = _rot_right(rp)
            core = core[:-1]
        object.__setattr__(self, "left_period", lp)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "right_period", rp)


def ref_build(lp, core, rp):
    if lp and rp:
        return BiInf(lp, core, rp)
    if rp:
        return RightInf(core, rp)
    if lp:
        return LeftInf(lp, core)
    return Finite(core)


def ref_parts(w):
    """(left period, core, right period) of a reference word."""
    if isinstance(w, Finite):
        return (), w.letters, ()
    if isinstance(w, RightInf):
        return (), w.prefix, w.period
    if isinstance(w, LeftInf):
        return w.period, w.suffix, ()
    return w.left_period, w.core, w.right_period


def ref_invert(w):
    if isinstance(w, Finite):
        return Finite(inv_seq(w.letters))
    if isinstance(w, RightInf):
        return LeftInf(inv_seq(w.period), inv_seq(w.prefix))
    if isinstance(w, LeftInf):
        return RightInf(inv_seq(w.suffix), inv_seq(w.period))
    return BiInf(inv_seq(w.right_period), inv_seq(w.core), inv_seq(w.left_period))


def ref_unfold_right(w, n):
    if isinstance(w, Finite):
        return w.letters[:n]
    if isinstance(w, RightInf):
        out = list(w.prefix[:n])
        while len(out) < n:
            out.extend(w.period)
        return tuple(out[:n])
    raise WordError(f"cannot unfold {type(w).__name__} rightward")


def ref_unfold_left(w, n):
    if isinstance(w, Finite):
        return w.letters[-n:] if n else ()
    if isinstance(w, LeftInf):
        out = list(w.suffix)
        while len(out) < n:
            out = list(w.period) + out
        return tuple(out[-n:]) if n else ()
    raise WordError(f"cannot unfold {type(w).__name__} leftward")


def ref_classify(w):
    if isinstance(w, Finite):
        return "finite"
    if isinstance(w, RightInf):
        return "periodic" if not w.prefix else "almost-periodic-right"
    if isinstance(w, LeftInf):
        return "periodic" if not w.suffix else "almost-periodic-left"
    if not w.core and w.left_period == w.right_period:
        return "periodic"
    return "almost-periodic-both"


def outcome(f, *args):
    try:
        return f(*args)
    except WordError:
        return WordError


small_st = st.lists(st.sampled_from([Z, O, A]), min_size=0, max_size=6).map(tuple)


@given(small_st, letters_st, small_st, st.integers(0, 20))
def test_word_matches_the_four_reference_classes(lp, core, rp, n):
    w, ref = Word(lp, core, rp), ref_build(lp, core, rp)
    assert (w.left_period, w.core, w.right_period) == ref_parts(ref)
    assert Word(list(lp), list(core), list(rp)) == w
    iv, ref_iv = invert(w), ref_invert(ref)
    assert (iv.left_period, iv.core, iv.right_period) == ref_parts(ref_iv)
    assert classify_periodicity(w) == ref_classify(ref)
    assert classify_periodicity(iv) == ref_classify(ref_iv)
    assert outcome(unfold_right, w, n) == outcome(ref_unfold_right, ref, n)
    assert outcome(unfold_left, w, n) == outcome(ref_unfold_left, ref, n)
