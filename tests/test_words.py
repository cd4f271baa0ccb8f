import random

import pytest
from hypothesis import given, strategies as st

from stringbricks.words import (BiInf, Finite, LeftInf, Letter, RightInf,
                                Window, WordError, classify_periodicity,
                                complexity_profile, invert,
                                inv_seq, primitive_root, unfold_left,
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
    w = Finite((Z, O, O))
    assert invert(w).letters == (Z, Z, O)


@given(letters_st)
def test_invert_involution(seq):
    w = Finite(seq)
    assert invert(invert(w)) == w


@given(letters_st, st.lists(st.sampled_from([Z, O, A]), min_size=1, max_size=4).map(tuple))
def test_invert_rightinf_matches_unfold(prefix, period):
    w = RightInf(prefix, period)
    iv = invert(w)
    assert isinstance(iv, LeftInf)
    n = 2 * (len(prefix) + len(period)) + 5
    assert unfold_left(iv, n) == inv_seq(unfold_right(w, n))


def test_invert_rightinf_example():
    w = RightInf((), (Z, O))
    iv = invert(w)
    assert isinstance(iv, LeftInf)
    assert unfold_left(iv, 8) == inv_seq(unfold_right(w, 8))


def test_period_normalization():
    assert RightInf((), (Z, O, Z, O)).period == (Z, O)
    assert BiInf((A, B, A, B), (), (A, B)) == BiInf((A, B), (), (A, B))
    # a preperiod that is absorbed by rotation
    assert RightInf((O,), (Z, O)) == RightInf((), (O, Z))
    assert classify_periodicity(RightInf((O,), (Z, O))) == "periodic"


def test_classify():
    assert classify_periodicity(Finite((Z,))) == "finite"
    assert classify_periodicity(BiInf((A, B), (), (A, B))) == "periodic"
    assert classify_periodicity(RightInf((Z,), (Z, O))) == "almost-periodic-right"
    assert classify_periodicity(LeftInf((Z, O), (O,))) == "almost-periodic-left"
    assert classify_periodicity(Window((A, B), True, "gen")) == "aperiodic-certified"
    assert classify_periodicity(Window((A, B), False, "")) == "unknown-window"


@given(letters_st, st.lists(st.sampled_from([Z, O]), min_size=1, max_size=3).map(tuple))
def test_classify_mirrors_under_inversion(prefix, period):
    w = RightInf(prefix, period)
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
