"""Fuzzers for the text boundaries: every input either parses or raises the
parsing module's own error type, and what parses reads back unchanged.
A table pins each violation message of validate_mia."""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from stringbricks.algebra import (PresentationError, format_presentation,
                                  parse_presentation, validate_string_algebra)
from stringbricks.mia import Mia, MiaError, format_mia, parse_mia, validate_mia
from stringbricks.presets import lambda3
from stringbricks.strings import Context, StringError
from stringbricks.sturmian import DirectiveSequence, SturmianError
from stringbricks.words import Letter

L3 = Context(lambda3())


def lines_of(tokens, max_tokens=5, max_lines=10):
    """Newline-joined lines of tokens drawn from `tokens` or arbitrary short
    text, so that most lines are near-misses of the format."""
    tok = st.sampled_from(tokens) | st.text(max_size=3)
    line = st.lists(tok, max_size=max_tokens).map(" ".join)
    return st.lists(line, max_size=max_lines).map("\n".join)


PRESENTATION_TOKENS = ["vertex", "arrow", "relation", "sign", "#", "u", "v", "a",
                       "b", "+1", "-1", "0"]
MIA_TOKENS = ["state", "trans", "initial", "inv=p", "inv=q", "e=p", "e=q", "e=",
              "p", "q", "r", "0", "1", "a", "a'", "#"]


@settings(max_examples=300, deadline=None)
@given(lines_of(PRESENTATION_TOKENS))
def test_parse_presentation_parses_or_raises_its_error(text):
    try:
        p = parse_presentation(text)
    except PresentationError:
        return
    assert parse_presentation(format_presentation(p)) == p
    validate_string_algebra(p)


@settings(max_examples=300, deadline=None)
@given(lines_of(MIA_TOKENS))
def test_parse_mia_then_validate_parses_or_raises_its_error(text):
    try:
        m = parse_mia(text)
    except MiaError:
        return
    bad = validate_mia(m)
    assert all(code in ("0", "1", "2", "3") for code, _ in bad)
    if not bad:
        assert parse_mia(format_mia(m)) == m


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a1", "a2", "b1", "b2", "a1'", "b2'", "c", "'",
                                 "1(v2,+1)", "1(v1,-1)", "1(v9,+1)", "1(v2,2)",
                                 "1(v2)", "1(", ")", ","]) | st.text(max_size=3),
                max_size=6).map(" ".join))
def test_parse_literal_parses_or_raises_its_error(text):
    try:
        x = L3.parse_literal(text)
    except StringError:
        return
    assert L3.parse_literal(Context.format_literal(x)) == x


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123-,() x", max_size=10))
def test_directive_parse_parses_or_raises_its_error(text):
    try:
        d = DirectiveSequence.parse(text)
    except SturmianError:
        return
    assert DirectiveSequence.parse(str(d)) == d


A = Letter("a", False)
VALID = Mia(states=("p", "q", "x"), initial=("p", "q"), inv={"p": "q", "q": "p"},
            e={"p": "p", "q": "q", "x": "p"}, alphabet=("a",), trans={("p", A): "x"})


@pytest.mark.parametrize("change, violation", [
    (dict(states=("p", "q", "x", "x")), ("0", "duplicate state x")),
    (dict(initial=("p", "q", "p")), ("0", "duplicate initial state p")),
    (dict(initial=("p", "q", "z"), inv={"p": "q", "q": "p", "z": "p"}),
     ("0", "initial states not a subset of states")),
    (dict(inv={"p": "q"}), ("1", "involution undefined or leaves initial states at q")),
    (dict(inv={"p": "x", "q": "p"}), ("1", "involution undefined or leaves initial states at p")),
    (dict(inv={"p": "p", "q": "p"}), ("1", "involution has fixed point p")),
    (dict(states=("p", "q", "s", "x"), initial=("p", "q", "s"),
          inv={"p": "q", "q": "s", "s": "p"}, e={"p": "p", "q": "q", "s": "s", "x": "p"}),
     ("1", "involution not an involution at p")),
    (dict(e={"p": "p", "q": "q"}), ("0", "e(x) is not an initial state")),
    (dict(e={"p": "p", "q": "q", "x": "x"}), ("0", "e(x) is not an initial state")),
    (dict(e={"p": "q", "q": "q", "x": "p"}), ("2", "e(p) != p")),
    (dict(trans={("p", A): "y"}), ("0", "transition p --a--> y uses unknown states")),
    (dict(alphabet=("b",)), ("0", "transition letter a outside the alphabet")),
    (dict(trans={("p", A): "x", ("x", A.inverse()): "q"}),
     ("3", "t(x,a') defined but t(e(x)=p,a') is not")),
    (dict(states=("p", "q", "x", "y"), e={"p": "p", "q": "q", "x": "p", "y": "q"},
          trans={("p", A): "x", ("x", A): "y"}),
     ("3", "e(t(x,a)) != e(t(e(x),a)) at (x,a)")),
])
def test_validate_mia_reports_each_violation(change, violation):
    assert validate_mia(VALID) == []
    assert violation in validate_mia(dataclasses.replace(VALID, **change))
