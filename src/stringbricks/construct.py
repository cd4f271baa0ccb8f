"""The automaton of a string algebra, its parity relabeling, and the
bijection between strings and pointed words.

States are zero-length strings, syllables, and proper left substrings of
relations and of inverses of relations; the transition on a letter lands on
the maximal right substring of the extended string that is again a state.
"""
from __future__ import annotations

import re
from typing import Optional

from .mia import Mia, PointedWord, transport, underlying
from .strings import Context, Str, StringError
from .words import Letter, Window, Word, inv_seq


def zero_label(vertex: str, side: int) -> str:
    return f"1({vertex},{side:+d})"


_ZERO_RE = re.compile(r"^1\((.+),([+-]1)\)$")


def parse_zero_label(label: str) -> Optional[tuple[str, int]]:
    m = _ZERO_RE.match(label)
    if not m:
        return None
    return m.group(1), int(m.group(2))


def state_label(x: Str) -> str:
    return ".".join(map(str, x.letters)) or zero_label(x.dst, x.eps)


def build_mia(ctx: Context) -> Mia:
    """The MIA associated with the string algebra (cached on the context)."""
    if "mia" in ctx.cache:
        return ctx.cache["mia"]
    p = ctx.presentation

    state_strs = [ctx.zero(v, i) for v in p.vertices for i in (1, -1)]
    state_strs += (ctx.make_string((l,)) for l in ctx.syllables())
    for r in p.relations:
        word = tuple(Letter(a, False) for a in r)
        for x in (word, inv_seq(word)):
            for k in range(2, len(x)):
                state_strs.append(ctx.make_string(x[:k]))
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
        nxt = ctx.continuations(s.letters) if s.letters else ctx.leaving.get((s.dst, s.eps), ())
        for b in nxt:
            trans[(lab, b)] = max_right_state(s.letters + (b,))

    # every state's e is the zero-length string at its right end; the zero
    # states are the initial ones, each its own e, paired with its inverse
    e = {labels[s.key()]: zero_label(s.dst, s.eps) for s in state_strs}
    initial = [labels[s.key()] for s in state_strs if not s.letters]
    inv = {labels[s.key()]: state_label(s.inverse()) for s in state_strs if not s.letters}

    mia = Mia(
        states=tuple(labels[s.key()] for s in state_strs),
        initial=tuple(initial),
        inv=inv,
        e=e,
        alphabet=tuple(sorted(ctx.amap)),
        trans=trans,
    )
    ctx.cache["mia"] = mia
    return mia


def parity_mia(ctx: Context) -> tuple[dict[str, str], Mia]:
    """Collapse all arrows to the single symbol 0 (so inverse syllables read
    as 1); a local bijection because every state has at most one defined
    direct and one defined inverse letter."""
    if not ctx.amap:
        raise StringError("parity relabeling needs a nonempty arrow set")
    if "parity" in ctx.cache:
        return ctx.cache["parity"]
    from .mia import relabel
    phi = {a: "0" for a in ctx.amap}
    delta = relabel(build_mia(ctx), phi)
    ctx.cache["parity"] = (phi, delta)
    return phi, delta


def string_to_word(ctx: Context, x) -> PointedWord:
    """The canonical pointed word of a string: basepoint at the right end for
    finite strings, at the left gap for right-infinite words and windows, and
    after the last left letter for left- and bi-infinite words.  A window or
    infinite word is validated first; a Str is valid by construction."""
    if not isinstance(x, Str):
        ctx.validate_inf_str(x)
    return _pointed_word(ctx, x)


def _pointed_word(ctx: Context, x) -> PointedWord:
    """string_to_word of a string known to be valid, without validating it."""
    if isinstance(x, Str):
        return PointedWord(Word(core=x.letters), zero_label(x.dst, x.eps), Word())
    if isinstance(x, Window) or not x.left_period:
        first = x.letters if isinstance(x, Window) else x.core or x.right_period
        return PointedWord(Word(), state_label(ctx.gap_zero(first, 0)), x)
    left, right = ((Word(x.left_period), Word((), x.core, x.right_period))
                   if x.right_period else (x, Word()))
    last = left.core or left.left_period
    return PointedWord(left, state_label(ctx.gap_zero(last, len(last))), right)


def word_to_string(ctx: Context, w: PointedWord):
    """Concatenate the two sides back into a string (the inverse of
    string_to_word up to basepoint equivalence)."""
    if isinstance(w.right, Window) and w.left != Word():
        raise StringError("a window word must have an empty left part")
    rep = underlying(w)
    if isinstance(rep, Window) or rep.left_period or rep.right_period:
        ctx.validate_inf_str(rep)
        return rep
    if rep.core:
        return ctx.make_string(rep.core)
    parsed = parse_zero_label(w.base)
    if parsed is None:
        raise StringError(f"basepoint {w.base!r} is not a zero-length state")
    return ctx.zero(*parsed)


def binary_word(ctx: Context, x) -> PointedWord:
    """The parity-transported pointed word of a string over M_{Lambda delta}."""
    return transport(parity_mia(ctx)[0], string_to_word(ctx, x))


def to_dot(m: Mia) -> str:
    """DOT rendering: initial states doubly circled, inverse letters primed
    (binary MIAs label edges 0/1)."""
    lines = ["digraph mia {", "  rankdir=LR;"]
    iset = set(m.initial)
    for x in m.states:
        shape = "doublecircle" if x in iset else "circle"
        lines.append(f'  "{x}" [shape={shape}];')
    for x, l, y in m.edges():
        lines.append(f'  "{x}" -> "{y}" [label="{l}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
