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
from .words import Letter, Window, Word


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
    """The MIA associated with the string algebra (cached on the context).
    States are keyed by gap state (v, i) or letters, in `Str.key` order; a
    state's e is the gap state at its right end, inv flips the side."""
    if "mia" in ctx.cache:
        return ctx.cache["mia"]
    zeros = {z: zero_label(*z)
             for z in sorted({(v, i) for v in ctx.presentation.vertices for i in (1, -1)})}
    words = {(l,) for l in ctx.syllables()}
    for r in sorted(ctx.forbidden):
        words.update(ctx.make_string(r[:k]).letters for k in range(2, len(r)))
    labels = {w: ".".join(map(str, w)) for w in sorted(words)}

    trans: dict[tuple[str, Letter], str] = {}
    rows = [(lab, (), ctx.leaving.get(z, ())) for z, lab in zeros.items()]
    rows += ((lab, w, ctx.continuations(w)) for w, lab in labels.items())
    for lab, w, nxt in rows:
        for b in nxt:
            # the longest suffix of w.b that is a state; b alone is one
            x = w + (b,)
            trans[lab, b] = next(labels[x[k:]] for k in range(len(x)) if x[k:] in labels)

    e = {lab: lab for lab in zeros.values()}
    e.update((lab, zeros[ctx.gap_key(w, len(w))]) for w, lab in labels.items())
    mia = Mia(
        states=(*zeros.values(), *labels.values()),
        initial=tuple(zeros.values()),
        inv={lab: zeros[v, -i] for (v, i), lab in zeros.items()},
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
