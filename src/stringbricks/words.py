"""Alphabet-generic words over signed alphabets.

A word lives over an alphabet A together with formal inverses A'; letters are
(symbol, inverted) pairs.  A `Word` is finite or eventually periodic on
either side or both; an aperiodic word exists only as a finite `Window`
sampled from a generated word.  All values are immutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union


class WordError(ValueError):
    pass


class Letter(NamedTuple):
    """A base symbol or its formal inverse; (b')' == b.

    A tuple, so equality, hashing, order and slice comparison of letter
    tuples all run in C."""

    sym: str
    inv: bool = False

    def inverse(self) -> "Letter":
        return inverse_of(self)

    def __str__(self) -> str:
        return self.sym + "'" if self.inv else self.sym


class _Inverses(dict):
    """Each letter's inverse, built once per distinct letter: building a
    Letter runs the named tuple's Python-level __new__, a lookup runs in C.
    The table holds only values, so sharing it between callers changes no
    result; it grows by two entries per arrow symbol."""

    def __missing__(self, l: Letter) -> Letter:
        inv = self[l] = Letter(l.sym, not l.inv)
        return inv


inverse_of = _Inverses().__getitem__


def parse_letter(tok: str) -> Letter:
    """The letter whose text is tok, the inverse of `Letter.__str__`:
    b' is the inverse of b."""
    return Letter(tok[:-1], True) if tok.endswith("'") else Letter(tok)

Letters = tuple  # tuple[Letter, ...]


def inv_seq(seq: Sequence[Letter]) -> Letters:
    """Letterwise inverse with order reversal."""
    return tuple(map(inverse_of, reversed(seq)))


def primitive_root(seq: Sequence[Letter]) -> Letters:
    """Shortest r with seq = r^k."""
    seq = tuple(seq)
    n = len(seq)
    for d in range(1, n + 1):
        if n % d == 0 and seq == seq[:d] * (n // d):
            return seq[:d]
    return seq


@dataclass(frozen=True)
class Word:
    """The eventually periodic word ^infinity(left_period) . core .
    (right_period)^infinity; an empty period makes that end finite, so
    Word(core=u) is the finite word u.

    Both periods are made primitive and the core is absorbed into the left
    period, then into the right one, so equal words get equal reps and a
    purely periodic word has an empty core.  A finite word skips that work.
    """

    left_period: Letters = ()
    core: Letters = ()
    right_period: Letters = ()

    def __post_init__(self):
        lp, core, rp = self.left_period, self.core, self.right_period
        if not (lp or rp):
            if type(core) is tuple and lp == () == rp:
                return  # a finite word given as tuples is already normal
            lp, core, rp = (), tuple(core), ()
        else:
            lp, core, rp = primitive_root(lp), tuple(core), primitive_root(rp)
            while core and lp and core[0] == lp[0]:
                lp = lp[1:] + lp[:1]
                core = core[1:]
            while core and rp and core[-1] == rp[-1]:
                rp = rp[-1:] + rp[:-1]
                core = core[:-1]
        object.__setattr__(self, "left_period", lp)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "right_period", rp)


@dataclass(frozen=True)
class Window:
    """A finite view of a word that may extend beyond either edge.

    left_closed / right_closed record which edges are genuine word ends;
    certified_aperiodic is set by generators that can certify aperiodicity of
    the full word (e.g. an irrational-slope Sturmian generator).
    """

    letters: Letters
    certified_aperiodic: bool = False
    origin: str = ""
    left_closed: bool = False
    right_closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))


WordRep = Union[Word, Window]


def invert(w: WordRep) -> WordRep:
    """Letterwise inversion with order reversal; swaps left/right infinitude."""
    if isinstance(w, Window):
        return Window(inv_seq(w.letters), w.certified_aperiodic, w.origin,
                      left_closed=w.right_closed, right_closed=w.left_closed)
    return Word(inv_seq(w.right_period), inv_seq(w.core), inv_seq(w.left_period))


def _cycle(p: Letters, n: int) -> Letters:
    """The first n letters of p^infinity (none for an empty p)."""
    return (p * (n // len(p) + 1))[:n] if p else ()


def unfold_right(w: WordRep, n: int) -> Letters:
    """First n letters reading rightward from the left anchor (all of them for
    finite reps shorter than n)."""
    if isinstance(w, Window):
        return w.letters[:n]
    if w.left_period:
        raise WordError("cannot unfold a left-infinite word rightward")
    return w.core[:n] + _cycle(w.right_period, n - len(w.core))


def unfold_left(w: WordRep, n: int) -> Letters:
    """Last n letters of a leftward rep, in left-to-right order."""
    if isinstance(w, Window):
        return w.letters[-n:] if n else ()
    if w.right_period:
        raise WordError("cannot unfold a right-infinite word leftward")
    out = _cycle(w.left_period[::-1], n - len(w.core))[::-1] + w.core
    return out[-n:] if n else ()


FINITE = "finite"
PERIODIC = "periodic"
ALMOST_LEFT = "almost-periodic-left"
ALMOST_RIGHT = "almost-periodic-right"
ALMOST_BOTH = "almost-periodic-both"
APERIODIC = "aperiodic-certified"
UNKNOWN = "unknown-window"


def classify_periodicity(w: WordRep) -> str:
    """Periodicity class of the represented word.

    Eventually periodic reps are periodic when the preperiod/core is absorbed
    by normalization, almost periodic otherwise; windows are aperiodic only
    when their generator certified it.
    """
    if isinstance(w, Window):
        return APERIODIC if w.certified_aperiodic else UNKNOWN
    lp, rp = w.left_period, w.right_period
    if lp and rp:
        return PERIODIC if not w.core and lp == rp else ALMOST_BOTH
    if not (lp or rp):
        return FINITE
    return PERIODIC if not w.core else ALMOST_LEFT if lp else ALMOST_RIGHT


def complexity_profile(w: Window, max_len: int) -> list[int]:
    """p(k) = number of distinct length-k subwords of the window, k = 1..max_len.

    Requires window length >= 4*max_len so that edge truncation cannot hide
    factors at the requested lengths.
    """
    if not isinstance(w, Window):
        raise WordError("complexity_profile expects a Window")
    n = len(w.letters)
    if n < 4 * max_len:
        raise WordError(f"window too short: {n} < 4*{max_len}")
    out = []
    for k in range(1, max_len + 1):
        seen = {w.letters[i:i + k] for i in range(n - k + 1)}
        out.append(len(seen))
    return out
