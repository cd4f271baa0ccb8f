"""Alphabet-generic words over signed alphabets.

A word lives over an alphabet A together with formal inverses A'; letters are
(symbol, inverted) pairs.  Infinite words exist only as eventually periodic
representations (right-, left- or two-sided) or as finite windows sampled from
a generated word.  All values are immutable.
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


def _rot_left(seq: Letters) -> Letters:
    return seq[1:] + seq[:1]


def _rot_right(seq: Letters) -> Letters:
    return seq[-1:] + seq[:-1]


@dataclass(frozen=True)
class Finite:
    letters: Letters

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))


@dataclass(frozen=True)
class RightInf:
    """prefix . period^infinity; the period is primitive and the prefix is
    shortened as far as rotation allows, so equal words get equal reps."""

    prefix: Letters
    period: Letters

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
    """period^infinity . suffix, normalized like RightInf."""

    period: Letters
    suffix: Letters

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
    """left_period^infinity . core . right_period^infinity.

    The core is absorbed into the periods (left side first) so that purely
    periodic words normalize to an empty core with equal periods.
    """

    left_period: Letters
    core: Letters
    right_period: Letters

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


WordRep = Union[Finite, RightInf, LeftInf, BiInf, Window]


def invert(w: WordRep) -> WordRep:
    """Letterwise inversion with order reversal; swaps left/right infinitude."""
    if isinstance(w, Finite):
        return Finite(inv_seq(w.letters))
    if isinstance(w, RightInf):
        return LeftInf(period=inv_seq(w.period), suffix=inv_seq(w.prefix))
    if isinstance(w, LeftInf):
        return RightInf(prefix=inv_seq(w.suffix), period=inv_seq(w.period))
    if isinstance(w, BiInf):
        return BiInf(inv_seq(w.right_period), inv_seq(w.core), inv_seq(w.left_period))
    if isinstance(w, Window):
        return Window(inv_seq(w.letters), w.certified_aperiodic, w.origin,
                      left_closed=w.right_closed, right_closed=w.left_closed)
    raise WordError(f"not a word rep: {w!r}")


def unfold_right(w: WordRep, n: int) -> Letters:
    """First n letters reading rightward from the left anchor (all of them for
    finite reps shorter than n)."""
    if isinstance(w, (Finite, Window)):
        return w.letters[:n]
    if isinstance(w, RightInf):
        out = list(w.prefix[:n])
        while len(out) < n:
            out.extend(w.period)
        return tuple(out[:n])
    raise WordError(f"cannot unfold {type(w).__name__} rightward")


def unfold_left(w: WordRep, n: int) -> Letters:
    """Last n letters of a leftward rep, in left-to-right order."""
    if isinstance(w, (Finite, Window)):
        return w.letters[-n:] if n else ()
    if isinstance(w, LeftInf):
        out = list(w.suffix)
        while len(out) < n:
            out = list(w.period) + out
        return tuple(out[-n:]) if n else ()
    raise WordError(f"cannot unfold {type(w).__name__} leftward")


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
    if isinstance(w, Finite):
        return FINITE
    if isinstance(w, RightInf):
        return PERIODIC if not w.prefix else ALMOST_RIGHT
    if isinstance(w, LeftInf):
        return PERIODIC if not w.suffix else ALMOST_LEFT
    if isinstance(w, BiInf):
        if not w.core and w.left_period == w.right_period:
            return PERIODIC
        return ALMOST_BOTH
    if isinstance(w, Window):
        return APERIODIC if w.certified_aperiodic else UNKNOWN
    raise WordError(f"not a word rep: {w!r}")


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
