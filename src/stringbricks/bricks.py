"""Brickness of string and band modules.

Two independent routes: the direct substring criterion (a common factor/image
substring of the string, or of the doubly infinite band word, kills
brickness) and the automaton criterion (transport the pointed word to the
binary MIA and test the (weak) brick word property).  Both witness searches
are the pair scan of `scan`, which also builds the one witness and report
record: the direct route keys each gap by the (vertex, side) of its
zero-length string, the automaton route is `mia.is_brick_word` (or
`is_weak_brick_word`) for every shape, inversion check included, and returns
its report as it is.  The endo module gives a third, linear-algebra route;
the test suite keeps all three in agreement.
"""
from __future__ import annotations

from typing import Optional

from . import endo
from .construct import _pointed_word, binary_word, parity_mia
from .mia import is_brick_word, is_weak_brick_word, transport
from .scan import BrickReport, BrickWitness, Track, pair_scan, unroll, witness
from .strings import Band, Context, Str
from .words import Window, Word, classify_periodicity, inv_seq
from .words import APERIODIC, FINITE


def _direct_witness(ctx: Context, x: Track, xinv: Track) -> Optional[BrickWitness]:
    """The direct route on the pair scan: the start key is the zero-length
    string at the gap, which decides the zero-length contents and is implied
    by the first letter of the others.  It is keyed by its (vertex, side),
    read once per track; the string itself is built only to label a witness."""
    def keyed(t: Track) -> Track:
        after = {l: ctx.gap_key((l,), 1) for l in set(t.letters)}
        keys = [ctx.gap_key(t.letters, 0), *map(after.__getitem__, t.letters)]
        return t._replace(keys=keys)

    x, xinv = keyed(x), keyed(xinv)
    hit = next(pair_scan(x, (x, xinv)), None)
    return None if hit is None else witness(
        x, (x, xinv), hit, Context.format_literal(ctx.gap_zero(x.letters, hit.of)))


def _band_rule(l: int, lam: int, method: str) -> Optional[BrickReport]:
    """The one rule on a band's parameters: ValueError when lambda is 0 in
    F_p, then when l < 1, and the report "not a brick" when l > 1."""
    if lam % endo.DEFAULT_PRIME == 0:
        raise ValueError("lambda must be nonzero")
    if l < 1:
        raise ValueError("l must be >= 1")
    if l > 1:
        return BrickReport(False, method, None, "periodic", "exact", reason="l must be 1")
    return None


# ---------------------------------------------------------------------------
# public operations


def string_brick_direct(ctx: Context, x) -> BrickReport:
    """Thm criterion: brick iff aperiodic and no common factor/image
    substring of x and of x or x^{-1}."""
    if isinstance(x, Str):
        t = Track(x.letters)
        w = _direct_witness(ctx, t, t.inverse()) if x.letters else None
        return BrickReport(w is None, "direct", w, FINITE, "exact")
    ctx.validate_inf_str(x)
    cls = classify_periodicity(x)
    if isinstance(x, Window):
        t = Track(x.letters, x.left_closed, x.right_closed)
        w = _direct_witness(ctx, t, t.inverse())
        verdict = w is None and cls == APERIODIC
        return BrickReport(verdict, "direct", w, cls, f"window {len(x.letters)}")
    return BrickReport(False, "direct", None, cls, "exact",
                       reason="eventually periodic words are almost periodic, never aperiodic")


def band_brick_direct(ctx: Context, b: Band, l: int, lam: int = 1) -> BrickReport:
    """Band criterion: brick iff l = 1 and the doubly infinite band word has
    no finite common factor/image substring (lambda never matters, but is
    refused as endo refuses it: when it is 0 in F_p)."""
    if refused := _band_rule(l, lam, "direct"):
        return refused
    q = b.string.letters
    n = len(q)  # every witness is shorter than |q| (see `unroll`)
    w = _direct_witness(ctx, unroll(q, n, n), unroll(inv_seq(q), n, n))
    return BrickReport(w is None, "direct", w, "periodic", "exact")


def string_brick_automaton(ctx: Context, x) -> BrickReport:
    """Automaton criterion: transport the pointed word to the binary MIA and
    test the brick word property."""
    return is_brick_word(parity_mia(ctx)[1], binary_word(ctx, x))


def band_brick_automaton(ctx: Context, b: Band, l: int, lam: int = 1) -> BrickReport:
    """l = 1 plus the weak brick word property of the transported doubly
    infinite band word (lambda is refused as `band_brick_direct` does)."""
    if refused := _band_rule(l, lam, "automaton"):
        return refused
    # is_band validated the word: q is a string that continues with its own
    # first letter, and no relation window, all one direction, spans a join
    q = b.string.letters
    phi, delta = parity_mia(ctx)
    return is_weak_brick_word(delta, transport(phi, _pointed_word(ctx, Word(q, (), q))))


def string_brick_endo(ctx: Context, x: Str) -> BrickReport:
    """Ground truth: brick iff the endomorphism space is one-dimensional."""
    dim = endo.end_dim_string(ctx, x)
    return BrickReport(dim == 1, "endo", None, FINITE, "exact",
                       reason=f"end_dim={dim}")


def band_brick_endo(ctx: Context, b: Band, l: int, lam: int = 1) -> BrickReport:
    # refused before endo's cap, which a large l trips; endo solves every
    # l itself, so the l > 1 report goes unused
    _band_rule(l, lam, "endo")
    dim = endo.end_dim_band(ctx, b, l, lam)
    return BrickReport(dim == 1, "endo", None, "periodic", "exact",
                       reason=f"end_dim={dim}")
