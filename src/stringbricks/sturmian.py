"""Characteristic Sturmian prefixes, the window criterion, and the bridge to
the double Kronecker algebra.

The generator unfolds the standard-word recurrence s_{-1} = b, s_0 = a,
s_k = s_{k-1}^{d_k} s_{k-2} driven by a directive sequence (the continued
fraction of the slope).  Prefixes of an infinite directive sequence are
certified aperiodic.  The bridge realizes an {a,b}-window as a string over
Lambda_3 (a = b1 a1', b = a2' b2), transports it to the binary MIA, and runs
the windowed brick check next to the Sturmian subword criterion.

The subword criterion is the balance of the window: a w' a and b w' b are
both present iff it is unbalanced, which a linear test on the convex hull of
its a-count profile decides.  Only an unbalanced window is searched for its
first violation, by the factor/image pair scan of `scan` over the bridge's
blocks with starts at block boundaries: a factor there reads a w' a and an
image b w' b.  The bridge's brick-word search is that pair scan on the
transported word.  It clears a clean window with about one
suffix comparison per start, not one per pair of starts, but it still reads
every letter several times over, so the bridge has a cap of its own.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .construct import _pointed_word, parity_mia
from .mia import PointedWord, is_brick_word, transport
from .presets import lambda3
from .scan import BrickReport, Track, pair_scan
from .strings import CapExceeded, Context
from .words import Letter, Window, primitive_root

A = Letter("a", False)
B = Letter("b", False)

PREFIX_CAP = 1 << 20
# The bridge's brick-word scan clears a clean window with about one suffix
# comparison per start: `sturmian --check --bridge` on a clean Fibonacci
# window of 2^16 letters takes 0.5-0.6 s per side, one of 2^17 letters about
# 1 s (CPython 3.11, one core, plus 0.2 s of imports).
BRIDGE_CAP = 1 << 16


class SturmianError(ValueError):
    pass


@dataclass(frozen=True)
class DirectiveSequence:
    """(d1, d2, ...) with d1 >= 0 and dn >= 1 afterwards; a nonempty period
    makes the sequence (and the generated word) infinite."""

    head: tuple[int, ...]
    period: tuple[int, ...] = ()

    def __post_init__(self):
        terms = self.head + self.period
        if not terms:
            raise SturmianError("directive sequence needs at least one term")
        if terms[0] < 0:
            raise SturmianError("d1 must be >= 0")
        if any(d < 1 for d in terms[1:]):
            raise SturmianError("directive terms after the first must be >= 1")
        if self.period and any(d < 1 for d in self.period):
            raise SturmianError("period terms must be >= 1")
        object.__setattr__(self, "period", primitive_root(self.period))

    def is_infinite(self) -> bool:
        return bool(self.period)

    def term(self, k: int) -> int:
        """1-based term d_k."""
        if k <= len(self.head):
            return self.head[k - 1]
        if not self.period:
            raise IndexError(k)
        return self.period[(k - len(self.head) - 1) % len(self.period)]

    @classmethod
    def parse(cls, text: str) -> "DirectiveSequence":
        """Comma list with an optional parenthesized period: ``1,(1)``."""
        text = text.strip()
        head_part, body = text, ""
        if "(" in text:
            head_part, _, rest = text.partition("(")
            body, closed, tail = rest.partition(")")
            if not closed or tail.strip():
                raise SturmianError(f"malformed directive sequence {text!r}")
        try:
            head = tuple(int(t) for t in head_part.split(",") if t.strip())
            period = tuple(int(t) for t in body.split(",") if t.strip())
        except ValueError:
            raise SturmianError(f"malformed directive sequence {text!r}")
        return cls(head, period)

    def __str__(self) -> str:
        parts = [str(d) for d in self.head]
        if self.period:
            parts.append("(" + ",".join(str(d) for d in self.period) + ")")
        return ",".join(parts)


def characteristic_prefix(d: DirectiveSequence, n: int) -> Window:
    """Length-n prefix of the standard word of d, as an {a,b} window.

    The window is certified aperiodic exactly when the directive sequence is
    infinite (irrational slope)."""
    if n < 1:
        raise SturmianError("prefix length must be >= 1")
    if n > PREFIX_CAP:
        raise CapExceeded(f"prefix length exceeds cap {PREFIX_CAP}")
    prev = "b"  # s_{-1}
    cur = "a"   # s_0
    k = 0
    while len(cur) < n:
        k += 1
        try:
            dk = d.term(k)
        except IndexError:
            break
        prev, cur = cur, cur * dk + prev
    if len(cur) < n:
        raise SturmianError(
            f"finite directive sequence generates only {len(cur)} letters")
    letters = tuple(A if c == "a" else B for c in cur[:n])
    return Window(letters, certified_aperiodic=d.is_infinite(),
                  origin=f"characteristic({d})", left_closed=True,
                  right_closed=False)


@dataclass(frozen=True)
class SturmianViolation:
    infix: tuple[Letter, ...]
    a_position: int  # start of the a<infix>a occurrence
    b_position: int


_BLOCKS = {
    A: (Letter("b1", False), Letter("a1", True)),
    B: (Letter("a2", True), Letter("b2", False)),
}


def _blocks(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The {a,b} letters as a word over Lambda_3: a = b1 a1', b = a2' b2."""
    return tuple(s for l in letters for s in _BLOCKS[l])


def _chain(points: list[tuple[int, int]], sign: int) -> list[tuple[int, int]]:
    """The upper (sign 1) or lower (sign -1) monotone-chain hull of points
    sorted by x, left to right."""
    hull: list[tuple[int, int]] = []
    for x, y in points:
        while len(hull) > 1:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if sign * ((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)) < 0:
                break
            hull.pop()
        hull.append((x, y))
    return hull


def _strip_fits(slopes: list[tuple[int, int]], upper: list, lower: list) -> bool:
    """Whether some slope p/q (q > 0) of `slopes`, taken in increasing order,
    puts every point between the hulls in a half-open strip of vertical
    width 1: max(q y - p x) over the upper hull minus min(q y - p x) over the
    lower hull is below q.  As the slope grows, the maximum moves left along
    the upper hull and the minimum right along the lower one, so one pointer
    on each makes the pass linear."""
    up = upper[::-1]
    i = j = 0
    for p, q in slopes:
        def g(v):
            return q * v[1] - p * v[0]

        while i + 1 < len(up) and g(up[i + 1]) >= g(up[i]):
            i += 1
        while j + 1 < len(lower) and g(lower[j + 1]) <= g(lower[j]):
            j += 1
        if g(up[i]) - g(lower[j]) < q:
            return True
    return False


def _balanced(letters: tuple[Letter, ...]) -> bool:
    """Whether the counts of a in any two factors of equal length differ by at
    most one, in O(n) integer arithmetic.

    A finite word is balanced iff it is a factor of a mechanical word
    (Lothaire, Algebraic Combinatorics on Words, 2002, ch. 2), that is, iff
    the points (i, #a in w[:i]) fit a half-open strip of vertical width 1.
    The narrowest vertical strip around their convex hull has the slope of a
    hull edge, so only those slopes are tried."""
    if not set(letters) <= {A, B}:
        raise SturmianError("Sturmian windows must be over the letters a, b")
    if len(letters) < 2:
        return True
    points = list(enumerate(accumulate(map(A.__eq__, letters), initial=0)))
    upper, lower = _chain(points, 1), _chain(points, -1)

    def slopes(hull):
        return [(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]

    return (_strip_fits(slopes(lower), upper, lower)
            or _strip_fits(slopes(upper)[::-1], upper, lower))


def sturmian_window_check(w: Window) -> Optional[SturmianViolation]:
    """Search the window for an infix w' with both a w' a and b w' b present
    (the Sturmian balance criterion fails iff one exists); None means no
    violation within the window.

    Such an infix exists iff the window is unbalanced (Lothaire, Prop.
    2.1.3), so a balanced window is cleared by the linear balance test and
    only an unbalanced one is scanned for its first violation: the pair scan
    of the bridge's blocks, started at block boundaries.  A factor there
    follows an a1' and ends before a b1, so it reads a w' a; an image
    follows a b2 and ends before an a2', so it reads b w' b.  Two blocks
    that differ differ in their first letter, so a hit spans whole blocks."""
    if _balanced(w.letters):
        return None
    blocks = _blocks(w.letters)
    t = Track(blocks, False, False, range(0, len(blocks) + 1, 2))
    hit = next(pair_scan(t, (t,)))  # unbalanced: a hit exists
    of, oi, L = hit.of // 2, hit.oi // 2, hit.L // 2
    return SturmianViolation(w.letters[of:of + L], of - 1, oi - 1)


@dataclass(frozen=True)
class BridgeResult:
    string_window: Window
    word: PointedWord
    report: BrickReport
    violation: Optional[SturmianViolation]

    def consistent(self) -> bool:
        """Window-scale reading of the equivalence: a brick-word witness
        exists iff the Sturmian criterion is violated."""
        return (self.report.witness is None) == (self.violation is None)


@functools.cache
def lambda3_context() -> Context:
    """The context of Lambda_3, the bridge's algebra, built once per process."""
    return Context(lambda3())


RIGHT_INFINITE = "right-infinite-at-v2"
BI_INFINITE = "bi-infinite"


def bridge(w: Window, side: str = BI_INFINITE) -> BridgeResult:
    """Realize an {a,b} window over Lambda_3, transport it to the binary MIA,
    and run the windowed brick check next to the Sturmian check.

    side selects whether the window samples a right-infinite word starting at
    v2 (left edge closed) or a bi-infinite word (both edges open)."""
    if side not in (RIGHT_INFINITE, BI_INFINITE):
        raise SturmianError(f"unknown side {side!r}")
    if len(w.letters) > BRIDGE_CAP:
        raise CapExceeded(f"bridge window exceeds cap {BRIDGE_CAP} letters")
    if not w.letters:
        raise SturmianError("the bridge needs a nonempty window")
    violation = sturmian_window_check(w)  # rejects letters other than a, b
    ctx = lambda3_context()
    string_window = Window(_blocks(w.letters), w.certified_aperiodic, w.origin,
                           left_closed=(side == RIGHT_INFINITE),
                           right_closed=False)
    # the blocks always form a string, so the window is not validated: a
    # composition, backtrack or relation fault (Lambda_3's relations have
    # length 2) lies within two adjacent blocks, and aa ab ba bb are strings
    phi, mdelta = parity_mia(ctx)
    word = transport(phi, _pointed_word(ctx, string_window))
    report = is_brick_word(mdelta, word)
    return BridgeResult(string_window, word, report, violation)
