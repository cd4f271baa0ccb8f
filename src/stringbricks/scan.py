"""The factor/image pair scan behind every witness search.

Every brick criterion asks one question: is some (pointed) word both a factor
occurrence in a host x and an image occurrence in x or x^{-1}?  A factor
occurrence has an inverse letter (or the closed word end) before it and a
direct letter (or the closed end) after it; an image occurrence has the
mirror boundary.  An occurrence touching an open edge (the word goes on
beyond the scanned letters) cannot be classified and does not count.

For a pair of starts (factor start of, image start oi) the only possible
witness length is L = LCE(of, oi): at any shorter length both after-letters
are the same letter, which cannot be direct on one side and inverse on the
other, nor flush with a word end.  So the scan pairs only starts whose
start keys agree (each route supplies its own notion of gap state, the
zero-length string at a gap or an automaton state, as the key, and a
predicate for whatever the key does not decide), and takes an LCE only for
pairs whose first letters agree; the others have L = 0.  The LCE is exact:
letters are tuples, so it compares tuple slices in C, with no hashing and
no index to build.  `witness` turns a hit into the one witness record,
which every route's `BrickReport` carries.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Hashable, NamedTuple, Optional, Sequence

from .words import Letter, inv_seq

OPEN = object()  # the boundary past an open edge


class Rule(NamedTuple):
    """Which boundary letters an occurrence admits; None is a closed end."""

    before: Callable[[Optional[Letter]], bool]
    after: Callable[[Optional[Letter]], bool]


FACTOR = Rule(lambda b: b is None or b.inv, lambda a: a is None or not a.inv)
IMAGE = Rule(lambda b: b is None or not b.inv, lambda a: a is None or a.inv)


class Track(NamedTuple):
    """A scanned letter sequence.

    starts limits the gaps an occurrence may start at (default: all of
    0..n); key(g) is the start key of gap g (default: one key for all).
    """

    letters: tuple
    left_closed: bool = True
    right_closed: bool = True
    starts: Optional[range] = None
    key: Optional[Callable[[int], Hashable]] = None

    def boundary(self, i: int):
        """The letter at index i; None past a closed edge, OPEN past an open one."""
        if i < 0:
            return None if self.left_closed else OPEN
        if i >= len(self.letters):
            return None if self.right_closed else OPEN
        return self.letters[i]

    def inverse(self, key: Optional[Callable[[int], Hashable]] = None) -> "Track":
        """The inverse word with all of its gaps as starts."""
        return Track(inv_seq(self.letters), self.right_closed, self.left_closed,
                     key=key)


def unroll(q: Sequence[Letter], starts: int, span: int) -> Track:
    """The purely periodic word ^infinity(q)^infinity as a track with open
    edges.  Gap g (0 <= g < starts) sits at index g + 1, after its
    before-letter and followed by at least `span` letters and an
    after-letter, so the scan sees every witness of length up to `span`.
    With span >= |q| that is every witness: x and x^{-1} are |q|-periodic,
    so two starts that agree on |q| letters agree forever (the equal-period
    case of Fine and Wilf, 1965); every witness is shorter than |q|."""
    P = len(q)
    letters = tuple(q[(k - 1) % P] for k in range(starts + span + 1))
    return Track(letters, False, False, range(1, starts + 1))


class Hit(NamedTuple):
    host: int  # index of the image track
    of: int    # factor start
    oi: int    # image start
    L: int


@dataclass(frozen=True)
class SpanOcc:
    start: int
    end: int
    before: Optional[str]
    after: Optional[str]


@dataclass(frozen=True)
class BrickWitness:
    content: str
    factor: SpanOcc
    image: SpanOcc
    image_host: str  # "x" | "x-inverse"


@dataclass(frozen=True)
class BrickReport:
    verdict: bool
    method: str
    witness: Optional[BrickWitness]
    periodicity: str
    scope: str
    reason: str = ""


def witness(track: Track, images: Sequence[Track], hit: Hit, zero: str,
            shift: int = 0) -> BrickWitness:
    """The witness of a hit of pair_scan(track, images): its letters (or,
    when L = 0, the route's label `zero` of the zero-length word) and both
    occurrences with their boundary letters as text.  `shift` maps track
    indices back to word gaps."""
    def occ(t: Track, o: int) -> SpanOcc:
        b, a = t.boundary(o - 1), t.boundary(o + hit.L)
        return SpanOcc(o - shift, o + hit.L - shift,
                       None if b is None else str(b), None if a is None else str(a))

    content = " ".join(map(str, track.letters[hit.of:hit.of + hit.L])) if hit.L else zero
    return BrickWitness(content, occ(track, hit.of), occ(images[hit.host], hit.oi),
                        ("x", "x-inverse")[hit.host])


def lce(u: tuple, i: int, v: tuple, j: int) -> int:
    """The longest common extension of u[i:] and v[j:], exactly: tuple
    slices are compared in C, their length doubling after a match and
    halving after a mismatch, so the cost is O(log L) slice comparisons."""
    n = min(len(u) - i, len(v) - j)
    k, step = 0, 1
    while step:
        if k + step <= n and u[i + k:i + k + step] == v[j + k:j + k + step]:
            k += step
            step *= 2
        else:
            step //= 2
    return k


def _rule_at(t: Track, rule: Callable[[Optional[Letter]], bool]) -> list:
    """rule at letter index i as entry i + 1, for i = -1..n: the closed ends
    read None, an open end is False."""
    return [t.left_closed and rule(None), *map(rule, t.letters),
            t.right_closed and rule(None)]


def _starts(t: Track, before: list) -> list[tuple[int, Optional[Letter], Hashable]]:
    """The admissible starts with their first letter (None at the word end)
    and start key."""
    u, n = t.letters, len(t.letters)
    return [(o, u[o] if o < n else None, t.key(o) if t.key else None)
            for o in (t.starts if t.starts is not None else range(n + 1)) if before[o]]


def pair_scan(track: Track, images: Sequence[Track],
              accept: Optional[Callable[[Hit], bool]] = None,
              rules: tuple[Rule, Rule] = (FACTOR, IMAGE)) -> Optional[Hit]:
    """The first pair of a factor occurrence in `track` and an image
    occurrence in one of `images` with the same content.

    Pairs are tried image track by image track in the given order (x before
    x^{-1}), then by factor start ascending, then by image start ascending;
    only starts with equal keys are paired, and a pair is returned when both
    ends obey the rules and `accept` (if any) agrees.  The identity pair (the
    same start in `track` itself, which the rules admit only as the whole
    closed word) is excluded.
    """
    if not all(isinstance(t.letters, tuple) for t in (track, *images)):
        # a list slice never equals a tuple slice, so a list would get LCE 0
        raise TypeError("track letters must be a tuple")
    frule, irule = rules
    u = track.letters
    fstarts = _starts(track, _rule_at(track, frule.before))
    fafter = _rule_at(track, frule.after)
    for h, t in enumerate(images):
        v = t.letters
        iafter = _rule_at(t, irule.after)
        buckets = defaultdict(list)
        for oi, b, key in _starts(t, _rule_at(t, irule.before)):
            buckets[key].append((oi, b))
        for of, a, key in fstarts:
            for oi, b in buckets.get(key, ()):
                if t is track and of == oi:
                    continue
                L = 1 + lce(u, of + 1, v, oi + 1) if a is not None and a == b else 0
                if fafter[of + L + 1] and iafter[oi + L + 1]:
                    hit = Hit(h, of, oi, L)
                    if accept is None or accept(hit):
                        return hit
    return None
