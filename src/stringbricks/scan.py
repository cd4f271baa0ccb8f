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
zero-length string at a gap or a gap class's one automaton state, as the
key, and filters the hits for whatever the key does not decide), and takes
an LCE only for pairs whose first letters agree; the others have L = 0.

Each track is read once into a code string, one character per letter,
from one code table shared by every scan.  The codes go up in four bands:
direct letters, a factor's closed end, an image's closed end, inverse
letters.  An open edge gets a code past every letter: above them after a
factor, below them after an image.  A factor ends before a direct letter
and an image before an inverse one, so at L a witness's factor code lies
below its image code: a witness's factor suffix sorts below its image
suffix (the suffix order of Manber and Myers, SIAM J. Comput. 1993, used
for one comparison per start, with no suffix array).  Hence once a walk
over the image starts with some key is done, a factor start whose suffix
is not below the greatest of their suffixes has no admissible pair with
them and is skipped; on a clean window that is one comparison per start.
The after-boundaries are two character comparisons, the before-boundaries
one translate table per side.  A suffix comparison and an LCE compare
slices in C whose length doubles (and, for the LCE, halves again), so they
read O(LCE) characters and copy no whole suffix.

`pair_scan` yields the admissible pairs one by one, in a fixed order, so a
route's first witness is the first hit it keeps.  On a string's two
tracks they and the identity are the graph maps, which form a basis of its
endomorphisms (Crawley-Boevey, J. Algebra 1989).  `witness` turns a hit
into the one witness record, which every route's `BrickReport` carries.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Hashable, Iterator, NamedTuple, Optional, Sequence

from .words import Letter, inv_seq


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
        """The letter at index i, None past either edge: an admissible
        occurrence never touches an open one."""
        return self.letters[i] if 0 <= i < len(self.letters) else None

    def inverse(self) -> "Track":
        """The inverse word with all of its gaps as starts and no keys."""
        return Track(inv_seq(self.letters), self.right_closed, self.left_closed)


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


def lce(u: Sequence, i: int, v: Sequence, j: int) -> int:
    """The longest common extension of u[i:] and v[j:], exactly: slices are
    compared in C, their length doubling after a match and halving after a
    mismatch, so the cost is O(log L) slice comparisons."""
    n = min(len(u) - i, len(v) - j)
    k, step = 0, 1
    while step:
        if k + step <= n and u[i + k:i + k + step] == v[j + k:j + k + step]:
            k += step
            step *= 2
        else:
            step //= 2
    return k


def _below(u: str, i: int, v: str, j: int) -> bool:
    """Whether the suffix u[i:] sorts below v[j:], for two code strings
    that differ past their common extension (distinct end codes, or distinct
    starts in one string): prefixes of doubling length are compared until
    they differ, so O(LCE) characters are read and no suffix is copied."""
    k = 1
    while True:
        a, b = u[i:i + k], v[j:j + k]
        if a != b:
            return a < b
        k *= 2


def _greatest(v: str, starts: list[int]) -> int:
    """The start of the greatest suffix of v among `starts`."""
    m = starts[0]
    for o in starts[1:]:
        if v[o] > v[m] or v[o] == v[m] and _below(v, m, v, o):
            m = o
    return m


class _Codes(dict):
    """Each letter's code, added on first sight.

    The codes go up in four bands: direct letters, a factor's closed end
    (`fend`), an image's closed end (`iend`), inverse letters.  An open edge
    is `top` after a factor and `bottom` after an image.  Each letter band
    holds `cap` codes, so code strings are ASCII until a band holds more
    than 62 letters; a letter past that doubles `cap` and lays every code
    out again.  `before[side]` is the translate table from a code to 1 or
    0: whether a factor (side 0: an inverse letter) or an image (side 1: a
    direct letter) may start after it; both read `bottom` as a closed left
    edge and `top` as an open one."""

    def __init__(self):
        super().__init__()
        self.bands: tuple[list, list] = ([], [])  # direct, inverse letters
        self.layout(62)

    def layout(self, cap: int) -> None:
        self.cap = cap
        self.fend, self.iend = chr(cap + 1), chr(cap + 2)
        self.bottom, self.top = chr(0), chr(2 * cap + 3)
        for b, band in enumerate(self.bands):
            for k, l in enumerate(band, 1):
                self[l] = chr(b * (cap + 2) + k)
        # indexed by code: bottom, direct letters, fend and iend, inverse letters, top
        no, yes = "\0" * cap, "\1" * cap
        self.before = ("\1" + no + "\0\0" + yes + "\0", "\1" + yes + "\0\0" + no + "\0")

    def __missing__(self, l: Letter) -> str:
        band = self.bands[l.inv]
        band.append(l)
        if len(band) > self.cap:
            self.layout(2 * self.cap)
            return self[l]
        code = self[l] = chr(l.inv * (self.cap + 2) + len(band))
        return code

    def starts(self, t: Track, s: str, side: int) -> list[int]:
        """The starts of t, ascending, whose before-letter (or closed left
        edge) admits a factor (side 0) or an image (side 1); s is t's code
        string."""
        edge = self.bottom if t.left_closed else self.top
        flags = (edge + s).translate(self.before[side]).encode()
        r = t.starts if t.starts is not None else range(len(flags))
        return list(compress(r, flags[r.start:r.stop:r.step]))


_CODES = _Codes()  # it holds only codes, so sharing it changes no result


def pair_scan(track: Track, images: Sequence[Track]) -> Iterator[Hit]:
    """Every pair of a factor occurrence in `track` and an image occurrence
    in one of `images` with the same content, as hits.

    Pairs come image track by image track in the given order (x before
    x^{-1}), then by factor start ascending, then by image start ascending;
    only starts with equal keys are paired, and a pair is yielded when both
    ends are admissible.  The identity pair (the same start in `track`
    itself, admissible only as the whole closed word) is excluded.  Once a
    factor start's walk over the image starts with its key is done, a later
    factor start whose suffix does not sort below the greatest of their
    suffixes is skipped: it has no admissible pair.
    """
    if not all(isinstance(t.letters, tuple) for t in (track, *images)):
        # every route builds its tracks from tuples; a list is a caller's slip
        raise TypeError("track letters must be a tuple")
    codes = _CODES
    code, cap = codes.__getitem__, codes.cap
    u = track.letters
    su = "".join(map(code, u))  # shared by the factor side and host 0
    strs = [su if t.letters is u else "".join(map(code, t.letters)) for t in images]
    if codes.cap != cap:  # a new letter laid the codes out again
        yield from pair_scan(track, images)
        return
    fend, iend = codes.fend, codes.iend
    F = su + (fend if track.right_closed else codes.top)
    fstarts = codes.starts(track, su, 0)
    fkeys = list(map(track.key, fstarts)) if track.key else [None] * len(fstarts)
    for h, t in enumerate(images):
        I = strs[h] + (iend if t.right_closed else codes.bottom)
        istarts = codes.starts(t, strs[h], 1)
        if t.key is None:
            buckets = {None: istarts} if istarts else {}
        else:
            buckets = defaultdict(list)
            for oi, key in zip(istarts, map(t.key, istarts)):
                buckets[key].append(oi)
        best = {}  # per key: the greatest image suffix, once a walk is done
        ident = t is track
        for of, key in zip(fstarts, fkeys):
            bucket = buckets.get(key)
            if bucket is None:
                continue
            m = best.get(key)
            if m is not None and (F[of] > I[m] or F[of] == I[m] and not _below(F, of, I, m)):
                continue
            c = F[of]
            for oi in bucket:
                if ident and of == oi:
                    continue
                L = 1 + lce(F, of + 1, I, oi + 1) if c == I[oi] else 0
                if F[of + L] <= fend and I[oi + L] >= iend:
                    yield Hit(h, of, oi, L)
            if m is None:
                best[key] = _greatest(I, bucket)
