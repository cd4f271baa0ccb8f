"""Strings and bands over a validated presentation.

A string is a composable, non-backtracking syllable sequence avoiding the
relations and their inverses; a zero-length string 1_(v,i) is its gap state
(v, i), the (dst, eps) of an empty sequence.  The Context object binds a
presentation with its sign maps and is the factory for all string values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .algebra import (Presentation, SignError, SignMaps, solve_sign_maps,
                      verify_sign_conditions)
from .words import (Letter, Window, Word, WordRep, inv_seq, parse_letter,
                    primitive_root, unfold_left, unfold_right)


class StringError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        super().__init__(message if position is None else f"{message} at position {position}")


class CapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Str:
    """A validated string with cached endpoints and signs.

    The zero-length string 1_(v,i) has empty letters, src = dst = v, eps = i
    and sig = -i.  Values are context-free once built.
    """

    letters: tuple[Letter, ...]
    src: str
    dst: str
    sig: int
    eps: int

    def is_zero(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Str":
        return Str(inv_seq(self.letters), self.dst, self.src, self.eps, self.sig)

    def key(self):
        """Deterministic sort key: zero-length strings by gap state first."""
        return (1, self.letters) if self.letters else (0, self.dst, self.eps)


@dataclass(frozen=True)
class Band:
    """A cyclic primitive string, first syllable inverse, last direct."""

    string: Str


class Context:
    """Presentation + sign maps, with the derived tables every string
    operation needs."""

    def __init__(self, presentation: Presentation, signs: SignMaps | None = None):
        # the gap-state table below is right only under conditions (a)-(c)
        if signs is not None and (bad := verify_sign_conditions(presentation, signs)):
            raise SignError("given signs violate " + "; ".join(bad))
        self.presentation = presentation
        self.signs = signs if signs is not None else solve_sign_maps(presentation)
        self.amap = presentation.arrow_map()
        self.rels = set(presentation.relations)
        self.maxrel = max((len(r) for r in presentation.relations), default=2)
        self._syllables = tuple(Letter(a, inv) for a in sorted(self.amap)
                                for inv in (False, True))
        self._vertices = frozenset(presentation.vertices)
        # each syllable under the gap state it leaves, at most two per key
        self.leaving: dict[tuple[str, int], list[Letter]] = {}
        for b in self._syllables:
            self.leaving.setdefault(self.gap_key((b,), 0), []).append(b)
        self.cache: dict = {}

    # syllable-level accessors -------------------------------------------------
    def letter_src(self, l: Letter) -> str:
        s, t = self.amap[l.sym]
        return t if l.inv else s

    def letter_dst(self, l: Letter) -> str:
        s, t = self.amap[l.sym]
        return s if l.inv else t

    def sig(self, l: Letter) -> int:
        return self.signs.sig(l)

    def eps(self, l: Letter) -> int:
        return self.signs.eps(l)

    def syllables(self) -> list[Letter]:
        """Every syllable, direct before inverse, by arrow name; a fresh list
        the caller may reorder."""
        return list(self._syllables)

    # construction -------------------------------------------------------------
    def zero(self, vertex: str, side: int) -> Str:
        if vertex not in self._vertices:
            raise StringError(f"unknown vertex {vertex}")
        if side not in (1, -1):
            raise StringError("side must be +1 or -1")
        return Str((), vertex, vertex, -side, side)

    def _relation_violation(self, seq: Sequence[Letter]) -> Optional[StringError]:
        """The error for the first relation (or inverse of one) in seq, by
        end index, then length, or None.  A relation window lies inside one
        run of same-direction syllables, so only windows within the current
        run are looked at."""
        run = 0
        for i, l in enumerate(seq):
            run = run + 1 if i and l.inv == seq[i - 1].inv else 1
            for L in range(2, min(run, self.maxrel) + 1):
                syms = tuple(x.sym for x in seq[i - L + 1:i + 1])
                if not l.inv:
                    if syms in self.rels:
                        return StringError(f"relation {' '.join(syms)} violated", i)
                elif syms[::-1] in self.rels:
                    return StringError(
                        f"inverse of relation {' '.join(syms[::-1])} violated", i)
        return None

    def make_string(self, syllables: Iterable[Letter]) -> Str:
        """Validate a syllable sequence; raises StringError naming the violated
        clause and position."""
        seq = tuple(syllables)
        if not seq:
            raise StringError("empty syllable sequence (use zero(v, side) for 1_(v,i))")
        for l in seq:
            if l.sym not in self.amap:
                raise StringError(f"unknown arrow {l.sym}")
        for i in range(1, len(seq)):
            p, l = seq[i - 1], seq[i]
            if self.letter_dst(p) != self.letter_src(l):
                raise StringError(
                    f"composition mismatch t({p})={self.letter_dst(p)}"
                    f" != s({l})={self.letter_src(l)}", i)
            if p.sym == l.sym and p.inv != l.inv:
                raise StringError(f"backtrack {p} {l}", i)
        if (err := self._relation_violation(seq)) is not None:
            raise err
        return self._positive(seq)

    def _positive(self, seq: tuple[Letter, ...]) -> Str:
        """The Str of a syllable sequence already known to be a string."""
        return Str(seq, self.letter_src(seq[0]), self.letter_dst(seq[-1]),
                   self.sig(seq[0]), self.eps(seq[-1]))

    def try_string(self, syllables: Iterable[Letter]) -> Optional[Str]:
        try:
            return self.make_string(syllables)
        except StringError:
            return None

    # literals -----------------------------------------------------------------
    def parse_literal(self, text: str) -> Str:
        """Parse 'b1 a1'' style literals or zero-length '1(v2,+1)'."""
        text = text.strip()
        if text.startswith("1(") and text.endswith(")"):
            body = text[2:-1]
            try:
                vertex, side = body.split(",")
                side = int(side)
            except ValueError:
                raise StringError(f"malformed zero-length literal {text!r}")
            return self.zero(vertex.strip(), side)
        toks = text.split()
        if not toks:
            raise StringError("empty string literal")
        return self.make_string(map(parse_letter, toks))

    @staticmethod
    def format_literal(x: Str) -> str:
        return " ".join(map(str, x.letters)) or f"1({x.dst},{x.eps:+d})"

    # gap bookkeeping ----------------------------------------------------------
    def gap_key(self, letters: Sequence[Letter], g: int) -> tuple[str, int]:
        """(vertex, side) of the zero-length string sitting at gap g of a
        syllable sequence, which it determines.

        At interior gaps the sign is forced by the preceding syllable; at the
        left end it is -sigma of the first syllable.
        """
        if g > 0:
            prev = letters[g - 1]
            return self.letter_dst(prev), self.eps(prev)
        first = letters[0]
        return self.letter_src(first), -self.sig(first)

    def gap_zero(self, letters: Sequence[Letter], g: int) -> Str:
        """The zero-length string sitting at gap g of a syllable sequence."""
        return self.zero(*self.gap_key(letters, g))

    # bands ----------------------------------------------------------------------
    def is_band(self, x: Str):
        """Return (Band, []) or (None, reasons)."""
        reasons = []
        if x.is_zero():
            return None, ["zero-length"]
        if x.src != x.dst:
            reasons.append(f"not cyclic: s={x.src}, t={x.dst}")
        root = primitive_root(x.letters)
        if len(root) != len(x.letters):
            reasons.append(f"not primitive: power of length {len(root)}")
        if not x.letters[0].inv:
            reasons.append("first syllable is direct")
        if x.letters[-1].inv:
            reasons.append("last syllable is inverse")
        # no relation window spans the join, where a direct meets an inverse
        if not reasons and x.letters[0] not in self.continuations(x.letters):
            reasons.append("square is not a string")
        if reasons:
            return None, reasons
        return Band(x), []

    def band_canonical(self, b: Band) -> Str:
        """Lexicographically least rotation of b or b^{-1} that satisfies the
        band boundary clauses; used for deduplication."""
        seqs = []
        for base in (b.string.letters, inv_seq(b.string.letters)):
            n = len(base)
            for r in range(n):
                rot = base[r:] + base[:r]
                if rot[0].inv and not rot[-1].inv:
                    seqs.append(rot)
        return self.make_string(min(seqs))

    # enumeration ------------------------------------------------------------------
    def continuations(self, seq: Sequence[Letter]) -> list[Letter]:
        """Syllables extending a valid string: those leaving its right gap
        state, less any that closes a relation window.  Under (a)-(c) this
        needs no composition or backtrack test: a syllable b with
        s(b) = t(last) that is no backtrack and closes no length-2 relation
        has sigma(b) = -eps(last) ((a) or (b) when the directions differ,
        (c) when they agree), while sigma(last^-1) = eps(last)."""
        tail = tuple(seq[-(self.maxrel - 1):])
        return [b for b in self.leaving.get(self.gap_key(seq, len(seq)), ())
                if self._relation_violation(tail + (b,)) is None]

    def _walk(self, seeds: Iterable[Letter], max_len: int, cap: int, found: int = 0):
        """Every string of 1..max_len syllables starting with one of seeds,
        grown by continuations and never validated again; CapExceeded once
        found plus the strings walked pass cap."""
        if max_len < 0:
            raise StringError(f"max_len must be >= 0, got {max_len}")
        stack = [(l,) for l in seeds] if max_len else []
        while stack:
            seq = stack.pop()
            found += 1
            if found > cap:
                raise CapExceeded(f"more than {cap} strings")
            yield seq
            if len(seq) < max_len:
                stack.extend(seq + (nxt,) for nxt in self.continuations(seq))

    def enumerate_strings(self, max_len: int, cap: int = 200000) -> list[Str]:
        """All strings of length <= max_len, zero-length ones included; the
        cap counts them all."""
        out = [self.zero(v, i) for v in self.presentation.vertices for i in (1, -1)]
        out += map(self._positive, self._walk(self._syllables, max_len, cap, len(out)))
        out.sort(key=Str.key)
        return out

    def enumerate_bands(self, max_len: int, cap: int = 200000) -> list[Band]:
        """All bands of length <= max_len up to rotation/inversion, in
        canonical form.  A canonical band starts with an inverse syllable,
        so only strings that do are walked, and the cap counts them."""
        seen: dict = {}
        for seq in self._walk([l for l in self._syllables if l.inv], max_len, cap):
            band, _ = self.is_band(self._positive(seq))
            if band is not None:
                canon = self.band_canonical(band)
                seen[canon.key()] = Band(canon)
        return [seen[k] for k in sorted(seen)]

    # infinite representations -------------------------------------------------
    def validate_inf_str(self, rep: WordRep) -> None:
        """Check that a window, or every unfolded window of an eventually
        periodic word, is a valid string (the core with two periods and a
        margin on each infinite side suffices)."""
        if isinstance(rep, Window):
            self.make_string(rep.letters)
            return
        lp, rp, k = rep.left_period, rep.right_period, self.maxrel
        if not (lp or rp):
            raise StringError("unsupported representation: a finite word")
        self.make_string(unfold_left(Word(lp), 2 * len(lp) + k) + rep.core
                         + unfold_right(Word(right_period=rp), 2 * len(rp) + k))

