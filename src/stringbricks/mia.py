"""Multi-entry inverse automata and pointed words.

An MIA is a deterministic partial automaton over a signed alphabet with a set
of initial states, a fixed-point-free involution on them, and a projection e
onto initial states compatible with transitions.  A pointed word carries a
basepoint initial state at one gap; the shift relation ~ moves the basepoint
along the run, and subwords anchor at gaps whose achievable basepoint state
matches the needle's.

Key facts the implementation leans on (checked by the test suite):
  * rightward basepoint shifts are deterministic, so two placements of the
    same underlying word are ~-equivalent iff their forward chains merge;
  * for finite words the chains merge iff they agree at the final gap;
  * for purely periodic words the shift is a function on (gap mod T,
    initial state), where T is the period of the base chain's cycle, so a
    valid placement is in the class iff its forward path reaches that
    cycle;
  * on a reversible MIA (`Mia.reversible`; every string algebra's is) each
    gap class holds one state, which keys the tracks (`_keyed`), and
    inversion carries the class of a finite word onto its inverse's, which
    `_brick_word` checks.

Every host reads the MIA through its per-letter tables.  Over a binary MIA
one letter's row holds nearly every state, so no host tabulates every state
at every gap: both class-computing hosts walk their class back through the
shift's preimages (`Mia.pre`) by one rule, `_walk_back`, the finite host
from its end state and the periodic host from its base chain's cycle, gaps
read mod T.  Only candidate runs are walked, each (gap, state) once, so
the walk is about linear in the word there.

`_host` maps a pointed word's shape to its host once: a finite word, a
purely periodic word, or a window word (a window with the basepoint at its
left edge, whose inverse `PointedWord.inverse` points at the left edge
again).  Each host carries the track its scan reads and its gap classes.
So the (weak) brick-word witness is the first hit of one pair scan of
`scan`, over the hosts of a word and its inverse, whose right ends share a
state, and one report path serves every shape.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from .scan import BrickReport, Track, pair_scan, unroll, witness
from .words import (Letter, Window, Word, WordRep, classify_periodicity,
                    inverse_of, invert, parse_letter)
from .words import APERIODIC, FINITE, UNKNOWN


class MiaError(ValueError):
    pass


class UnsupportedRepresentation(MiaError):
    pass


@dataclass(frozen=True)
class Mia:
    states: tuple[str, ...]
    initial: tuple[str, ...]
    inv: Mapping[str, str]
    e: Mapping[str, str]
    alphabet: tuple[str, ...]
    trans: Mapping[tuple[str, Letter], str]

    def step(self, state: str, letter: Letter) -> Optional[str]:
        return self.trans.get((state, letter))

    @cached_property
    def by_letter(self) -> dict[Letter, dict[str, str]]:
        """The transitions as {letter: {state: next state}}, built on first use."""
        table: dict[Letter, dict[str, str]] = {}
        for (x, l), y in self.trans.items():
            table.setdefault(l, {})[x] = y
        return table

    @cached_property
    def pre(self) -> dict[Letter, dict[str, list[str]]]:
        """The shift's preimages as {letter: {initial t: initial states s
        with e(t(s, letter)) = t}}, keyed like `by_letter` and built on
        first use; each row holds one state when the MIA is `reversible`."""
        table: dict[Letter, dict[str, list[str]]] = {}
        initial = set(self.initial)
        for (x, l), y in self.trans.items():
            if x in initial:
                table.setdefault(l, {}).setdefault(self.e[y], []).append(x)
        return table

    @cached_property
    def reversible(self) -> bool:
        """Whether every shift can be inverted: for each initial s and letter
        l with y = t(s, l), t(inv e(y), l^{-1}) is defined and its e is inv s.
        With axiom 3, which every host assumes:
          * every row of `pre` holds one state: if s1 and s2 shift by l onto
            t, inv s1 = e(t(inv t, l^{-1})) = inv s2, and inv is injective;
          * inversion maps the ~-class of a finite word w onto that of w^{-1}
            (`_check_inversion`): a placement is valid iff its inverse is,
            and a shift edge (g, s) -> (g + 1, s') of w is the edge
            (n - g - 1, inv s') -> (n - g, inv s) of w^{-1};
          * so a class is one path of placements, one state a gap: a periodic
            word's base cycle, or a finite word's base chain and, left of the
            base, the inverse of w^{-1}'s when w^{-1} is valid (else the left
            shift of p, which shifts onto p, may have a right run that dies).
        Every string algebra passes: in M_Lambda a syllable l leaves 1(v, i)
        for e = 1(t(l), eps(l)), and l^{-1} leaves 1(t(l), -eps(l)), as
        sigma(l^{-1}) = eps(l), for 1(s(l), sigma(l)) = inv 1(v, i); and
        relabelling by phi commutes with inversion, so M_Lambda-delta passes."""
        initial, trans, e, inv = set(self.initial), self.trans, self.e, self.inv
        return all(e.get(trans.get((inv.get(e.get(y)), inverse_of(l)))) == inv.get(s)
                   for (s, l), y in trans.items() if s in initial)

    def run(self, state: str, word: Sequence[Letter]) -> Optional[str]:
        """Extended transition; undefined propagates as None."""
        for l in word:
            if state is None:
                return None
            state = self.trans.get((state, l))
        return state

    def letters(self) -> list[Letter]:
        out = []
        for a in self.alphabet:
            out.append(Letter(a, False))
            out.append(Letter(a, True))
        return out

    def is_binary(self) -> bool:
        return self.alphabet == ("0",)

    def edges(self) -> list[tuple[str, str, str]]:
        """The transitions as sorted (source, letter, target) text; a binary
        MIA writes its letters 0 and 1, which sort as 0 and 0' do."""
        binary = self.is_binary()
        return sorted((x, ("1" if l.inv else "0") if binary else str(l), y)
                      for (x, l), y in self.trans.items())


def validate_mia(m: Mia) -> list[tuple[str, str]]:
    """Check the three MIA axioms plus table well-formedness; returns a list
    of (axiom code, locus), empty when everything passes."""
    bad: list[tuple[str, str]] = []
    sset = set(m.states)
    iset = set(m.initial)
    for name, listed in (("state", m.states), ("initial state", m.initial)):
        for x, k in Counter(listed).items():
            if k > 1:
                bad.append(("0", f"duplicate {name} {x}"))
    if not iset <= sset:
        bad.append(("0", "initial states not a subset of states"))
    for v in m.initial:
        w = m.inv.get(v)
        if w is None or w not in iset:
            bad.append(("1", f"involution undefined or leaves initial states at {v}"))
        elif w == v:
            bad.append(("1", f"involution has fixed point {v}"))
        elif m.inv.get(w) != v:
            bad.append(("1", f"involution not an involution at {v}"))
    for x in m.states:
        ex = m.e.get(x)
        if ex is None or ex not in iset:
            bad.append(("0", f"e({x}) is not an initial state"))
    for v in m.initial:
        if m.e.get(v) != v:
            bad.append(("2", f"e({v}) != {v}"))
    for (x, l), y in m.trans.items():
        if x not in sset or y not in sset:
            bad.append(("0", f"transition {x} --{l}--> {y} uses unknown states"))
        if l.sym not in m.alphabet:
            bad.append(("0", f"transition letter {l} outside the alphabet"))
    for (x, l), y in m.trans.items():
        if x not in m.e or y not in m.e:
            continue  # already reported above
        ye = m.step(m.e[x], l)
        if ye is None:
            bad.append(("3", f"t({x},{l}) defined but t(e({x})={m.e[x]},{l}) is not"))
        elif m.e[y] != m.e.get(ye, object()):
            bad.append(("3", f"e(t({x},{l})) != e(t(e({x}),{l})) at ({x},{l})"))
    return bad


@dataclass(frozen=True)
class PointedWord:
    """(left, basepoint, right); left is a Word with no right period, right
    is a Word with no left period, or a Window with the basepoint at its left
    edge (and an empty left)."""

    left: WordRep
    base: str
    right: WordRep

    def inverse(self, m: Mia) -> "PointedWord":
        """The inverse word, pointed at the involuted basepoint; a window
        word's inverse is again a window word, pointed at its left edge,
        which is the right end of the window: the involution of the state
        there.  MiaError when the window's run is undefined."""
        if isinstance(self.right, Window):
            end = m.run(self.base, self.right.letters)
            if end is None:
                raise MiaError("window run undefined")
            return PointedWord(Word(), m.inv[m.e[end]], invert(self.right))
        return PointedWord(invert(self.right), m.inv[self.base], invert(self.left))


def finite_word(left: Sequence[Letter], base: str, right: Sequence[Letter]) -> PointedWord:
    return PointedWord(Word(core=left), base, Word(core=right))


def underlying(w: PointedWord) -> WordRep:
    """The two-sided word rep obtained by forgetting the basepoint."""
    l, r = w.left, w.right
    if isinstance(r, Window):
        if l != Word():
            raise UnsupportedRepresentation("window words must have an empty left part")
        return r
    if isinstance(l, Window) or l.right_period or r.left_period:
        raise UnsupportedRepresentation(
            "a left part must be a Word with no right period, and a right part "
            "have no left period")
    return Word(l.left_period, l.core + r.core, r.right_period)


# ---------------------------------------------------------------------------
# hosts: one per pointed-word shape, each with the track its scan reads and
# its gap classes state_at(g)


def _runs(steps: list, d: int, stop: Optional[int] = None) -> Callable[[int, str], bool]:
    """defined(g, x): whether x's run from gap g reaches gap `stop`, or,
    with no stop, is defined forever, where gap g steps by `steps[g]` to gap
    g + d, read mod len(steps).  A walk stops at the first decided (gap,
    state) and its path takes that verdict; a walk that meets its own path
    has closed a cycle of defined steps, so its verdict is True.  Each
    (gap, state) is walked once, by a loop, not by recursion."""
    memo: list[dict[str, bool]] = [{} for _ in steps]
    P = len(steps)

    def defined(g: int, x: str) -> bool:
        g0, path, ok = g, [], True
        while g != stop:
            known = memo[g].get(x)
            if known is not None:
                ok = known
                break
            memo[g][x] = True  # on the path: meeting it again closes a cycle
            path.append(x)
            x = steps[g].get(x)
            if x is None:
                ok = False
                break
            g = (g + d) % P
        if not ok:
            for y in path:
                memo[g0][y] = False
                g0 = (g0 + d) % P
        return ok

    return defined


def _walk_back(h: int, seed: str, fwd: list, into: list, inv: Mapping[str, str],
               left: Callable[[int, str], bool],
               right: Callable[[int, str], bool]) -> list[frozenset]:
    """The gap classes G[g], gaps read mod len(fwd), of the valid
    placements whose forward paths reach `seed` at gap h.

    Gap g shifts to gap g + 1 by `fwd[g]`, whose preimages `into[g]` are a
    row of `Mia.pre`.  p at gap g joins G[g] when it shifts into G[g + 1],
    its involution's left run, left(g, inv p), is defined and its right
    run, right(g + 1, fwd[g][p]), is defined; the seed is tested as well.
    The walk stops at the first gap that gains nothing.  Each (gap, state)
    joins once, and only the preimages of joined states are tested."""
    T = len(fwd)
    G = [frozenset()] * T
    new = frozenset((seed,)) if left(h, inv[seed]) and right(h, seed) else ()
    while new:
        G[h] = G[h] | new if G[h] else new
        h = (h - 1) % T
        step = fwd[h]
        new = frozenset(p for t in new for p in into[h].get(t, ()) if p not in G[h]
                        and left(h, inv[p]) and right((h + 1) % T, step[p]))
    return G


def _keyed(m: Mia, G: list, track: Track) -> Track:
    """The track keyed at word gap g by the one state of class G[g] when m
    is reversible (an empty class, key None, means an invalid inverse word,
    which `_brick_word` refuses before any scan), else one key for all.
    Equal keys pair exactly the starts whose right ends share a state: shifts
    are deterministic, and a common end state walks back to one start state."""
    if not m.reversible:
        return track
    return track._replace(keys=[None] * track.offset + [next(iter(c), None) for c in G])


class _FiniteHost:
    """A finite pointed word with its full ~-class.

    G[g] is the set of basepoint states achievable at gap g among valid
    placements equivalent to the given one.  Valid placements are closed
    under the rightward shift, which is a function (axiom 3), so the class
    is the set of valid placements whose forward path reaches the base
    chain's state at the last gap.  `_walk_back` finds it from there: p at
    gap g joins when it shifts into G[g + 1], its run over u[g:] is defined
    and its involution's run over u[:g]^{-1} is defined.  The base is valid
    iff it joins.  Only candidates' runs are walked, each (gap, state)
    once, so the cost is O(n) plus those runs: never more than n x |states|,
    and about 2n on a binary MIA, where runs merge after a step.
    """

    def __init__(self, m: Mia, u: tuple[Letter, ...], bpos: int, base: str):
        self.u = u
        self.bpos = bpos
        n = len(u)
        table, e = m.by_letter, m.e
        fwd = [table.get(l, {}) for l in u]  # gap g to g + 1 reads u[g]
        s = base
        for g in range(bpos, n):
            s = fwd[g].get(s)
            if s is None:
                raise MiaError("not a valid pointed word")
            s = e[s]
        # gap n reads no letter, so the walk back stops at gap 0; the left
        # run steps from gap g to g - 1 over u[g - 1]^{-1}
        fwd.append({})
        self.G = _walk_back(n, s, fwd, [*(m.pre.get(l, {}) for l in u), {}], m.inv,
                            _runs([{}, *(table.get(l, {}) for l in map(inverse_of, u))], -1, 0),
                            _runs(fwd, 1, n))
        if base not in self.G[bpos]:
            raise MiaError("not a valid pointed word")
        self.track = _keyed(m, self.G, Track(u))

    def state_at(self, g: int) -> frozenset:
        return self.G[g]


class _PeriodicHost:
    """Host for ^infinity(q)^infinity with the basepoint at a period seam.

    G[r] is the set of achievable basepoint states at gaps congruent to
    r mod T, where T is the gap-cycle length of the base placement chain (a
    multiple of the letter period |q|; translation by T fixes the ~-class, so
    the class really is T-periodic even when the letters are more symmetric
    than the gap states).  Gap 0 is the seam the basepoint sits at.

    The rightward shift is a function on placements (gap mod T, initial
    state), and the base chain ends in a cycle of T placements.  Two chains
    merge iff they meet on that cycle at the same gap, so a valid placement
    is in the class iff its forward path reaches the cycle: `_walk_back`
    finds the class from the chain's last placement before it repeats,
    with runs read mod T that must be defined forever, as the finite host
    finds its class from its end state.  The base is valid iff it joins.
    """

    def __init__(self, m: Mia, q: tuple[Letter, ...], base: str):
        self.q = q
        P = self.P = len(q)
        table, e = m.by_letter, m.e
        fwd = [table.get(l, {}) for l in q]  # gap r to r + 1 reads q[r]
        # walk the base chain until (gap mod P, state) repeats; the distance
        # between repeats is the gap period T of the whole class
        seen: dict[tuple[int, str], int] = {}
        r, s = 0, base
        while (r, s) not in seen:
            seen[r, s] = len(seen)
            last = s
            s = fwd[r].get(s)
            if s is None:
                raise MiaError("not a valid pointed word")
            r, s = (r + 1) % P, e[s]
        T = self.T = len(seen) - seen[r, s]
        k = T // P  # the tables unrolled to gaps mod T
        fwd *= k
        back = [table.get(l, {}) for l in map(inverse_of, q[-1:] + q[:-1])]
        self.G = _walk_back((len(seen) - 1) % T, last, fwd,
                            [m.pre.get(l, {}) for l in q] * k, m.inv,
                            _runs(back * k, -1), _runs(fwd, 1))
        if base not in self.G[0]:
            raise MiaError("not a valid pointed word")
        # anchors range over the gap period, which may be a proper multiple of
        # the letter period; every witness is shorter than the letter period
        self.track = _keyed(m, self.G, unroll(q, T, P))

    def state_at(self, g: int) -> frozenset:
        return self.G[g % self.T]


class _WindowHost:
    """A window with the basepoint at its left edge: a finite view of an
    infinite word.

    The gap class at gap g is the singleton of the state of the single
    forward gap chain there, and the track keys each gap by that state, so
    every hit of the keyed scan has a common state (see `_keyed`).  The
    chain is the whole ~-class when each chain state has one preimage across
    its letter, which a reversible MIA gives and any other must show.
    """

    def __init__(self, m: Mia, window: Window, base: str):
        table, e = m.by_letter, m.e
        run = base
        chain = [base]
        for g, l in enumerate(window.letters):
            run = table.get(l, {}).get(run)
            if run is None:
                raise MiaError(f"window run undefined at position {g}")
            chain.append(e[run])
        self.chain = chain
        self.track = Track(window.letters, window.left_closed, window.right_closed,
                           keys=chain)
        if not m.reversible and any(len(m.pre[l].get(chain[g + 1], ())) != 1
                                    for g, l in enumerate(window.letters)):
            raise UnsupportedRepresentation(
                "window gap states are not single-valued; "
                "use the finite machinery instead")

    def state_at(self, g: int) -> frozenset:
        return frozenset((self.chain[g],))


def _host(m: Mia, w: PointedWord):
    """The host of w's shape: a window word, a finite word, or a purely
    periodic word with its basepoint at a seam.  UnsupportedRepresentation
    for any other shape; MiaError unless w is valid over m."""
    rep = underlying(w)
    if w.base not in m.initial:
        raise MiaError(f"basepoint {w.base!r} is not an initial state")
    if isinstance(rep, Window):
        return _WindowHost(m, rep, w.base)
    if not (rep.left_period or rep.right_period):
        return _FiniteHost(m, rep.core, len(w.left.core), w.base)
    if rep.core or rep.left_period != rep.right_period:
        raise UnsupportedRepresentation(
            "periodic machinery needs a purely periodic two-sided word")
    return _PeriodicHost(m, w.right.right_period, w.base)


def check_word(m: Mia, w: PointedWord) -> None:
    """Raise MiaError unless w is a valid pointed word over m."""
    _host(m, w)


def equivalent(m: Mia, w1: PointedWord, w2: PointedWord) -> bool:
    """Basepoint-shift equivalence: same underlying word, and the forward
    placement chains merge."""
    h1, h2 = _host(m, w1), _host(m, w2)
    if isinstance(h1, _WindowHost) or isinstance(h2, _WindowHost):
        raise UnsupportedRepresentation("a window does not decide equivalence")
    if type(h1) is not type(h2):
        return False
    if isinstance(h1, _FiniteHost):
        return h1.u == h2.u and w2.base in h1.G[h2.bpos]
    P = h1.P
    if h2.P != P:
        return False
    for d in range(P):
        if all(h2.q[i] == h1.q[(i + d) % P] for i in range(P)):
            # the seam of w2 may sit at any gap congruent to d mod P
            if any(w2.base in h1.state_at(d + k * P) for k in range(h1.T // P)):
                return True
    return False


def shift_basepoint(m: Mia, w: PointedWord, steps: int) -> PointedWord:
    """Move the basepoint of a finite word `steps` gaps to the right
    (negative = left), staying inside the ~-class: the representative with
    the least state of the class at that gap."""
    host = _host(m, w)
    if not isinstance(host, _FiniteHost):
        raise UnsupportedRepresentation("shift_basepoint expects a finite word")
    u, g = host.u, host.bpos + steps
    if not 0 <= g <= len(u):
        raise MiaError("shift leaves the word")
    if not host.G[g]:
        raise MiaError("no equivalent placement at that gap")
    return finite_word(u[:g], min(host.G[g]), u[g:])


# ---------------------------------------------------------------------------
# brick words


def _report(hosts: tuple, cls: str, weak: bool) -> BrickReport:
    """The report of one scan over the hosts of a word and of its inverse.

    A hit is a witness when the gap classes at the right ends of its factor
    (in x) and image (in x or x^{-1}) occurrences share a state, shown as
    `<state>` when the witness is zero-length: forward basepoint shifts are
    deterministic, so a state common to both classes at some gap of the span
    carries over to its right end, and only that is tested.  A word and its
    inverse share one MIA, so their tracks are keyed together (`_keyed`),
    and start keys pair only starts that pass.  A word is a weak brick word
    iff the scan finds no witness; a brick word must also be aperiodic,
    which a finite word is, and a window if it is certified."""
    tracks = tuple(h.track for h in hosts)
    x = tracks[0]

    def common(hit):
        return (hosts[0].state_at(hit.of + hit.L - x.offset)
                & hosts[hit.host].state_at(hit.oi + hit.L - tracks[hit.host].offset))

    hit = next((hit for hit in pair_scan(x, tracks) if common(hit)), None)
    found = None if hit is None else witness(x, tracks, hit, f"<{min(common(hit))}>")
    scope = f"window {len(x.letters)}" if isinstance(hosts[0], _WindowHost) else "exact"
    return BrickReport(found is None and (weak or cls != UNKNOWN), "automaton",
                       found, cls, scope)


def _check_inversion(m: Mia, host: _FiniteHost, inverse: _FiniteHost) -> None:
    """RuntimeError unless inversion maps the ~-class of a finite word w into
    that of w^{-1}, gap g to n - g, as a reversible MIA guarantees.  Each
    placement in a class ends on one state, so it has the same classes: the
    check covers every representative and the verdict."""
    n, inv, Ginv = len(host.u), m.inv, inverse.G
    if any(inv[s] not in Ginv[n - g] for g, cls in enumerate(host.G) for s in cls):
        raise RuntimeError("gap classes not invariant under basepoint shift")


def _brick_word(m: Mia, w: PointedWord, weak: bool) -> BrickReport:
    """Both notions share the witness search; only a brick word must also
    be aperiodic."""
    cls = classify_periodicity(underlying(w))
    if not weak and cls not in (FINITE, APERIODIC, UNKNOWN):
        # every eventually periodic rep is almost periodic, hence not
        # aperiodic; the word is still validated, on its host when it has
        # one, and a word with a core, which has none, by its basepoint
        try:
            _host(m, w)
        except UnsupportedRepresentation:
            pass
        return BrickReport(False, "automaton", None, cls, "exact")
    host = _host(m, w)
    try:
        hosts = host, _host(m, w.inverse(m))
    except UnsupportedRepresentation:
        raise
    except MiaError as err:
        raise MiaError(f"the inverse word is not valid: {err}") from err
    if m.reversible and isinstance(host, _FiniteHost):
        _check_inversion(m, *hosts)
    return _report(hosts, cls, weak)


def is_brick_word(m: Mia, w: PointedWord) -> BrickReport:
    """Brick word: the underlying word is aperiodic and no pointed word is
    simultaneously a factor subword of w and an image subword of w or w^{-1}
    (the identity pair excluded)."""
    return _brick_word(m, w, weak=False)


def is_weak_brick_word(m: Mia, w: PointedWord) -> BrickReport:
    """Weak brick word: no finite common factor/image pointed subword; no
    aperiodicity requirement."""
    return _brick_word(m, w, weak=True)


# ---------------------------------------------------------------------------
# local bijections, relabeling, transport


def _preimages(m: Mia, phi: Mapping[str, str]) -> Optional[dict[tuple[str, Letter], Letter]]:
    """{(state, image letter): preimage} over the transitions on phi's
    domain, or None when two letters defined at one state share an image."""
    if set(phi) != set(m.alphabet):
        raise MiaError("phi must be defined on exactly the alphabet")
    image = {l: Letter(phi[l.sym], l.inv) for l in {l for _, l in m.trans} if l.sym in phi}
    table: dict[tuple[str, Letter], Letter] = {}
    for x, l in m.trans:
        if l in image and table.setdefault((x, image[l]), l) != l:
            return None
    return table


def check_local_bijection(m: Mia, phi: Mapping[str, str]) -> bool:
    """phi: A -> A' surjective; true iff the induced map on signed letters is
    injective on each state's set of defined letters."""
    return _preimages(m, phi) is not None


def relabel(m: Mia, phi: Mapping[str, str]) -> Mia:
    """The MIA over the image alphabet; t'(v, phi(b)) = t(v, b)."""
    pre = _preimages(m, phi)
    if pre is None:
        raise MiaError("phi is not a local bijection for this MIA")
    if len(pre) != len(m.trans):
        raise MiaError("a transition letter lies outside the alphabet")
    trans = {(x, il): m.trans[x, l] for (x, il), l in pre.items()}
    return Mia(m.states, m.initial, m.inv, m.e, tuple(sorted(set(phi.values()))), trans)


def _phi_letters(phi: Mapping[str, str], seq: Sequence[Letter]) -> tuple[Letter, ...]:
    return tuple(Letter(phi[l.sym], l.inv) for l in seq)


def _map_rep(phi: Mapping[str, str], rep: WordRep) -> WordRep:
    if isinstance(rep, Window):
        return Window(_phi_letters(phi, rep.letters), rep.certified_aperiodic,
                      rep.origin, rep.left_closed, rep.right_closed)
    return Word(*(_phi_letters(phi, seq)
                  for seq in (rep.left_period, rep.core, rep.right_period)))


def transport(phi: Mapping[str, str], w: PointedWord) -> PointedWord:
    """Forward transport: apply phi letterwise, keep the basepoint."""
    return PointedWord(_map_rep(phi, w.left), w.base, _map_rep(phi, w.right))


def _walk_back_finite(m, pre, state, seq):
    out = []
    for tl in seq:
        l = pre.get((state, tl))
        if l is None:
            raise MiaError(f"no preimage of {tl} at state {state}")
        out.append(l)
        state = m.step(state, l)
    return tuple(out), state


def _walk_back_right(m, pre, state, rep: WordRep) -> WordRep:
    """The preimage of a right part read from `state`: the core, then the
    period until the state repeats, which closes the preimage's period."""
    if isinstance(rep, Window):
        letters, _ = _walk_back_finite(m, pre, state, rep.letters)
        return Window(letters, rep.certified_aperiodic, rep.origin,
                      rep.left_closed, rep.right_closed)
    core, state = _walk_back_finite(m, pre, state, rep.core)
    if not rep.right_period:
        return Word(core=core)
    seen: dict[str, int] = {}
    rounds = []
    while state not in seen:
        seen[state] = len(rounds)
        letters, state = _walk_back_finite(m, pre, state, rep.right_period)
        rounds.append(letters)
    i = seen[state]
    return Word((), core + tuple(l for r in rounds[:i] for l in r),
                tuple(l for r in rounds[i:] for l in r))


def transport_back(m: Mia, phi: Mapping[str, str], w: PointedWord) -> PointedWord:
    """Backward transport: the per-state preimage walk (the inverse of the
    forward bijection on words), each step one lookup in the preimage table.
    The right part walks forward from the basepoint, the left part forward
    from the involuted basepoint over its inverse.  The shape is checked
    first, as every pointed-word operation does."""
    underlying(w)
    pre = _preimages(m, phi)
    if pre is None:
        raise MiaError("phi is not a local bijection for this MIA")
    right = _walk_back_right(m, pre, w.base, w.right)
    left = invert(_walk_back_right(m, pre, m.inv[w.base], invert(w.left)))
    return PointedWord(left, w.base, right)


# ---------------------------------------------------------------------------
# text format


def parse_mia(text: str) -> Mia:
    """Parse the MIA text format: ``state <id> [initial inv=<id>] e=<id>`` and
    ``trans <src> <letter> <dst>``; binary files may write 1 for 0'."""
    states: list[str] = []
    seen: set[str] = set()
    initial: list[str] = []
    inv: dict[str, str] = {}
    e: dict[str, str] = {}
    raw_trans: list[tuple[str, str, str]] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "state":
            if len(parts) < 2:
                raise MiaError(f"line {lineno}: state needs an id")
            name = parts[1]
            if name in seen:
                raise MiaError(f"line {lineno}: duplicate state {name}")
            seen.add(name)
            states.append(name)
            for tok in parts[2:]:
                if tok == "initial":
                    initial.append(name)
                elif tok.startswith("inv="):
                    inv[name] = tok[4:]
                elif tok.startswith("e="):
                    e[name] = tok[2:]
                else:
                    raise MiaError(f"line {lineno}: unknown token {tok!r}")
        elif parts[0] == "trans":
            if len(parts) != 4:
                raise MiaError(f"line {lineno}: trans takes <src> <letter> <dst>")
            raw_trans.append((parts[1], parts[2], parts[3]))
        else:
            raise MiaError(f"line {lineno}: unknown directive {parts[0]!r}")
    toks = {t for _, t, _ in raw_trans}
    binary = toks <= {"0", "1"} and not any(t.endswith("'") for t in toks)

    trans = {}
    alphabet = set()
    for src, tok, dst in raw_trans:
        l = Letter("0", tok == "1") if binary else parse_letter(tok)
        alphabet.add(l.sym)
        key = (src, l)
        if key in trans and trans[key] != dst:
            raise MiaError(f"nondeterministic transition at ({src}, {l})")
        trans[key] = dst
    return Mia(tuple(states), tuple(initial), inv, e,
               tuple(sorted(alphabet)), trans)


def format_mia(m: Mia) -> str:
    out = []
    iset = set(m.initial)
    for x in m.states:
        if x in iset:
            out.append(f"state {x} initial inv={m.inv[x]} e={m.e[x]}")
        else:
            out.append(f"state {x} e={m.e[x]}")
    for x, l, y in m.edges():
        out.append(f"trans {x} {l} {y}")
    return "\n".join(out) + "\n"
