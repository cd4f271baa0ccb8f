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
  * for finite words the chains merge iff they agree at the final gap, and
    for periodic words iff they agree at any gap past a burn-in bound.

The (weak) brick-word witness search is the pair scan of `scan`, run on
each host with its gap states.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .scan import FACTOR, IMAGE, OPEN, Track, pair_scan, unroll
from .words import (BiInf, Finite, LeftInf, Letter, RightInf, Window, WordRep,
                    classify_periodicity, inv_seq, invert)
from .words import APERIODIC, FINITE


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


def validate_mia(m: Mia) -> list[tuple[str, str]]:
    """Check the three MIA axioms plus table well-formedness; returns a list
    of (axiom code, locus), empty when everything passes."""
    bad: list[tuple[str, str]] = []
    sset = set(m.states)
    iset = set(m.initial)
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
    """(left, basepoint, right); left is Finite or LeftInf, right is Finite,
    RightInf, or a Window with the basepoint at its left edge."""

    left: WordRep
    base: str
    right: WordRep

    def inverse(self, m: Mia) -> "PointedWord":
        return PointedWord(invert(self.right), m.inv[self.base], invert(self.left))


def finite_word(left: Sequence[Letter], base: str, right: Sequence[Letter]) -> PointedWord:
    return PointedWord(Finite(tuple(left)), base, Finite(tuple(right)))


def underlying(w: PointedWord) -> WordRep:
    """The two-sided word rep obtained by forgetting the basepoint."""
    l, r = w.left, w.right
    if isinstance(r, Window):
        return r
    if isinstance(l, Finite) and isinstance(r, Finite):
        return Finite(l.letters + r.letters)
    if isinstance(l, Finite) and isinstance(r, RightInf):
        return RightInf(l.letters + r.prefix, r.period)
    if isinstance(l, LeftInf) and isinstance(r, Finite):
        return LeftInf(l.period, l.suffix + r.letters)
    if isinstance(l, LeftInf) and isinstance(r, RightInf):
        return BiInf(l.period, l.suffix + r.prefix, r.period)
    raise UnsupportedRepresentation(f"{type(l).__name__} + {type(r).__name__}")


# ---------------------------------------------------------------------------
# finite hosts: exact placement machinery


class _FiniteHost:
    """A finite pointed word with its full ~-class.

    G[g] is the set of basepoint states achievable at gap g among valid
    placements equivalent to the given one.
    """

    def __init__(self, m: Mia, u: tuple[Letter, ...], bpos: int, base: str):
        self.m = m
        self.u = u
        self.bpos = bpos
        self.base = base
        n = len(u)
        if base not in set(m.initial):
            raise MiaError(f"basepoint {base!r} is not an initial state")

        rdef = [dict() for _ in range(n + 1)]
        rfin = [dict() for _ in range(n + 1)]
        for x in m.states:
            rdef[n][x] = True
            rfin[n][x] = x
        for g in range(n - 1, -1, -1):
            for x in m.states:
                y = m.step(x, u[g])
                if y is not None and rdef[g + 1].get(y, False):
                    rdef[g][x] = True
                    rfin[g][x] = rfin[g + 1][y]
        ldef = [dict() for _ in range(n + 1)]
        for x in m.states:
            ldef[0][x] = True
        for g in range(1, n + 1):
            back = u[g - 1].inverse()
            for x in m.states:
                y = m.step(x, back)
                if y is not None and ldef[g - 1].get(y, False):
                    ldef[g][x] = True

        # triple condition chained along rightward shifts
        tchain = [dict() for _ in range(n + 1)]
        for s in m.initial:
            tchain[n][s] = ldef[n].get(m.inv[s], False)
        for g in range(n - 1, -1, -1):
            for s in m.initial:
                ok = ldef[g].get(m.inv[s], False)
                if ok:
                    y = m.step(s, u[g])
                    if y is not None:
                        ok = tchain[g + 1].get(m.e[y], False)
                tchain[g][s] = ok

        self._rdef, self._rfin, self._ldef, self._tchain = rdef, rfin, ldef, tchain

        if not self.valid(bpos, base):
            raise MiaError("not a valid pointed word")
        self._base_end = self.endstate(bpos, base)
        self.G = [frozenset(s for s in m.initial
                            if self.valid(g, s) and self.endstate(g, s) == self._base_end)
                  for g in range(n + 1)]

    def valid(self, g: int, s: str) -> bool:
        return self._rdef[g].get(s, False) and self._tchain[g].get(s, False)

    def endstate(self, g: int, s: str) -> str:
        return self.m.e[self._rfin[g][s]]


def _as_finite_parts(w: PointedWord) -> Optional[tuple[tuple[Letter, ...], int, str]]:
    if isinstance(w.left, Finite) and isinstance(w.right, Finite):
        return (w.left.letters + w.right.letters, len(w.left.letters), w.base)
    return None


def _finite_host(m: Mia, w: PointedWord) -> _FiniteHost:
    parts = _as_finite_parts(w)
    if parts is None:
        raise UnsupportedRepresentation("finite machinery on an infinite rep")
    return _FiniteHost(m, *parts)


def check_word(m: Mia, w: PointedWord) -> None:
    """Raise MiaError unless w is a valid pointed word over m."""
    parts = _as_finite_parts(w)
    if parts is not None:
        _FiniteHost(m, *parts)
        return
    if isinstance(w.right, Window):
        _WindowHost(m, w)
        return
    _periodic_host(m, w)


# ---------------------------------------------------------------------------
# periodic hosts (purely periodic two-sided words, basepoint at a seam)


class _PeriodicHost:
    """Host for ^infinity(q)^infinity with the basepoint at a period seam.

    G[r] is the set of achievable basepoint states at gaps congruent to
    r mod T, where T is the gap-cycle length of the base placement chain (a
    multiple of the letter period |q|; translation by T fixes the ~-class, so
    the class really is T-periodic even when the letters are more symmetric
    than the gap states).  Gap 0 is the seam the basepoint sits at.
    """

    def __init__(self, m: Mia, q: tuple[Letter, ...], base: str):
        self.m = m
        self.q = q
        self.base = base
        P = len(q)
        self.P = P
        states = m.states

        def letter_at(i: int) -> Letter:
            return q[i % P]

        # rightward-forever definedness over (residue, state)
        self._rforever = self._forever(lambda r, x: ((r + 1) % P, m.step(x, letter_at(r))))
        self._lforever = self._forever(lambda r, x: ((r - 1) % P, m.step(x, letter_at(r - 1).inverse())))

        if base not in set(m.initial):
            raise MiaError(f"basepoint {base!r} is not an initial state")
        if not self._valid(0, base):
            raise MiaError("not a valid pointed word")

        # walk the base chain until (gap mod P, state) repeats; the distance
        # between repeats is the gap period T of the whole class
        seen: dict[tuple[int, str], int] = {}
        cur = base
        g = 0
        while (g % P, cur) not in seen:
            seen[(g % P, cur)] = g
            cur = m.e[m.step(cur, q[g % P])]
            g += 1
        entry = seen[(g % P, cur)]
        self.T = g - entry
        # far enough that any two mergeable chains started inside [0, T)
        # have already met (the product walk cycles within P * |I|^2 steps)
        self._burn = self.T + P * (len(m.initial) ** 2 + 2)
        base_chain = self._chain(0, base, self._burn + 1)
        self._base_at_burn = base_chain[self._burn]

        self.G = [frozenset(s for s in m.initial
                            if self._valid(r, s) and self._merges(r, s))
                  for r in range(self.T)]

    def _forever(self, step):
        """Greatest set of (residue, state) whose walks never hit None.

        The walk graph is functional, so each walk either reaches an
        undefined step (everything on the path fails) or closes a cycle of
        defined steps (everything on the path succeeds)."""
        P = self.P
        ok: dict = {}
        for start in [(r, x) for r in range(P) for x in self.m.states]:
            if start in ok:
                continue
            path = []
            onpath = {}
            cur = start
            verdict = None
            while True:
                if cur in ok:
                    verdict = ok[cur]
                    break
                if cur in onpath:
                    verdict = True
                    break
                onpath[cur] = len(path)
                path.append(cur)
                r, x = cur
                nr, nx = step(r, x)
                if nx is None:
                    verdict = False
                    break
                cur = (nr % P, nx)
            for node in path:
                ok[node] = verdict
        return ok

    def _valid(self, r: int, s: str) -> bool:
        m = self.m
        r %= self.P
        if not self._rforever.get((r, s), False):
            return False
        # triple condition: every forward placement must be left-valid
        seen = set()
        cur = (r, s)
        while cur not in seen:
            seen.add(cur)
            cr, cs = cur
            if not self._lforever.get((cr, m.inv[cs]), False):
                return False
            nxt = m.step(cs, self.q[cr % self.P])
            if nxt is None:
                return False
            cur = ((cr + 1) % self.P, m.e[nxt])
        return True

    def _chain(self, g: int, s: str, steps: int) -> dict[int, str]:
        """Placement states at absolute gaps g..g+steps-1."""
        m = self.m
        out = {g: s}
        cur = s
        for h in range(g, g + steps - 1):
            cur = m.e[m.step(cur, self.q[h % self.P])]
            out[h + 1] = cur
        return out

    def _merges(self, g: int, s: str) -> bool:
        if g > self._burn:
            raise MiaError("burn-in bound too small")
        chain = self._chain(g, s, self._burn - g + 1)
        return chain[self._burn] == self._base_at_burn

    def state_at(self, g: int) -> frozenset:
        return self.G[g % self.T]


def _periodic_host(m: Mia, w: PointedWord) -> _PeriodicHost:
    if not (isinstance(w.left, LeftInf) and isinstance(w.right, RightInf)):
        raise UnsupportedRepresentation(
            "periodic machinery needs a two-sided eventually periodic word")
    if w.left.suffix or w.right.prefix:
        raise UnsupportedRepresentation(
            "only purely periodic two-sided words are supported")
    if w.left.period != w.right.period:
        raise UnsupportedRepresentation(
            "left and right periods disagree; the word is not purely periodic")
    return _PeriodicHost(m, w.right.period, w.base)


def _periodic_inverse(m: Mia, host: _PeriodicHost) -> _PeriodicHost:
    P = host.P
    qinv = tuple(host.q[(P - 1 - i) % P].inverse() for i in range(P))
    # the seam of the inverse word carries the involuted basepoint
    return _PeriodicHost(m, qinv, m.inv[host.base])


# ---------------------------------------------------------------------------
# window hosts (finite views of infinite words; single-valued gap chains)


class _WindowHost:
    """A Window right part with the basepoint at gap 0.

    Uses the single forward gap chain; backward determinism along the window
    is verified so the chain really is the whole ~-class at each gap.
    """

    def __init__(self, m: Mia, w: PointedWord):
        if not (isinstance(w.right, Window) and isinstance(w.left, Finite)
                and not w.left.letters):
            raise UnsupportedRepresentation(
                "window words must have an empty left part and a Window right part")
        self.m = m
        self.window = w.right
        self.u = w.right.letters
        self.base = w.base
        run = w.base
        self.chain = [w.base]
        for g, l in enumerate(self.u):
            run = m.step(run, l)
            if run is None:
                raise MiaError(f"window run undefined at position {g}")
            self.chain.append(m.e[run])
        # gap states must be single-valued for the windowed pair scan: each
        # gap state has a unique initial-state predecessor across its letter
        for g, l in enumerate(self.u):
            preds = [s for s in m.initial
                     if m.step(s, l) is not None and m.e[m.step(s, l)] == self.chain[g + 1]]
            if len(preds) != 1:
                raise UnsupportedRepresentation(
                    "window gap states are not single-valued; "
                    "use the finite machinery instead")


# ---------------------------------------------------------------------------
# occurrences and subwords


@dataclass(frozen=True)
class Occurrence:
    """An anchored occurrence of a finite pointed needle inside a host.

    start/end are letter offsets in the host (modular when period is set);
    boundary letters are None when the needle is flush with a genuine word
    end.  host_tag distinguishes occurrences found in the inverse host, and
    shifted_host is the ~-shifted representative of the host whose basepoint
    sits at the anchor (None when the host is infinite and the representative
    is implied by the anchor and period).
    """

    needle: PointedWord
    host_tag: str
    start: int
    end: int
    anchor: int
    before: Optional[Letter]
    after: Optional[Letter]
    period: Optional[int] = None
    shifted_host: Optional[PointedWord] = None

    def is_factor(self) -> bool:
        return FACTOR.before(self.before) and FACTOR.after(self.after)

    def is_image(self) -> bool:
        return IMAGE.before(self.before) and IMAGE.after(self.after)


def classify_occurrence(occ: Occurrence) -> str:
    f, i = occ.is_factor(), occ.is_image()
    if f and i:
        return "both"
    if f:
        return "factor"
    if i:
        return "image"
    return "neither"


def subword_occurrences(m: Mia, needle: PointedWord, hay: PointedWord) -> list[Occurrence]:
    """All anchored occurrences of a finite needle in hay (finite, purely
    periodic two-sided, or window); periodic hosts report one fundamental
    domain of offsets with the period flag set."""
    nparts = _as_finite_parts(needle)
    if nparts is None:
        raise UnsupportedRepresentation("needle must be finite")
    nu, napos, nbase = nparts
    k = len(nu)

    hparts = _as_finite_parts(hay)
    if hparts is not None:
        host = _FiniteHost(m, *hparts)
        _FiniteHost(m, nu, napos, nbase)  # validate the needle
        u, n = host.u, len(host.u)
        out = []
        for o in range(n - k + 1):
            if u[o:o + k] != nu:
                continue
            if nbase not in host.G[o + napos]:
                continue
            shifted = finite_word(u[:o + napos], nbase, u[o + napos:])
            out.append(Occurrence(needle, "host", o, o + k, o + napos,
                                  u[o - 1] if o > 0 else None,
                                  u[o + k] if o + k < n else None,
                                  shifted_host=shifted))
        return out
    if isinstance(hay.right, Window):
        host = _WindowHost(m, hay)
        u, n = host.u, len(host.u)
        t = Track(u, hay.right.left_closed, hay.right.right_closed)
        out = []
        for o in range(n - k + 1):
            if u[o:o + k] != nu:
                continue
            if host.chain[o + napos] != nbase:
                continue
            before, after = t.boundary(o - 1), t.boundary(o + k)
            if before is OPEN or after is OPEN:
                continue  # context beyond an open window edge
            out.append(Occurrence(needle, "host", o, o + k, o + napos, before, after))
        return out
    host = _periodic_host(m, hay)
    P = host.P
    out = []
    for o in range(host.T):
        if all(host.q[(o + i) % P] == nu[i] for i in range(k)):
            if nbase in host.state_at(o + napos):
                out.append(Occurrence(needle, "host", o, o + k, o + napos,
                                      host.q[(o - 1) % P], host.q[(o + k) % P],
                                      period=host.T))
    return out


def equivalent(m: Mia, w1: PointedWord, w2: PointedWord) -> bool:
    """Basepoint-shift equivalence: same underlying word, and the forward
    placement chains merge."""
    p1, p2 = _as_finite_parts(w1), _as_finite_parts(w2)
    if p1 is not None and p2 is not None:
        u1, b1, v1 = p1
        u2, b2, v2 = p2
        if u1 != u2:
            return False
        host = _FiniteHost(m, u1, b1, v1)
        _FiniteHost(m, u2, b2, v2)
        return v2 in host.G[b2]
    if p1 is not None or p2 is not None:
        return False
    h1 = _periodic_host(m, w1)
    h2 = _periodic_host(m, w2)
    P = h1.P
    if h2.P != P:
        return False
    for d in range(P):
        if all(h2.q[i] == h1.q[(i + d) % P] for i in range(P)):
            # the seam of w2 may sit at any gap congruent to d mod P
            if any(h2.base in h1.state_at(d + k * P) for k in range(h1.T // P)):
                return True
    return False


def shift_basepoint(m: Mia, w: PointedWord, steps: int) -> PointedWord:
    """Move the basepoint of a finite word `steps` gaps to the right
    (negative = left), staying inside the ~-class."""
    parts = _as_finite_parts(w)
    if parts is None:
        raise UnsupportedRepresentation("shift_basepoint expects a finite word")
    u, b, v = parts
    host = _FiniteHost(m, u, b, v)
    g = b + steps
    if not 0 <= g <= len(u):
        raise MiaError("shift leaves the word")
    states = sorted(host.G[g])
    if not states:
        raise MiaError("no equivalent placement at that gap")
    return finite_word(u[:g], states[0], u[g:])


# ---------------------------------------------------------------------------
# brick words


@dataclass(frozen=True)
class WitnessOcc:
    start: int
    end: int
    before: Optional[Letter]
    after: Optional[Letter]


@dataclass(frozen=True)
class WordWitness:
    """A common factor/image pointed subword: the single certificate of
    non-brickness."""

    needle: PointedWord
    factor: WitnessOcc
    image: WitnessOcc
    image_host: str  # "w" | "w-inverse"


@dataclass(frozen=True)
class BrickWordReport:
    verdict: bool
    witness: Optional[WordWitness]
    periodicity: str
    scope: str


def _word_witness(x: Track, xinv: Track, states=None,
                  shift: int = 0) -> Optional[WordWitness]:
    """The brick-word witness on the pair scan.

    With single-valued gap states the tracks carry them as start keys.
    Otherwise states(host, g) is the gap class at gap g of x (host 0) or
    x^{-1} (host 1): forward basepoint shifts are deterministic, so a state
    common to both classes at some gap of the span carries over to its right
    end, and only the right end is tested.  `shift` maps track indices back
    to word gaps.
    """
    def common(hit):
        return (states(0, hit.of + hit.L - shift)
                & states(hit.host, hit.oi + hit.L - shift))

    hit = pair_scan(x, (x, xinv), None if states is None else common)
    if hit is None:
        return None
    host, of, oi, L = hit
    h = (x, xinv)[host]
    content = x.letters[of:of + L]
    needle = (finite_word((), x.key(of), content) if states is None
              else finite_word(content, min(common(hit)), ()))
    return WordWitness(
        needle,
        WitnessOcc(of - shift, of + L - shift, x.boundary(of - 1), x.boundary(of + L)),
        WitnessOcc(oi - shift, oi + L - shift, h.boundary(oi - 1), h.boundary(oi + L)),
        ("w", "w-inverse")[host])


def _finite_witness(m: Mia, host: _FiniteHost) -> Optional[WordWitness]:
    u = host.u
    winv = finite_word(inv_seq(u[host.bpos:]), m.inv[host.base], inv_seq(u[:host.bpos]))
    hosts = (host, _finite_host(m, winv))
    x = Track(u)
    return _word_witness(x, x.inverse(), lambda h, g: hosts[h].G[g])


def _periodic_witness(m: Mia, host: _PeriodicHost,
                      length_bound: int) -> Optional[WordWitness]:
    """Anchors range over the gap period of each host, which may be a proper
    multiple of the letter period."""
    hosts = (host, _periodic_inverse(m, host))
    x, xinv = (unroll(h.q, h.T, length_bound) for h in hosts)
    return _word_witness(x, xinv, lambda h, g: hosts[h].state_at(g), 1)


def _window_witness(m: Mia, host: _WindowHost) -> Optional[WordWitness]:
    win = host.window
    inv_word = PointedWord(Finite(()), m.inv[host.base],
                           Window(inv_seq(host.u), win.certified_aperiodic, win.origin,
                                  left_closed=win.right_closed,
                                  right_closed=win.left_closed))
    x = Track(host.u, win.left_closed, win.right_closed, key=host.chain.__getitem__)
    return _word_witness(x, x.inverse(_WindowHost(m, inv_word).chain.__getitem__))


def is_brick_word(m: Mia, w: PointedWord) -> BrickWordReport:
    """Brick word: the underlying word is aperiodic and no pointed word is
    simultaneously a factor subword of w and an image subword of w or w^{-1}
    (the identity pair excluded)."""
    if isinstance(w.right, Window):
        host = _WindowHost(m, w)
        witness = _window_witness(m, host)
        cls = classify_periodicity(w.right)
        verdict = witness is None and cls == APERIODIC
        return BrickWordReport(verdict, witness, cls, f"window {len(host.u)}")
    rep = underlying(w)
    cls = classify_periodicity(rep)
    if cls == FINITE:
        host = _finite_host(m, w)
        witness = _finite_witness(m, host)
        return BrickWordReport(witness is None, witness, cls, "exact")
    # every eventually periodic rep is almost periodic, hence not aperiodic
    return BrickWordReport(False, None, cls, "exact")


def is_weak_brick_word(m: Mia, w: PointedWord, length_bound_factor: int = 1) -> BrickWordReport:
    """Weak brick word: no finite common factor/image pointed subword; no
    aperiodicity requirement."""
    if isinstance(w.right, Window):
        host = _WindowHost(m, w)
        witness = _window_witness(m, host)
        return BrickWordReport(witness is None, witness,
                               classify_periodicity(w.right), f"window {len(host.u)}")
    rep = underlying(w)
    cls = classify_periodicity(rep)
    if cls == FINITE:
        host = _finite_host(m, w)
        witness = _finite_witness(m, host)
        return BrickWordReport(witness is None, witness, cls, "exact")
    host = _periodic_host(m, w)
    bound = host.P * length_bound_factor
    witness = _periodic_witness(m, host, bound)
    return BrickWordReport(witness is None, witness, cls, "exact")


# ---------------------------------------------------------------------------
# local bijections, relabeling, transport


def check_local_bijection(m: Mia, phi: Mapping[str, str]) -> bool:
    """phi: A -> A' surjective; true iff the induced map on signed letters is
    injective on each state's set of defined letters."""
    if set(phi) != set(m.alphabet):
        raise MiaError("phi must be defined on exactly the alphabet")
    for x in m.states:
        seen = {}
        for l in m.letters():
            if m.step(x, l) is None:
                continue
            img = Letter(phi[l.sym], l.inv)
            if img in seen and seen[img] != l:
                return False
            seen[img] = l
    return True


def relabel(m: Mia, phi: Mapping[str, str]) -> Mia:
    """The MIA over the image alphabet; t'(v, phi(b)) = t(v, b)."""
    if not check_local_bijection(m, phi):
        raise MiaError("phi is not a local bijection for this MIA")
    alphabet = tuple(sorted(set(phi.values())))
    trans = {}
    for (x, l), y in m.trans.items():
        trans[(x, Letter(phi[l.sym], l.inv))] = y
    return Mia(m.states, m.initial, m.inv, m.e, alphabet, trans)


def _phi_letters(phi: Mapping[str, str], seq: Sequence[Letter]) -> tuple[Letter, ...]:
    return tuple(Letter(phi[l.sym], l.inv) for l in seq)


def _map_rep(phi: Mapping[str, str], rep: WordRep) -> WordRep:
    f = lambda seq: _phi_letters(phi, seq)
    if isinstance(rep, Finite):
        return Finite(f(rep.letters))
    if isinstance(rep, RightInf):
        return RightInf(f(rep.prefix), f(rep.period))
    if isinstance(rep, LeftInf):
        return LeftInf(f(rep.period), f(rep.suffix))
    if isinstance(rep, BiInf):
        return BiInf(f(rep.left_period), f(rep.core), f(rep.right_period))
    if isinstance(rep, Window):
        return Window(f(rep.letters), rep.certified_aperiodic, rep.origin,
                      rep.left_closed, rep.right_closed)
    raise MiaError(f"not a word rep: {rep!r}")


def transport(m: Mia, phi: Mapping[str, str], w: PointedWord) -> PointedWord:
    """Forward transport: apply phi letterwise, keep the basepoint."""
    return PointedWord(_map_rep(phi, w.left), w.base, _map_rep(phi, w.right))


def _preimage_letter(m: Mia, phi: Mapping[str, str], x: str, target: Letter) -> Letter:
    cands = [l for l in m.letters()
             if Letter(phi[l.sym], l.inv) == target and m.step(x, l) is not None]
    if len(cands) != 1:
        raise MiaError(f"no unique preimage of {target} at state {x}")
    return cands[0]


def _walk_back_finite(m, phi, state, seq):
    out = []
    for tl in seq:
        l = _preimage_letter(m, phi, state, tl)
        out.append(l)
        state = m.step(state, l)
    return tuple(out), state


def _walk_back_rightinf(m, phi, state, rep: RightInf):
    pre, state = _walk_back_finite(m, phi, state, rep.prefix)
    seen = {}
    rounds = []
    while state not in seen:
        seen[state] = len(rounds)
        letters, state = _walk_back_finite(m, phi, state, rep.period)
        rounds.append(letters)
    i = seen[state]
    prefix = pre + tuple(l for r in rounds[:i] for l in r)
    period = tuple(l for r in rounds[i:] for l in r)
    return RightInf(prefix, period)


def transport_back(m: Mia, phi: Mapping[str, str], w: PointedWord) -> PointedWord:
    """Backward transport: the unique per-state preimage walk (the inverse of
    the forward bijection on words)."""
    # right side walks forward from the basepoint
    if isinstance(w.right, Finite):
        letters, _ = _walk_back_finite(m, phi, w.base, w.right.letters)
        right: WordRep = Finite(letters)
    elif isinstance(w.right, RightInf):
        right = _walk_back_rightinf(m, phi, w.base, w.right)
    elif isinstance(w.right, Window):
        win = w.right
        letters, _ = _walk_back_finite(m, phi, w.base, win.letters)
        right = Window(letters, win.certified_aperiodic, win.origin,
                       win.left_closed, win.right_closed)
    else:
        raise UnsupportedRepresentation(type(w.right).__name__)
    # left side walks forward from the involuted basepoint over the inverse
    linv = invert(w.left)
    if isinstance(linv, Finite):
        letters, _ = _walk_back_finite(m, phi, m.inv[w.base], linv.letters)
        left: WordRep = invert(Finite(letters))
    elif isinstance(linv, RightInf):
        left = invert(_walk_back_rightinf(m, phi, m.inv[w.base], linv))
    else:
        raise UnsupportedRepresentation(type(w.left).__name__)
    return PointedWord(left, w.base, right)


# ---------------------------------------------------------------------------
# text format


def parse_mia(text: str) -> Mia:
    """Parse the MIA text format: ``state <id> [initial inv=<id>] e=<id>`` and
    ``trans <src> <letter> <dst>``; binary files may write 1 for 0'."""
    states: list[str] = []
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

    def decode(tok: str) -> Letter:
        if binary:
            return Letter("0", tok == "1")
        if tok.endswith("'"):
            return Letter(tok[:-1], True)
        return Letter(tok, False)

    trans = {}
    alphabet = set()
    for src, tok, dst in raw_trans:
        l = decode(tok)
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
    binary = m.is_binary()

    def encode(l: Letter) -> str:
        if binary:
            return "1" if l.inv else "0"
        return str(l)

    for (x, l), y in sorted(m.trans.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[1])):
        out.append(f"trans {x} {encode(l)} {y}")
    return "\n".join(out) + "\n"
