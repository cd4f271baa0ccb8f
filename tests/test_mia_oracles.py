"""Cross-validation of the pointed-word machinery against brute-force
definitional oracles: the basepoint equivalence classes, anchored
occurrences in finite hosts, the witness scans, and the periodic gap
classes."""
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

import pytest

from conftest import (CORPUS_SEED, corpus_algebras, factor_ok, image_ok,
                      path_quiver_text)
from stringbricks.algebra import parse_presentation
from stringbricks.construct import build_mia, parity_mia, string_to_word
from stringbricks.mia import (Mia, MiaError, PointedWord, UnsupportedRepresentation,
                              _FiniteHost, _PeriodicHost, _WindowHost,
                              _check_inversion, _host, _report, check_word,
                              equivalent, finite_word, is_brick_word,
                              shift_basepoint, transport, underlying, validate_mia)
from stringbricks.presets import lambda_n
from stringbricks.scan import BrickReport, pair_scan, witness
from stringbricks.strings import Context
from stringbricks.words import (UNKNOWN, Letter, Window, Word, classify_periodicity,
                                inverse_of, inv_seq)


def L(tok):
    return Letter(tok[:-1], True) if tok.endswith("'") else Letter(tok, False)


def lits(text):
    return tuple(L(t) for t in text.split())


def multivalued_mia():
    """Two initial pairs reading the same letter into a shared state, so the
    gap class at the left of that letter contains two states."""
    b = Letter("b", False)
    bi = b.inverse()
    return Mia(
        states=("p", "p'", "q", "q'", "s", "r"),
        initial=("p", "p'", "q", "q'"),
        inv={"p": "p'", "p'": "p", "q": "q'", "q'": "q"},
        e={"p": "p", "p'": "p'", "q": "q", "q'": "q'", "s": "p", "r": "q'"},
        alphabet=("b",),
        trans={("p", b): "s", ("q", b): "s", ("p'", bi): "r"},
    )


def dying_runs_mia():
    """Placements that shift into a class but are not valid: p reads b into
    y, which reads nothing more, and q' reads nothing, so p's run to the
    right dies past one letter and q's involution reads no letter to the
    left, though both shift by b onto t, whose runs read b to the right and
    b' to the left."""
    b = Letter("b", False)
    bi = b.inverse()
    initial = ("t", "t'", "p", "p'", "q", "q'")
    return Mia(
        states=(*initial, "x", "y"),
        initial=initial,
        inv={"t": "t'", "t'": "t", "p": "p'", "p'": "p", "q": "q'", "q'": "q"},
        e={**{s: s for s in initial}, "x": "t", "y": "t"},
        alphabet=("b",),
        trans={("t", b): "t", ("t'", bi): "t'", ("p", b): "y", ("p'", bi): "p'",
               ("q", b): "x"},
    )


def brute_valid(m, u, g, s):
    """Defn of a pointed word, evaluated naively with full runs."""
    if s not in set(m.initial):
        return False
    if m.run(s, u[g:]) is None:
        return False
    for q in range(g, len(u) + 1):
        st = m.run(s, u[g:q])
        nb = m.e[st]
        if m.run(m.inv[nb], inv_seq(u[:q])) is None:
            return False
    return True


def brute_class(m, u, bpos, base):
    """The ~-class by BFS over the symmetric closure of one-step shifts,
    independent of the chain-merge shortcut."""
    n = len(u)
    valid = {(g, s) for g in range(n + 1) for s in m.initial
             if brute_valid(m, u, g, s)}
    assert (bpos, base) in valid
    fwd = {}
    for g, s in valid:
        if g < n:
            t = m.step(s, u[g])
            if t is not None and (g + 1, m.e[t]) in valid:
                fwd[(g, s)] = (g + 1, m.e[t])
    edges = {}
    for a, b2 in fwd.items():
        edges.setdefault(a, set()).add(b2)
        edges.setdefault(b2, set()).add(a)
    seen = {(bpos, base)}
    queue = deque(seen)
    while queue:
        cur = queue.popleft()
        for nxt in edges.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    out = [frozenset(s for s in m.initial if (g, s) in seen) for g in range(n + 1)]
    return out


def test_multivalued_gap_class():
    m = multivalued_mia()
    assert validate_mia(m) == []
    b = Letter("b", False)
    w = finite_word((b,), "p", ())
    host = _FiniteHost(m, (b,), 1, "p")
    assert host.G == brute_class(m, (b,), 1, "p")
    assert host.G[0] == frozenset({"p", "q"})  # genuinely multi-valued
    assert host.G[1] == frozenset({"p"})


def test_finite_class_matches_brute_force(l3, gam, corpus):
    for ctx in (l3, gam, *corpus[:5]):
        m = build_mia(ctx)
        phi, md = parity_mia(ctx)
        for x in ctx.enumerate_strings(4):
            w = string_to_word(ctx, x)
            u = w.left.core + w.right.core
            bpos = len(w.left.core)
            if ctx in (l3, gam):
                host = _FiniteHost(m, u, bpos, w.base)
                assert host.G == brute_class(m, u, bpos, w.base)
            wd = transport(phi, w)
            ud = wd.left.core + wd.right.core
            host_d = _FiniteHost(md, ud, bpos, wd.base)
            assert host_d.G == brute_class(md, ud, bpos, wd.base)


def reference_classes(m, u):
    """The finite gap classes by all-states tables, independent of the
    host's backward walk from the end state: for every state, its run over
    u[g:] (with its end) and over u[:g]^{-1} at every gap, then the triple
    condition chained along rightward shifts.  Returns classes(bpos, base),
    the host's G for that basepoint, or MiaError."""
    n = len(u)
    table = m.by_letter
    fwd = [table.get(l, {}) for l in u]
    back = [table.get(l, {}) for l in map(inverse_of, u)]
    rfin = [None] * n + [dict(zip(m.states, m.states))]
    for g in range(n - 1, -1, -1):
        nxt = rfin[g + 1]
        rfin[g] = {x: nxt[y] for x, y in fwd[g].items() if y in nxt}
    ldef = [set(m.states)]
    for g in range(n):
        prev = ldef[g]
        ldef.append({x for x, y in back[g].items() if y in prev})
    inv, e = m.inv, m.e
    tchain = [None] * n + [{s for s in m.initial if inv[s] in ldef[n]}]
    for g in range(n - 1, -1, -1):
        step, nxt, left = fwd[g], tchain[g + 1], ldef[g]
        tchain[g] = {s for s in m.initial if inv[s] in left
                     and (s not in step or e[step[s]] in nxt)}
    # the valid placements at each gap, grouped by the end state they reach
    by_end = [{} for _ in range(n + 1)]
    for g in range(n + 1):
        for s in tchain[g]:
            if s in rfin[g]:
                by_end[g].setdefault(e[rfin[g][s]], set()).add(s)

    def classes(bpos, base):
        if base not in rfin[bpos] or base not in tchain[bpos]:
            raise MiaError("not a valid pointed word")
        end = e[rfin[bpos][base]]
        return [frozenset(by_end[g].get(end, ())) for g in range(n + 1)]

    return classes


def assert_classes_match_reference(m, u):
    """Every (gap, initial state) as basepoint: the host's G is the
    reference's, or both refuse the placement.  Returns how many were
    valid."""
    classes, valid = reference_classes(m, u), 0
    for bpos in range(len(u) + 1):
        for base in m.initial:
            try:
                expected = classes(bpos, base)
            except MiaError:
                with pytest.raises(MiaError):
                    _FiniteHost(m, u, bpos, base)
                continue
            assert _FiniteHost(m, u, bpos, base).G == expected, (u, bpos, base)
            valid += 1
    return valid


def test_finite_class_matches_all_states_reference(l3, gam, corpus):
    """The class walked back from its end state equals the all-states
    tables' on the strings of <= 4 syllables under the arrow and the binary
    MIA, on every word of <= 4 letters over the two synthetic MIAs (the
    dying-runs MIA is the only input here where a run test turns a
    candidate away, so it catches a missing one), and on the maximal
    strings of a 60-arrow path quiver with relations and its full arrow
    sequence, which has no valid placement."""
    valid = 0
    for ctx in (l3, gam, *corpus[:5]):
        m = build_mia(ctx)
        phi, md = parity_mia(ctx)
        for x in ctx.enumerate_strings(4):
            w = string_to_word(ctx, x)
            valid += assert_classes_match_reference(m, w.left.core + w.right.core)
            wd = transport(phi, w)
            valid += assert_classes_match_reference(md, wd.left.core + wd.right.core)
    b = Letter("b", False)
    for m in (multivalued_mia(), dying_runs_mia()):
        assert validate_mia(m) == []
        for k in range(5):
            for u in itertools.product((b, b.inverse()), repeat=k):
                valid += assert_classes_match_reference(m, u)
    n = 60
    rels = ((0, 2), (5, 3), (12, 4), (29, 3), (30, 2), (47, 4))
    ctx = Context(parse_presentation(path_quiver_text(n) + "".join(
        f"relation {' '.join(f'a{j}' for j in range(i, i + k))}\n" for i, k in rels)))
    m = build_mia(ctx)
    phi, md = parity_mia(ctx)
    # a maximal string starts at gap 0 or inside a relation and stops before
    # the last arrow of the next relation
    spans = [(0, n)] + [(c, min((i + k - 1 for i, k in rels if i >= c), default=n))
                        for c in (0, *(i + 1 for i, _ in rels))]
    for c, d in spans:
        u = tuple(Letter(f"a{i}", False) for i in range(c, d))
        valid += assert_classes_match_reference(m, u)
        valid += assert_classes_match_reference(md, tuple(Letter(phi[l.sym], l.inv) for l in u))
    assert valid > 1000


# --- anchored occurrences in a finite host ---------------------------------------


@dataclass(frozen=True)
class Occurrence:
    """An anchored occurrence of a finite pointed needle inside a finite host.

    start/end are letter offsets in the host; boundary letters are None when
    the needle is flush with a word end; shifted_host is the representative
    of the host's class whose basepoint sits at the anchor.
    """

    needle: PointedWord
    start: int
    end: int
    anchor: int
    before: Optional[Letter]
    after: Optional[Letter]
    shifted_host: PointedWord

    def is_factor(self) -> bool:
        return factor_ok(self.before, self.after)

    def is_image(self) -> bool:
        return image_ok(self.before, self.after)


def classify_occurrence(occ: Occurrence) -> str:
    f, i = occ.is_factor(), occ.is_image()
    if f and i:
        return "both"
    if f:
        return "factor"
    if i:
        return "image"
    return "neither"


def subword_occurrences(m, needle, hay):
    """All anchored occurrences of a finite needle in a finite host: the
    needle's letters at some offset, with the needle's basepoint achievable
    at the anchor gap."""
    host = _host(m, hay)
    _host(m, needle)  # validate the needle
    nu = needle.left.core + needle.right.core
    napos, k = len(needle.left.core), len(nu)
    u, n = host.u, len(host.u)
    out = []
    for o in range(n - k + 1):
        if u[o:o + k] != nu or needle.base not in host.G[o + napos]:
            continue
        shifted = finite_word(u[:o + napos], needle.base, u[o + napos:])
        out.append(Occurrence(needle, o, o + k, o + napos,
                              u[o - 1] if o > 0 else None,
                              u[o + k] if o + k < n else None, shifted))
    return out


def test_subword_occurrences_in_aa(l3):
    m = build_mia(l3)
    phi, md = parity_mia(l3)
    aa = l3.make_string(lits("b1 a1' b1 a1'"))
    haystack = transport(phi, string_to_word(l3, aa))
    needle = transport(phi, finite_word((), "1(v2,+1)", lits("b1 a1'")))
    occs = subword_occurrences(md, needle, haystack)
    assert [(o.start, o.end) for o in occs] == [(0, 2), (2, 4)]


def test_needle_equals_host(l3):
    m = build_mia(l3)
    w = string_to_word(l3, l3.parse_literal("b1 a1'"))
    occs = subword_occurrences(m, w, w)
    assert len(occs) == 1
    assert classify_occurrence(occs[0]) == "both"


def test_zero_needle_classification(l3):
    m = build_mia(l3)
    aa = string_to_word(l3, l3.make_string(lits("b1 a1' b1 a1'")))
    z = finite_word((), "1(v2,+1)", ())
    occs = subword_occurrences(m, z, aa)
    kinds = {o.anchor: classify_occurrence(o) for o in occs}
    # gap A1|b1 in the middle is a factor gap (before inverse, after direct)
    assert kinds[2] == "factor"
    assert kinds[0] == "factor"   # flush left, next letter direct
    assert kinds[4] == "factor"   # flush right, previous letter inverse
    bb = string_to_word(l3, l3.make_string(lits("a2' b2 a2' b2")))
    z3 = finite_word((), "1(v2,+1)", ())
    occs = subword_occurrences(m, z3, bb)
    kinds = {o.anchor: classify_occurrence(o) for o in occs}
    assert kinds[2] == "image"    # gap b2|A2 (before direct, after inverse)


def test_transport_preserves_subwords_and_verdicts(l3):
    m = build_mia(l3)
    phi, md = parity_mia(l3)
    rng = random.Random(9)
    xs = [x for x in l3.enumerate_strings(6) if len(x) >= 1]
    for x in rng.sample(xs, 30):
        w = string_to_word(l3, x)
        wd = transport(phi, w)
        assert is_brick_word(m, w).verdict == is_brick_word(md, wd).verdict
        for y in rng.sample(xs, 5):
            u = string_to_word(l3, y)
            ud = transport(phi, u)
            occ = subword_occurrences(m, u, w)
            occ_d = subword_occurrences(md, ud, wd)
            assert [(o.start, o.end, classify_occurrence(o)) for o in occ] == \
                   [(o.start, o.end, classify_occurrence(o)) for o in occ_d]


def test_occurrence_shifted_host_is_equivalent(l3):
    m = build_mia(l3)
    aa = string_to_word(l3, l3.make_string(lits("b1 a1' b1 a1'")))
    needle = finite_word((), "1(v2,+1)", lits("b1 a1'"))
    for occ in subword_occurrences(m, needle, aa):
        assert occ.shifted_host is not None
        assert occ.shifted_host.base == needle.base
        assert equivalent(m, occ.shifted_host, aa)



def brute_witness_exists(m, w):
    """Witness search straight from the definitions: range over candidate
    pointed needles and test factor/image occurrence through the occurrence
    API, excluding only the identity pair."""
    u = w.left.core + w.right.core
    n = len(u)
    winv = w.inverse(m)
    for i in range(n + 1):
        for j in range(i, n + 1):
            y = u[i:j]
            for a in range(len(y) + 1):
                for v in m.initial:
                    needle = finite_word(y[:a], v, y[a:])
                    try:
                        check_word(m, needle)
                    except MiaError:
                        continue
                    occ_w = subword_occurrences(m, needle, w)
                    occ_wi = subword_occurrences(m, needle, winv)
                    factors = [o for o in occ_w if o.is_factor()]
                    if not factors:
                        continue
                    images = [("w", o) for o in occ_w if o.is_image()]
                    images += [("w-inverse", o) for o in occ_wi if o.is_image()]
                    for f in factors:
                        for tag, im in images:
                            trivial = (tag == "w" and len(y) == n
                                       and f.start == 0 and im.start == 0)
                            if not trivial:
                                return True
    return False


def test_finite_witness_scan_matches_brute_force(l3):
    m = build_mia(l3)
    checked = 0
    for x in l3.enumerate_strings(4):
        w = string_to_word(l3, x)
        fast = is_brick_word(m, w)
        slow = brute_witness_exists(m, w)
        assert fast.verdict == (not slow), l3.format_literal(x)
        checked += 1
    assert checked > 50


def test_finite_witness_scan_matches_brute_force_synthetic():
    m = multivalued_mia()
    b = Letter("b", False)
    w = finite_word((b,), "p", ())
    fast = is_brick_word(m, w)
    slow = brute_witness_exists(m, w)
    assert fast.verdict == (not slow)


def burnin_classes(m, q, base):
    """The periodic gap classes (T, G) by the burn-in walk: T is the cycle
    length of the base chain on (gap mod |q|, state), and a valid placement
    at gap r < T is in the class iff its chain agrees with the base chain at
    a gap past the burn-in bound, where any two mergeable chains started
    inside [0, T) have met (the product walk cycles within |q| |I|^2 steps).
    _PeriodicHost's walk back from the base chain's cycle through `Mia.pre`
    must give the same."""
    P = len(q)

    def forever(start, step):
        # a walk on a finite functional graph that revisits a node never fails
        seen = set()
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = step(*cur)
            if cur[1] is None:
                return False
        return True

    def right(g, x):
        return (g + 1) % P, m.step(x, q[g % P])

    def left(g, x):
        return (g - 1) % P, m.step(x, q[(g - 1) % P].inverse())

    def shift(g, s):
        y = m.step(s, q[g % P])
        return g + 1, None if y is None else m.e[y]

    def valid(g, s):
        if not forever((g % P, s), right):
            return False
        seen = set()
        while (g % P, s) not in seen:
            seen.add((g % P, s))
            if not forever((g % P, m.inv[s]), left):
                return False
            g, s = shift(g, s)
            if s is None:
                return False
        return True

    def chain_at(g, s, h):
        while g < h:
            g, s = shift(g, s)
        return s

    seen = {}
    g, s = 0, base
    while (g % P, s) not in seen:
        seen[(g % P, s)] = g
        g, s = shift(g, s)
    T = g - seen[(g % P, s)]
    burn = T + P * (len(m.initial) ** 2 + 2)
    target = chain_at(0, base, burn)
    return T, [frozenset(s for s in m.initial
                         if valid(r, s) and chain_at(r, s, burn) == target)
               for r in range(T)]


def band_words(ctx, max_len):
    """The pointed band words of ctx under its arrow MIA and its binary MIA."""
    m = build_mia(ctx)
    phi, md = parity_mia(ctx)
    for band in ctx.enumerate_bands(max_len):
        q = band.string.letters
        w = string_to_word(ctx, Word(q, (), q))
        yield m, w
        yield md, transport(phi, w)


def test_periodic_class_matches_burnin_walk(l3, gam, corpus):
    checked = 0
    for ctx in (l3, gam, *corpus[:5]):
        for m, w in band_words(ctx, 6):
            q = w.right.right_period
            for qq, base in ((q, w.base), (inv_seq(q), m.inv[w.base])):
                host = _PeriodicHost(m, qq, base)
                assert (host.T, host.G) == burnin_classes(m, qq, base), ctx.presentation
                checked += 1
    assert checked > 50
    # placements that shift by b onto t but are not valid: p's run to the
    # right dies, and q's involution reads no letter to the left
    b = Letter("b", False)
    for qq, base in (((b,), "t"), ((b.inverse(),), "t'")):
        host = _PeriodicHost(dying_runs_mia(), qq, base)
        assert (host.T, host.G) == burnin_classes(dying_runs_mia(), qq, base), qq


def burnin_margin(m, host):
    """Gaps this far from either edge of an unfolding see the periodic
    classes (the burn-in bound of burnin_classes)."""
    return host.T + host.P * (len(m.initial) ** 2 + 2)


def test_periodic_class_matches_unfolded_window(l3, corpus):
    """The T-periodic gap classes of an infinite band word agree with the
    finite-word classes computed on a long unfolding, away from the edges."""
    cases = [(l3, l3.enumerate_bands(4))]
    for ctx in corpus[:4]:
        cases.append((ctx, ctx.enumerate_bands(4)))
    for ctx, bands in cases:
        m = build_mia(ctx)
        phi, md = parity_mia(ctx)
        for band in bands[:3]:
            q = band.string.letters
            w = string_to_word(ctx, Word(q, (), q))
            wd = transport(phi, w)
            host = _PeriodicHost(md, wd.right.right_period, wd.base)
            burn = burnin_margin(md, host)
            reps = max(6, (2 * burn) // len(wd.right.right_period) + 2)
            letters = wd.right.right_period * reps
            mid = (reps // 2) * len(wd.right.right_period)
            fin = _FiniteHost(md, letters, mid, wd.base)
            # compare on gaps far enough from both window edges
            lo, hi = burn, len(letters) - burn
            assert lo < hi, "window too small for the comparison"
            for g in range(lo, hi):
                assert fin.G[g] == host.state_at(g - mid), (g, ctx.presentation)


def test_periodic_class_letter_symmetric_band():
    """A band whose binary word is more symmetric than its syllables: the
    letter period collapses to 3 while the gap classes cycle with period 6."""
    from stringbricks.algebra import parse_presentation
    from stringbricks.strings import Context
    p = parse_presentation("""\
vertex v1
arrow x0 v1 v1
arrow x1 v1 v1
relation x0 x0
relation x1 x1
relation x0 x1 x0
relation x1 x0 x1
""")
    ctx = Context(p)
    band, reasons = ctx.is_band(ctx.parse_literal("x0' x1 x0 x1' x0 x1"))
    assert band is not None, reasons
    m = build_mia(ctx)
    phi, md = parity_mia(ctx)
    q = band.string.letters
    wd = transport(phi, string_to_word(ctx, Word(q, (), q)))
    assert len(wd.right.right_period) == 3  # the binary letters collapse
    host = _PeriodicHost(md, wd.right.right_period, wd.base)
    assert host.T == 6
    assert host.state_at(0) != host.state_at(3)  # classes do not have period 3
    assert (host.T, host.G) == burnin_classes(md, wd.right.right_period, wd.base)
    burn = burnin_margin(md, host)
    reps = (2 * burn) // 3 + 2
    letters = wd.right.right_period * reps
    mid = (reps // 2) * 3
    fin = _FiniteHost(md, letters, mid, wd.base)
    for g in range(burn, len(letters) - burn):
        assert fin.G[g] == host.state_at(g - mid)


def test_periodic_multivalued_class():
    """Two seam states that shift into the base cycle: the periodic class at
    gap 0 holds both, as it does under the burn-in walk, while a third state
    shifts there too but cannot read the left side and stays out."""
    b = Letter("b", False)
    bi = b.inverse()
    m = Mia(
        states=("p", "p'", "q", "q'", "r", "r'"),
        initial=("p", "p'", "q", "q'", "r", "r'"),
        inv={"p": "p'", "p'": "p", "q": "q'", "q'": "q", "r": "r'", "r'": "r"},
        e={x: x for x in ("p", "p'", "q", "q'", "r", "r'")},
        alphabet=("b",),
        trans={("p", b): "p", ("q", b): "p", ("r", b): "p",
               ("p'", bi): "p'", ("q'", bi): "p'"},
    )
    assert validate_mia(m) == []
    host = _PeriodicHost(m, (b,), "q")
    assert (host.T, host.G) == (1, [frozenset({"p", "q"})])
    assert (host.T, host.G) == burnin_classes(m, (b,), "q")
    host = _PeriodicHost(m, (bi,), "p'")
    assert (host.T, host.G) == (1, [frozenset({"p'", "q'"})])
    assert (host.T, host.G) == burnin_classes(m, (bi,), "p'")


def test_window_refuses_multivalued_gap_states():
    """A window's chain is its whole class only when each gap state has one
    predecessor across its letter: over multivalued_mia p and q both read b
    into s, so the window b at p is refused, while b' at p', whose gap state
    q' only p' reaches, is kept."""
    m = multivalued_mia()
    b = Letter("b", False)
    with pytest.raises(UnsupportedRepresentation, match="not single-valued"):
        check_word(m, PointedWord(Word(), "p", Window((b,), False, "b")))
    check_word(m, PointedWord(Word(), "p'", Window((b.inverse(),), False, "b'")))


def test_shift_check_compares_classes_not_verdicts():
    """The inversion check compares gap classes, which is stronger than
    comparing verdicts: in the synthetic MIA the gap-0 representative of b.p
    has the same verdict, but its inverse p'.b' lies in another class than
    the inverse of b.p (p' reads b' into r, whose e is q', not p').  The MIA
    is not reversible, so `is_brick_word` does not run the check."""
    m = multivalued_mia()
    b = Letter("b", False)
    w = finite_word((b,), "p", ())
    shifted = shift_basepoint(m, w, -1)
    assert shifted == finite_word((), "p", (b,))
    assert is_brick_word(m, shifted).verdict == is_brick_word(m, w).verdict
    assert not m.reversible
    with pytest.raises(RuntimeError, match="basepoint shift"):
        _check_inversion(m, _host(m, w), _host(m, w.inverse(m)))


# ---------------------------------------------------------------------------
# start keys: a host's track is keyed by the one state of each gap class


def keyless_report(hosts, cls, weak):
    """The reference automaton report, as it was before start keys: every
    track scanned with one key for all starts, and every yielded hit
    filtered by whether the classes at its right ends share a state."""
    tracks = tuple(h.track._replace(key=None) for h in hosts)
    x, shift = tracks[0], hosts[0].shift

    def common(hit):
        return (hosts[0].state_at(hit.of + hit.L - shift)
                & hosts[hit.host].state_at(hit.oi + hit.L - shift))

    hit = next((hit for hit in pair_scan(x, tracks) if common(hit)), None)
    found = None if hit is None else witness(x, tracks, hit, f"<{min(common(hit))}>", shift)
    scope = f"window {len(x.letters)}" if isinstance(hosts[0], _WindowHost) else "exact"
    return BrickReport(found is None and (weak or cls != UNKNOWN), "automaton",
                       found, cls, scope)


def keyed_and_keyless(m, w, weak=False):
    """The report of w's two hosts, and the keyless reference's."""
    hosts = (_host(m, w), _host(m, w.inverse(m)))
    cls = classify_periodicity(underlying(w))
    return _report(hosts, cls, weak), keyless_report(hosts, cls, weak)


def single_state_miss_mia():
    """Single classes over a multi-valued pre row: p and q' both shift by b
    onto p.  In the word b' b b pointed at p' at gap 0 the classes are
    single, q' at gap 1 and p at gap 2, so the factor b at gap 1 and the
    image b at gap 2 start on different states, yet share p at their ends."""
    b = Letter("b", False)
    bi = b.inverse()
    initial = ("p", "p'", "q", "q'")
    return Mia(
        states=initial, initial=initial,
        inv={"p": "p'", "p'": "p", "q": "q'", "q'": "q"},
        e={s: s for s in initial}, alphabet=("b",),
        trans={("p'", bi): "q'", ("q'", b): "p", ("q", b): "q'", ("p", b): "p",
               ("p", bi): "p'", ("q'", bi): "q"},
    )


def empty_class_mia():
    """Single preimages and an empty class: p reads b into x, which reads
    nothing, so in the word b b pointed at p at gap 1 no state sits at gap
    0, while the factor b from gap 0 and the image b from gap 1 share p at
    their ends."""
    b = Letter("b", False)
    bi = b.inverse()
    initial = ("p", "p'", "q", "q'")
    return Mia(
        states=(*initial, "x"), initial=initial,
        inv={"p": "p'", "p'": "p", "q": "q'", "q'": "q"},
        e={**{s: s for s in initial}, "x": "p"}, alphabet=("b",),
        trans={("p", b): "x", ("p'", bi): "q", ("q", bi): "p", ("q'", b): "q'"},
    )


def half_keyed_mia():
    """Single preimages, and a word whose host has an empty class while its
    inverse's host has none: in b' pointed at p' at gap 1 nothing shifts by
    b' onto p', so gap 0 is empty, while the inverse b pointed at p at gap 0
    has p and p'; the zero-length witness <p'> at gap 1 has its image in
    x^{-1}, so it is lost if only one of the two tracks is keyed."""
    b = Letter("b", False)
    return Mia(
        states=("p", "p'"), initial=("p", "p'"), inv={"p": "p'", "p'": "p"},
        e={"p": "p", "p'": "p'"}, alphabet=("b",),
        trans={("p", b): "p'", ("p", b.inverse()): "p"},
    )


def test_string_algebra_mias_have_single_preimages(gam, corpus):
    """M_Lambda and M_Lambda-delta are reversible for every string algebra,
    here Lambda_2..Lambda_8, Gamma, the corpus, further seeded random string
    algebras and path quivers up to 4000 arrows, so every row of `Mia.pre`
    holds one state, and no gap class of a string or band word is empty, so
    every finite and periodic host's track is keyed.  None of the synthetic
    MIAs is reversible."""
    paths = [Context(parse_presentation(path_quiver_text(n))) for n in (1, 2, 7, 40)]
    ctxs = [Context(lambda_n(k)) for k in range(2, 9)] + [gam, *corpus, *paths]
    more = corpus_algebras(30, seed=CORPUS_SEED + 1)
    for ctx in ctxs + more + [Context(parse_presentation(path_quiver_text(4000)))]:
        for m in (build_mia(ctx), parity_mia(ctx)[1]):
            assert m.reversible, ctx.presentation
            assert all(len(ps) == 1 for row in m.pre.values() for ps in row.values())
    for m in (multivalued_mia(), dying_runs_mia(), single_state_miss_mia(),
              empty_class_mia(), half_keyed_mia()):
        assert validate_mia(m) == [] and not m.reversible
    hosts = 0
    for ctx in ctxs[:3] + [gam, *corpus[:6], paths[2]]:
        phi, md = parity_mia(ctx)
        words = [(m, w) for x in ctx.enumerate_strings(5)
                 for m, w in ((build_mia(ctx), string_to_word(ctx, x)),
                              (md, transport(phi, string_to_word(ctx, x))))]
        for m, w in words + list(band_words(ctx, 8)):
            for h in (_host(m, w), _host(m, w.inverse(m))):
                assert isinstance(h, (_FiniteHost, _PeriodicHost))
                assert h.track.key is not None and all(len(c) == 1 for c in h.G)
                hosts += 1
    assert hosts > 3000


def test_keyed_report_matches_keyless_reference(l3, gam, corpus):
    """Keyed and keyless scans give the same report, witness and `<state>`
    label included, on strings and bands under both MIAs, on windows, and on
    every valid short word over the synthetic MIAs, where the keyless scan
    runs."""
    checked = 0
    for ctx in (l3, gam, *corpus):
        phi, md = parity_mia(ctx)
        for x in ctx.enumerate_strings(7):
            w = string_to_word(ctx, x)
            for m, ww in ((build_mia(ctx), w), (md, transport(phi, w))):
                keyed, ref = keyed_and_keyless(m, ww)
                assert keyed == ref, (ctx.presentation, x)
                checked += 1
        for m, w in band_words(ctx, 8):
            keyed, ref = keyed_and_keyless(m, w, weak=True)
            assert keyed == ref, (ctx.presentation, w)
            checked += 1
    for x in l3.enumerate_strings(6):
        if x.letters:
            w = string_to_word(l3, Window(x.letters, False, "w"))
            keyed, ref = keyed_and_keyless(build_mia(l3), w)
            assert keyed == ref
    witnesses = 0
    for m in (multivalued_mia(), dying_runs_mia(), single_state_miss_mia(),
              empty_class_mia(), half_keyed_mia()):
        letters = m.letters()
        for n in range(4):
            for u in itertools.product(letters, repeat=n):
                for bpos, base in itertools.product(range(n + 1), m.initial):
                    w = finite_word(u[:bpos], base, u[bpos:])
                    try:
                        keyed, ref = keyed_and_keyless(m, w)
                    except MiaError:
                        continue
                    assert keyed == ref, (m, w)
                    witnesses += ref.witness is not None
        for q in letters:
            for base in m.initial:
                w = PointedWord(Word(left_period=(q,)), base, Word(right_period=(q,)))
                try:
                    keyed, ref = keyed_and_keyless(m, w, weak=True)
                except MiaError:
                    continue
                assert keyed == ref, (m, w)
    assert checked > 2000 and witnesses > 40


def test_keys_need_a_reversible_mia():
    """Keying by start state would lose a witness over an MIA that is not
    reversible, so its hosts stay keyless: a multi-valued pre row, where two
    single classes shift onto one state, and an empty class, where a hit
    starts on no state."""
    b = Letter("b", False)
    bi = b.inverse()
    for m, w, factor, image in (
            (single_state_miss_mia(), finite_word((), "p'", (bi, b, b)), 1, 2),
            (empty_class_mia(), finite_word((b,), "p", (b,)), 0, 1)):
        assert validate_mia(m) == []
        keyed, ref = keyed_and_keyless(m, w)
        assert keyed == ref and not keyed.verdict
        assert (keyed.witness.content, keyed.witness.factor.start,
                keyed.witness.image.start) == ("b", factor, image)
        # a scan keyed by each gap's class never pairs the witness's starts
        hosts = (_host(m, w), _host(m, w.inverse(m)))
        tracks = tuple(h.track._replace(key=h.G.__getitem__) for h in hosts)
        assert all(hit[:3] != (0, factor, image) for hit in pair_scan(tracks[0], tracks))
        assert all(h.track.key is None for h in hosts)
        assert not m.reversible


def test_report_keys_a_word_and_its_inverse_together():
    """A word whose class is empty at a gap while its inverse's classes are
    not: both hosts stay keyless, since they share one MIA and it is not
    reversible, so the witness with its image in x^{-1} is found."""
    m = half_keyed_mia()
    assert validate_mia(m) == [] and not m.reversible
    w = finite_word((Letter("b", True),), "p'", ())
    hosts = (_host(m, w), _host(m, w.inverse(m)))
    assert [h.track.key is not None for h in hosts] == [False, False]
    assert [all(h.G) for h in hosts] == [False, True]
    keyed, ref = keyed_and_keyless(m, w)
    assert keyed == ref
    assert (keyed.witness.content, keyed.witness.image_host) == ("<p'>", "x-inverse")


def random_mia(rng):
    """A small valid MIA: k involution pairs of initial states, e the
    identity on them, and random transitions between them, most with their
    mirror (inv y, l^{-1}) -> inv s, so many draws are reversible.  Some
    transitions are redirected to a fresh non-initial state x with e(x) = y
    that reads a random part of y's letters into y's targets (axiom 3), so
    some runs die where their e's runs go on."""
    k = rng.randint(1, 3)
    initial = [f"p{i}" for i in range(k)] + [f"p{i}'" for i in range(k)]
    inv = {f"p{i}": f"p{i}'" for i in range(k)}
    inv.update({v: u for u, v in inv.items()})
    letters = [Letter(a, i) for a in "ab"[:rng.choice((1, 1, 2))] for i in (False, True)]
    trans = {}
    for _ in range(rng.randint(1, 3 * k)):
        s, l, y = rng.choice(initial), rng.choice(letters), rng.choice(initial)
        trans.setdefault((s, l), y)
        if rng.random() < 0.9:
            trans.setdefault((inv[y], l.inverse()), inv[s])
    e = {s: s for s in initial}
    states = list(initial)
    for (s, l), y in list(trans.items()):
        if rng.random() < 0.3:
            x = f"x{len(states)}"
            states.append(x)
            e[x] = y
            trans[s, l] = x
            for (t, l2), z in list(trans.items()):
                if t == y and rng.random() < 0.5:
                    trans[x, l2] = z
    return Mia(tuple(states), tuple(initial), inv, e,
               tuple(sorted({l.sym for l in letters})), trans)


def test_reversible_mias_have_one_state_classes_that_invert():
    """On seeded small valid MIAs: every reversible one has one-state `pre`
    rows; every finite word of up to 4 letters that is valid with its
    inverse has one state in every gap class of both hosts and passes the
    inversion check, while a word whose class is empty somewhere has an
    invalid inverse, which `is_brick_word` refuses; every valid purely
    periodic word of period up to 3 has one state in every gap class.  The
    keyed report equals the keyless reference on every word of every draw,
    reversible or not."""
    rng = random.Random(28)
    reversible = words = empty = periodic = 0
    for _ in range(150):
        m = random_mia(rng)
        assert validate_mia(m) == []
        letters = m.letters()
        rev = m.reversible
        if rev:
            reversible += 1
            assert all(len(ps) == 1 for row in m.pre.values() for ps in row.values())
        for n in range(5):
            for u in itertools.product(letters, repeat=n):
                for bpos, base in itertools.product(range(n + 1), m.initial):
                    if (m.run(base, u[bpos:]) is None
                            or m.run(m.inv[base], inv_seq(u[:bpos])) is None):
                        continue  # the base's own runs die: not a valid word
                    w = finite_word(u[:bpos], base, u[bpos:])
                    try:
                        h = _host(m, w)
                    except MiaError:
                        continue
                    try:
                        hosts = (h, _host(m, w.inverse(m)))
                    except MiaError:
                        if rev and not all(h.G):
                            with pytest.raises(MiaError):
                                is_brick_word(m, w)
                            empty += 1
                        continue
                    if rev:
                        assert all(len(c) == 1 for x in hosts for c in x.G), (m, w)
                        _check_inversion(m, *hosts)
                        words += 1
                    keyed, ref = keyed_and_keyless(m, w)
                    assert keyed == ref, (m, w)
        for q in (q for p in range(1, 4) for q in itertools.product(letters, repeat=p)):
            for base in m.initial:
                w = PointedWord(Word(left_period=q), base, Word(right_period=q))
                try:
                    h = _host(m, w)
                except MiaError:
                    continue
                if rev:
                    assert all(len(c) == 1 for c in h.G), (m, w)
                    periodic += 1
                try:
                    keyed, ref = keyed_and_keyless(m, w, weak=True)
                except MiaError:
                    continue
                assert keyed == ref, (m, w)
    assert reversible > 50 and words > 1000 and empty > 0 and periodic > 100
