"""The pair-scan routes against a brute-force pair scanner: no LCE, no
buckets, every (factor start, image start, length) tried letter by letter,
with the boundary rule and the gap keys checked straight from the
definitions."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (direct_band_witness_3q, factor_ok, image_ok, periodic_witness_3q,
                      sturmian_pair_scan)
from stringbricks.bricks import (band_brick_automaton, band_brick_direct,
                                 string_brick_automaton, string_brick_direct)
from stringbricks.construct import binary_word, build_mia, parity_mia, string_to_word
from stringbricks.mia import _PeriodicHost, transport
from stringbricks import scan
from stringbricks.scan import Hit, Track, lce, pair_scan, unroll
from stringbricks.sturmian import (BI_INFINITE, RIGHT_INFINITE, DirectiveSequence,
                                   _balanced, bridge, characteristic_prefix,
                                   lambda3_context, sturmian_window_check)
from stringbricks.words import Letter, Window, Word, inv_seq

OPEN = "open"
A, B = Letter("a"), Letter("b")
BLOCKS = {"a": (Letter("b1"), Letter("a1", True)), "b": (Letter("a2", True), Letter("b2"))}


def brute_first_pair(x, xinv, max_len):
    """The first (image host, factor start, image start, length) at which a
    factor occurrence in x and an image occurrence in x or x^-1 share their
    letters and a gap key at some gap of the span, in the order hosts, then
    factor starts, then image starts; None if there is none.

    A host is (letter_at, starts, keys_at): letter_at(i) is the letter at
    index i, None past a closed end or OPEN past an open one; keys_at(g) is
    the set of gap keys at gap g.  The identity pair is the whole closed word
    of x against itself."""
    at, starts, keys = x
    for tag, (at2, starts2, keys2) in (("x", x), ("x-inverse", xinv)):
        for of in starts:
            for oi in starts2:
                for L in range(max_len + 1):
                    if L and (at(of + L - 1) in (None, OPEN)
                              or at(of + L - 1) != at2(oi + L - 1)):
                        break
                    bounds = (at(of - 1), at(of + L), at2(oi - 1), at2(oi + L))
                    if OPEN in bounds or not (factor_ok(*bounds[:2]) and image_ok(*bounds[2:])):
                        continue
                    if tag == "x" and of == oi and bounds == (None,) * 4:
                        continue  # the identity pair
                    if any(keys(of + j) & keys2(oi + j) for j in range(L + 1)):
                        return tag, of, oi, L
    return None


def brute_pairs(x, xinv, max_len):
    """True iff brute_first_pair finds a pair."""
    return brute_first_pair(x, xinv, max_len) is not None


def window_host(u, left_closed, right_closed, keys):
    def at(i):
        if i < 0:
            return None if left_closed else OPEN
        if i >= len(u):
            return None if right_closed else OPEN
        return u[i]
    return at, range(len(u) + 1), lambda g: {keys[g]}


def periodic_host(q, starts, keys_at):
    return (lambda i: q[i % len(q)]), range(starts), keys_at


def chain(m, base, u):
    out = [base]
    for l in u:
        out.append(m.e[m.step(out[-1], l)])
    return out


def test_windows_match_brute_pairs(l3):
    rng = random.Random(7)
    m = build_mia(l3)
    phi, md = parity_mia(l3)
    checked = witnesses = 0
    for _ in range(40):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 9)))
        u = tuple(s for c in word for s in BLOCKS[c])
        v = inv_seq(u)
        for lc in (False, True):
            for rc in (False, True):
                win = Window(u, False, "random", left_closed=lc, right_closed=rc)
                z = [l3.gap_zero(u, g) for g in range(len(u) + 1)]
                zinv = [l3.gap_zero(v, g) for g in range(len(v) + 1)]
                direct = brute_pairs(window_host(u, lc, rc, z),
                                     window_host(v, rc, lc, zinv), len(u))
                assert (string_brick_direct(l3, win).witness is not None) == direct, (word, lc, rc)

                w = transport(phi, string_to_word(l3, win))
                ud, vd = w.right.letters, inv_seq(w.right.letters)
                auto = brute_pairs(window_host(ud, lc, rc, chain(md, w.base, ud)),
                                   window_host(vd, rc, lc, chain(md, md.inv[w.base], vd)),
                                   len(ud))
                assert (string_brick_automaton(l3, win).witness is not None) == auto, (word, lc, rc)
                assert auto == direct
                checked += 1
                witnesses += direct
    assert checked == 160 and 0 < witnesses < checked


def band_matches_brute_pairs(ctx, b):
    """Both band routes against the brute scanner; returns whether a
    witness exists."""
    m = build_mia(ctx)
    phi, md = parity_mia(ctx)
    q = b.string.letters
    P = len(q)
    qinv = inv_seq(q)

    def gap_keys(qq):
        return lambda g: {ctx.gap_zero(qq, (g - 1) % P + 1)}

    direct = brute_pairs(periodic_host(q, P, gap_keys(q)),
                         periodic_host(qinv, P, gap_keys(qinv)), 3 * P)
    assert (band_brick_direct(ctx, b, 1).witness is not None) == direct

    w = transport(phi, string_to_word(ctx, Word(q, (), q)))
    hosts = [_PeriodicHost(md, w.right.right_period, w.base),
             _PeriodicHost(md, inv_seq(w.right.right_period), md.inv[w.base])]
    auto = brute_pairs(*(periodic_host(h.q, h.T, h.state_at) for h in hosts),
                       3 * max(h.T for h in hosts))
    assert (band_brick_automaton(ctx, b, 1).witness is not None) == auto
    assert auto == direct
    return direct


def test_bands_match_brute_pairs(l3, gam, corpus):
    checked = witnesses = 0
    for ctx in (l3, gam, *corpus):
        for b in ctx.enumerate_bands(8):
            witnesses += band_matches_brute_pairs(ctx, b)
            checked += 1
    assert checked == 26 and 0 < witnesses < checked


def test_long_witness_band_matches_brute_pairs(l3):
    """The Lambda_3 image of the band aaaaaaaabaaaaaab, whose minimal common
    factor/image infix has 6 letters: a 12-letter witness, where the bands
    above have witnesses of at most 2 letters."""
    q = tuple(s for c in "aaaaaaaabaaaaaab" for s in BLOCKS[c])
    b, reasons = l3.is_band(l3.make_string(q[1:] + q[:1]))  # a band starts inverse
    assert b is not None, reasons
    assert band_matches_brute_pairs(l3, b) is True


def test_band_witnesses_are_shorter_than_the_period(l3, gam, corpus):
    """x and x^{-1} are |q|-periodic, so two starts that agree on |q|
    letters agree forever: every band witness is shorter than |q|, which
    is why the band scans unroll |q| letters past each start."""
    q = tuple(s for c in "aaaaaaaabaaaaaab" for s in BLOCKS[c])
    long_band, _ = l3.is_band(l3.make_string(q[1:] + q[:1]))
    bands = [(l3, long_band)] + [(ctx, b) for ctx in (l3, gam, *corpus)
                                 for b in ctx.enumerate_bands(8)]
    ratios = []
    for ctx, b in bands:
        q = b.string.letters
        wd = binary_word(ctx, Word(q, (), q))
        for wit in (band_brick_direct(ctx, b, 1).witness,
                    band_brick_automaton(ctx, b, 1).witness,
                    direct_band_witness_3q(ctx, q),
                    periodic_witness_3q(parity_mia(ctx)[1], wd)):
            if wit is not None:
                ratios.append((wit.factor.end - wit.factor.start) / len(q))
    assert len(ratios) > 32 and max(ratios) < 1
    assert max(ratios) == 12 / 32  # the long-witness band


def test_unroll_reaches_span_past_every_start(l3):
    # the bands checked above, the long-witness one included, still pass with
    # an unrolling that ends at the last start, so its length is checked here
    q = l3.parse_literal("a1' b1 a1' a2' b2 a2' b2 b1").letters
    for starts, span in ((8, 8), (16, 24), (3, 0)):
        t = unroll(q, starts, span)
        assert list(t.starts) == [g + 1 for g in range(starts)]
        assert all(t.letters[k] == q[(k - 1) % len(q)] for k in range(len(t.letters)))
        for g in range(starts):
            assert t.boundary(g) == q[(g - 1) % len(q)]
            assert len(t.letters) >= g + 1 + span + 1  # span letters and an after-letter


def test_band_first_witness_reads_past_the_last_start(l3):
    """The first witness of a band's scan can run well past its last start,
    so the scans need the letters `unroll` adds there.  The enumerated
    (canonical) bands of at most 16 syllables over Lambda_3 and Gamma, or 12
    over the corpus, never need them: their first witnesses end at the last
    start at the latest.  Over every rotation of the Lambda_3 images of the
    cyclic {a,b} words of at most 13 letters, this band's first witness
    reads furthest past it: factor at the last gap 23, image at 3, 16
    letters, so it reads 16 of the 24 letters unrolled past the last start.
    Both routes must return the brute scanner's first pair."""
    b, reasons = l3.is_band(l3.parse_literal(
        "a1' a2' b2 b1 a1' a2' b2 b1 a1' a2' b2 b1 a1' a2' b2 b1 a1' a2' b2 a2' b2 b1 a1' b1"))
    assert b is not None, reasons
    phi, md = parity_mia(l3)
    q = b.string.letters
    P = len(q)
    qinv = inv_seq(q)

    def gap_keys(qq):
        return lambda g: {l3.gap_zero(qq, (g - 1) % P + 1)}

    direct = brute_first_pair(periodic_host(q, P, gap_keys(q)),
                              periodic_host(qinv, P, gap_keys(qinv)), 3 * P)
    assert direct == ("x", P - 1, 3, 16)
    assert _witness_pair(band_brick_direct(l3, b, 1)) == direct

    w = transport(phi, string_to_word(l3, Word(q, (), q)))
    hosts = [_PeriodicHost(md, w.right.right_period, w.base),
             _PeriodicHost(md, inv_seq(w.right.right_period), md.inv[w.base])]
    auto = brute_first_pair(*(periodic_host(h.q, h.T, h.state_at) for h in hosts),
                            3 * max(h.T for h in hosts))
    assert _witness_pair(band_brick_automaton(l3, b, 1)) == auto == direct


def brute_sturmian_first(u):
    """The first (a position, b position, infix length) of an infix w with
    both a w a and b w b inside the window, by a position, then b position;
    None if there is none."""
    n = len(u)
    for i in range(n):
        for j in range(n):
            for L in range(n):
                if i + L + 1 >= n or j + L + 1 >= n:
                    break
                if u[i] == A and u[j] == B and u[i + L + 1] == A and u[j + L + 1] == B \
                        and u[i + 1:i + L + 1] == u[j + 1:j + L + 1]:
                    return i, j, L
    return None


def brute_sturmian(u):
    """Some infix w with both a w a and b w b inside the window."""
    return brute_sturmian_first(u) is not None


def test_sturmian_window_check_matches_brute():
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        u = tuple(rng.choice((A, B)) if rng.random() < 0.5 else (A, B)[k % 2]
                  for k in range(rng.randint(1, 16)))
        v = sturmian_window_check(Window(u, False, "random"))
        assert (v is not None) == brute_sturmian(u), u
        if v is not None:
            k = len(v.infix)
            assert u[v.a_position:v.a_position + k + 2] == (A,) + v.infix + (A,)
            assert u[v.b_position:v.b_position + k + 2] == (B,) + v.infix + (B,)
            found += 1
    assert 0 < found < 300


def test_sturmian_window_check_matches_brute_on_every_short_word():
    """The balance test clears a window and the pair scan finds the first
    violation: together they give the brute scanner's first violation on
    every {a,b} word of at most 12 letters."""
    clean = 0
    for n in range(13):
        for u in itertools.product((A, B), repeat=n):
            v = sturmian_window_check(Window(u, False, "all"))
            got = None if v is None else (v.a_position, v.b_position, len(v.infix))
            assert got == brute_sturmian_first(u), u
            clean += v is None
    assert 0 < clean < 2 ** 13 - 1


@st.composite
def balance_words(draw):
    """Random {a,b} words, and factors of characteristic words with up to two
    letters flipped."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.sampled_from((A, B)), max_size=60)))
    d = DirectiveSequence((draw(st.integers(0, 3)),),
                          tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
    n = draw(st.integers(0, 120))
    off = draw(st.integers(0, 20))
    u = list(characteristic_prefix(d, off + n + 1).letters[off:off + n])
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2 if n else 0)):
        u[i] = A if u[i] == B else B
    return tuple(u)


@settings(max_examples=400, deadline=None)
@given(balance_words())
def test_balance_verdict_matches_pair_scan(u):
    assert _balanced(u) == (sturmian_pair_scan(u) is None)


# ---------------------------------------------------------------------------
# the exact LCE, and the routes on windows whose extensions pass 8 letters


def reference_lce(u, i, v, j):
    k = 0
    while i + k < len(u) and j + k < len(v) and u[i + k] == v[j + k]:
        k += 1
    return k


def test_lce_matches_letter_by_letter():
    rng = random.Random(3)
    alphabet = (A, B, A.inverse(), B.inverse())
    long_ones = 0
    for trial in range(400):
        n = rng.randint(0, 300)
        if trial % 2:
            q = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
            u = (q * (n // len(q) + 1))[:n]
        else:
            u = tuple(rng.choice(alphabet[:rng.randint(1, 4)]) for _ in range(n))
        # v: u from s on, maybe with one letter changed, and a tail of its own,
        # so extensions from aligned starts run long and end at a mismatch
        # or at either end
        s = rng.randint(0, n)
        v = list(u[s:]) + [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
        if v and rng.random() < 0.7:
            v[rng.randrange(len(v))] = rng.choice(alphabet)
        v = tuple(v)
        d = rng.randint(0, len(v))
        pairs = [(i, j) for i in (0, n, rng.randint(0, n))
                 for j in (0, len(v), rng.randint(0, len(v)))]
        pairs += [(s, 0), (min(s + d, n), d)]
        for i, j in pairs:
            want = reference_lce(u, i, v, j)
            assert lce(u, i, v, j) == want == lce(v, j, u, i), (u, i, v, j)
            long_ones += want > 8
        assert lce(u, s, u, s) == n - s
    assert long_ones > 200


def test_pair_scan_rejects_list_letters():
    # a list slice never equals a tuple slice, so a list track would get LCE 0
    u = (A, B, B, A)
    with pytest.raises(TypeError):
        next(pair_scan(Track(list(u)), (Track(u),)))
    with pytest.raises(TypeError):
        next(pair_scan(Track(u), (Track(u), Track(list(u)))))


def fibonacci_words(rng, count, lo, hi):
    """{a,b} words of lo..hi letters from the Fibonacci word: prefixes, prefixes
    without their first letter, and prefixes with one letter flipped in their
    second half (the long balanced stretch before a late flip makes the
    first witness long)."""
    fib = DirectiveSequence.parse("1,(1)")
    out = []
    for k in range(count):
        n = rng.randint(lo, hi)
        word = [l.sym for l in characteristic_prefix(fib, n + 1).letters]
        word = word[1:] if k % 3 == 1 else word[:n]
        if k % 3 == 2:
            f = rng.randrange(n // 2, n)
            word[f] = "b" if word[f] == "a" else "a"
        out.append("".join(word))
    return out


def test_long_sturmian_windows_match_brute():
    rng = random.Random(13)
    words = fibonacci_words(rng, 30, 40, 90)
    words += ["".join(rng.choice("ab") for _ in range(rng.randint(40, 90)))
              for _ in range(10)]
    infixes = []
    for word in words:
        u = tuple(A if c == "a" else B for c in word)
        v = sturmian_window_check(Window(u, False, "random"))
        first = brute_sturmian_first(u)
        assert (None if v is None else (v.a_position, v.b_position, len(v.infix))) == first, word
        if v is not None:
            k = len(v.infix)
            assert u[v.a_position:v.a_position + k + 2] == (A,) + v.infix + (A,)
            assert u[v.b_position:v.b_position + k + 2] == (B,) + v.infix + (B,)
            infixes.append(k)
    assert 0 < len(infixes) < len(words) and max(infixes) > 8


def _witness_pair(rep):
    w = rep.witness
    return None if w is None else (w.image_host, w.factor.start, w.image.start,
                                   w.factor.end - w.factor.start)


def test_long_windows_match_brute_first_pair(l3):
    """Lambda_3 windows of 40-90 letters: both window routes return the brute
    scanner's first pair, witness lengths past 8 letters included."""
    rng = random.Random(17)
    m = build_mia(l3)
    phi, md = parity_mia(l3)
    firsts = []
    for word in fibonacci_words(rng, 12, 20, 45):
        u = tuple(s for c in word for s in BLOCKS[c])
        v = inv_seq(u)
        for lc in (False, True):
            for rc in (False, True):
                win = Window(u, False, "fibonacci", left_closed=lc, right_closed=rc)
                z = [l3.gap_zero(u, g) for g in range(len(u) + 1)]
                zinv = [l3.gap_zero(v, g) for g in range(len(v) + 1)]
                first = brute_first_pair(window_host(u, lc, rc, z),
                                         window_host(v, rc, lc, zinv), len(u))
                assert _witness_pair(string_brick_direct(l3, win)) == first, (word, lc, rc)

                w = transport(phi, string_to_word(l3, win))
                ud, vd = w.right.letters, inv_seq(w.right.letters)
                auto = brute_first_pair(window_host(ud, lc, rc, chain(md, w.base, ud)),
                                        window_host(vd, rc, lc, chain(md, md.inv[w.base], vd)),
                                        len(ud))
                assert _witness_pair(string_brick_automaton(l3, win)) == auto, (word, lc, rc)
                firsts.append(first)
    lengths = [f[3] for f in firsts if f is not None]
    assert 0 < len(lengths) < len(firsts) and max(lengths) > 8


# ---------------------------------------------------------------------------
# pair_scan itself against a scan by definition


ALPHABET = (A, B, A.inverse(), B.inverse())


def brute_scan(track, images):
    """pair_scan by definition: every (host, factor start, image start, L)
    tried letter by letter, with the boundary letters read straight from
    the track.  Returns the candidate pairs (equal keys, admissible
    before-letters) and every admissible hit, in order."""

    def at(t, i):
        if 0 <= i < len(t.letters):
            return t.letters[i]
        closed = t.left_closed if i < 0 else t.right_closed
        return None if closed else OPEN

    def starts(t, ok):
        gaps = t.starts if t.starts is not None else range(len(t.letters) + 1)
        return [o for o in gaps if at(t, o - 1) != OPEN and ok(at(t, o - 1), None)]

    def key(t, o):
        return t.key(o) if t.key else None

    candidates, hits = [], []
    for h, t in enumerate(images):
        for of in starts(track, factor_ok):
            for oi in starts(t, image_ok):
                if key(track, of) != key(t, oi) or (t is track and of == oi):
                    continue
                candidates.append((h, of, oi))
                for L in range(min(len(track.letters) - of, len(t.letters) - oi) + 1):
                    if L and track.letters[of + L - 1] != t.letters[oi + L - 1]:
                        break
                    fa, ia = at(track, of + L), at(t, oi + L)
                    if OPEN in (fa, ia) or not (factor_ok(None, fa) and image_ok(None, ia)):
                        continue
                    hits.append(Hit(h, of, oi, L))
    return candidates, hits


def scan_matches_brute(track, images):
    """pair_scan yields the brute scan's hits in the same order; returns
    the brute scan's output."""
    want = brute_scan(track, images)
    assert list(pair_scan(track, images)) == want[1]
    return want


@st.composite
def scan_cases(draw):
    """A factor track and its image tracks (the track itself, its inverse or
    other random tracks) over a mixed direct/inverse alphabet, with random
    edges, start ranges of step 1 or 2 (the Sturmian check starts at every
    other gap) and, for all tracks or none, random start keys."""
    alphabet = draw(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=4, unique=True))
    keyed = draw(st.booleans())

    def keys(n):
        return tuple(draw(st.lists(st.integers(0, 1), min_size=n + 1, max_size=n + 1)))

    def track():
        letters = tuple(draw(st.lists(st.sampled_from(alphabet), max_size=10)))
        n = len(letters)
        starts = None
        if draw(st.booleans()):
            lo = draw(st.integers(0, n + 1))
            starts = range(lo, draw(st.integers(lo, n + 1)), draw(st.integers(1, 2)))
        return Track(letters, draw(st.booleans()), draw(st.booleans()), starts,
                     keys(n).__getitem__ if keyed else None)

    x = track()
    images = []
    for kind in draw(st.lists(st.sampled_from(("self", "inverse", "other")),
                              min_size=1, max_size=3)):
        if kind == "self":
            images.append(x)
        elif kind == "inverse":
            inverse = x.inverse()
            images.append(inverse._replace(key=keys(len(x.letters)).__getitem__)
                          if keyed else inverse)
        else:
            images.append(track())
    return x, tuple(images)


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_pair_scan_matches_brute_scan(case):
    scan_matches_brute(*case)


def test_pair_scan_matches_brute_scan_on_all_short_words():
    """Every word of <= 3 letters over a, a', b with every pair of edges,
    against itself and its inverse: both scans yield every hit.  The pairs
    include the ones the scan decides without an LCE: L = 0 at a closed end
    gap and between differing first letters, and starts at an open end
    gap."""
    closed_end = differing = open_end = 0
    for w in (w for k in range(4) for w in itertools.product((A, A.inverse(), B), repeat=k)):
        for lc, rc in itertools.product((False, True), repeat=2):
            x = Track(w, lc, rc)
            images = (x, x.inverse())
            candidates, hits = scan_matches_brute(x, images)
            n = len(w)
            for h, of, oi, L in hits:
                closed_end += L == 0 and n in (of, oi)
                differing += L == 0 and n not in (of, oi) and w[of] != images[h].letters[oi]
            open_end += sum((of == n and not rc) or (oi == n and not images[h].right_closed)
                            for h, of, oi in candidates)
    assert closed_end > 50 and differing > 50 and open_end > 50


# ---------------------------------------------------------------------------
# the order-pruned scan: its code bands, its suffix comparison, and scale


def test_codes_are_laid_out_again_past_a_full_band(monkeypatch):
    """A band holds 62 codes while the code strings are ASCII; more letters
    double it and lay every code out again, once while the factor track is
    encoded and once while a later image track is (past one byte per code
    then), and the scan still yields the brute scan's hits in its order."""
    monkeypatch.setattr(scan, "_CODES", scan._Codes())  # a table that starts empty
    rng = random.Random(5)
    sym = [Letter(f"s{i}") for i in range(200)]
    u = sym[:70] + [rng.choice(sym[:70]).inverse() for _ in range(50)]
    rng.shuffle(u)
    x = Track(tuple(u))
    other = Track(tuple(rng.sample([l.inverse() for l in sym[70:]], 130)), False, False)
    for images in ((x, x.inverse(), other), (other, x)):
        _, hits = scan_matches_brute(x, images)
        assert hits
    assert scan._CODES.cap > 124


class CountingStr(str):
    """A str that counts the characters its slices copy."""
    read = 0

    def __getitem__(self, k):
        out = str.__getitem__(self, k)
        CountingStr.read += len(out)
        return out


def test_suffix_comparison_reads_o_lce_characters():
    """Ordering two suffixes (or taking their LCE) reads O(LCE) characters
    of long strings, never a whole suffix."""
    rng = random.Random(19)
    for _ in range(200):
        ell = rng.choice((0, 1, 2, 7, 100, 1000))
        common = "".join(rng.choice("ab") for _ in range(ell))
        tails = rng.sample("cde", 2)
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 50))) + common
        v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 50))) + common
        i, j = len(u) - ell, len(v) - ell
        u = CountingStr(u + tails[0] + "ab" * 50000)
        v = CountingStr(v + tails[1] + "ba" * 50000)
        CountingStr.read = 0
        assert scan._below(u, i, v, j) == (tails[0] < tails[1])
        assert CountingStr.read <= 8 * (ell + 1)
        CountingStr.read = 0
        assert lce(u, i, v, j) == ell
        assert CountingStr.read <= 8 * (ell + 1)


@pytest.mark.parametrize("directive", ["1,(1)", "0,(2,1)"])
def test_long_windows_scale(directive):
    """Clean characteristic windows of 2^10 to 2^14 letters: the bridge on
    both sides finds no witness and agrees with the Sturmian check, and so
    does the direct route on its string window; the same window with its
    first letter dropped, read right-infinite, has a witness on both
    routes."""
    d = DirectiveSequence.parse(directive)
    ctx = lambda3_context()
    for k in range(10, 15):
        n = 1 << k
        w = characteristic_prefix(d, n)
        for side in (RIGHT_INFINITE, BI_INFINITE):
            res = bridge(w, side)
            assert res.report.witness is None and res.consistent(), (n, side)
            assert string_brick_direct(ctx, res.string_window).witness is None, (n, side)
        longer = characteristic_prefix(d, n + 1)
        dropped = Window(longer.letters[1:], True, "dropped", left_closed=True,
                         right_closed=False)
        res = bridge(dropped, RIGHT_INFINITE)
        assert res.report.witness is not None, n
        assert string_brick_direct(ctx, res.string_window).witness is not None, n
