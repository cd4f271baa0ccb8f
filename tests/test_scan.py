"""The pair-scan routes against a brute-force pair scanner: no LCE, no
buckets, every (factor start, image start, length) tried letter by letter,
with the boundary rule and the gap keys checked straight from the
definitions."""
import random

from stringbricks.bricks import (band_brick_automaton, band_brick_direct,
                                 string_brick_automaton, string_brick_direct)
from stringbricks.construct import build_mia, parity_mia, string_to_word
from stringbricks.mia import _PeriodicHost, transport
from stringbricks.scan import unroll
from stringbricks.sturmian import sturmian_window_check
from stringbricks.words import BiInf, Letter, Window, inv_seq

OPEN = "open"
A, B = Letter("a"), Letter("b")
BLOCKS = {"a": (Letter("b1"), Letter("a1", True)), "b": (Letter("a2", True), Letter("b2"))}


def factor_ok(before, after):
    return (before is None or before.inv) and (after is None or not after.inv)


def image_ok(before, after):
    return (before is None or not before.inv) and (after is None or after.inv)


def brute_pairs(x, xinv, max_len):
    """True iff some factor occurrence in x and image occurrence in x or x^-1
    share their letters and a gap key at some gap of the span.

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
                        return True
    return False


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

                w = transport(m, phi, string_to_word(l3, win))
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

    w = transport(m, phi, string_to_word(ctx, BiInf(q, (), q)))
    hosts = [_PeriodicHost(md, w.right.period, w.base),
             _PeriodicHost(md, inv_seq(w.right.period), md.inv[w.base])]
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


def brute_sturmian(u):
    """Some infix w with both a w a and b w b inside the window."""
    n = len(u)
    for i in range(n):
        for j in range(n):
            for L in range(n):
                if i + L + 1 >= n or j + L + 1 >= n:
                    break
                if u[i] == A and u[j] == B and u[i + L + 1] == A and u[j + L + 1] == B \
                        and u[i + 1:i + L + 1] == u[j + 1:j + L + 1]:
                    return True
    return False


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
