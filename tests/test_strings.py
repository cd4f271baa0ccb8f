import itertools
import random
from functools import partial

import pytest

from conftest import concat, tilde_a_text
from stringbricks.algebra import (SignError, SignMaps, parse_presentation,
                                  solve_sign_maps)
from stringbricks.bricks import string_brick_direct
from stringbricks.presets import gamma
from stringbricks.strings import Band, CapExceeded, Context, Str, StringError
from stringbricks.words import Letter, Word, primitive_root


def L(tok: str) -> Letter:
    return Letter(tok[:-1], True) if tok.endswith("'") else Letter(tok, False)


def lits(text: str):
    return tuple(L(t) for t in text.split())


# --- construction -----------------------------------------------------------

def test_make_string_a(l3):
    x = l3.make_string(lits("b1 a1'"))
    assert x.src == "v2" and x.dst == "v2"


def test_make_string_relation_violated(l3):
    with pytest.raises(StringError) as err:
        l3.make_string(lits("b2 a1"))
    assert err.value.position == 1
    assert "relation" in str(err.value)


def test_make_string_backtrack(l3):
    with pytest.raises(StringError) as err:
        l3.make_string(lits("a1 a1'"))
    assert "backtrack" in str(err.value)


def test_make_string_gamma_relation(gam):
    with pytest.raises(StringError):
        gam.make_string(lits("a3 b c1"))


def test_make_string_inverse_relation_rejected(l3):
    # the inverse of b2 a1 is A1 B2; its window reversal lies in rho
    with pytest.raises(StringError):
        l3.make_string(lits("a1' b2'"))


def test_given_signs_must_satisfy_the_conditions(l3, gam, corpus):
    """The gap-state table is right only under (a)-(c), so signs that break
    them are refused; solved signs are taken as they are."""
    for ctx in (l3, gam, *corpus):
        p = ctx.presentation
        assert Context(p, solve_sign_maps(p)).leaving == ctx.leaving
    p = l3.presentation
    flat = SignMaps({a: (1, 1) for a, _, _ in p.arrows})
    with pytest.raises(SignError, match=r"^given signs violate \(a\): arrows a1,b1 share"):
        Context(p, flat)


def test_zero_string_signs(l3):
    z = l3.zero("v2", 1)
    assert (z.sig, z.eps, z.src, z.dst) == (-1, 1, "v2", "v2")
    assert z.inverse() == l3.zero("v2", -1)


def test_literal_roundtrip(l3):
    for text in ("b1 a1'", "1(v2,+1)", "a2' b2"):
        x = l3.parse_literal(text)
        assert l3.parse_literal(Context.format_literal(x)) == x


def test_zero_literal_reports_the_zero_length_error(l3):
    # only a bad split or side number is a malformed literal; a well-formed
    # one keeps the reason zero() gives
    for text, reason in (("1(v9,+1)", "unknown vertex v9"),
                         ("1(v2,2)", "side must be +1 or -1"),
                         ("1(v2)", "malformed zero-length literal '1(v2)'"),
                         ("1(v2,x)", "malformed zero-length literal '1(v2,x)'")):
        with pytest.raises(StringError) as err:
            l3.parse_literal(text)
        assert str(err.value) == reason


# --- the relation check against the per-index reference ---------------------

def reference_check_window(ctx, letters, i):
    """Relation clauses for every window ending at index i."""
    for L in range(2, ctx.maxrel + 1):
        if i - L + 1 < 0:
            break
        win = letters[i - L + 1:i + 1]
        if all(not l.inv for l in win):
            if tuple(l.sym for l in win) in ctx.rels:
                raise StringError(f"relation {' '.join(l.sym for l in win)} violated", i)
        if all(l.inv for l in win):
            if tuple(l.sym for l in reversed(win)) in ctx.rels:
                raise StringError(
                    "inverse of relation "
                    + " ".join(l.sym for l in reversed(win)) + " violated", i)


def reference_make_string(ctx, seq):
    seq = tuple(seq)
    if not seq:
        raise StringError("empty syllable sequence (use zero(v, side) for 1_(v,i))")
    for l in seq:
        if l.sym not in ctx.amap:
            raise StringError(f"unknown arrow {l.sym}")
    for i in range(1, len(seq)):
        if ctx.letter_dst(seq[i - 1]) != ctx.letter_src(seq[i]):
            raise StringError(
                f"composition mismatch t({seq[i-1]})={ctx.letter_dst(seq[i-1])}"
                f" != s({seq[i]})={ctx.letter_src(seq[i])}", i)
        if seq[i - 1] == seq[i].inverse():
            raise StringError(f"backtrack {seq[i-1]} {seq[i]}", i)
    for i in range(len(seq)):
        reference_check_window(ctx, seq, i)
    return Str(seq, ctx.letter_src(seq[0]), ctx.letter_dst(seq[-1]),
               ctx.sig(seq[0]), ctx.eps(seq[-1]))


def reference_continuations(ctx, seq):
    out = []
    for nxt in ctx.syllables():
        if ctx.letter_src(nxt) != ctx.letter_dst(seq[-1]) or nxt == seq[-1].inverse():
            continue
        tail = tuple(seq[-(ctx.maxrel - 1):]) + (nxt,)
        try:
            for i in range(len(tail)):
                reference_check_window(ctx, tail, i)
        except StringError:
            continue
        out.append(nxt)
    return out


def outcome(make, seq):
    try:
        return make(seq)
    except StringError as err:
        return str(err), err.position


def test_make_string_matches_per_index_reference(l3, gam, long_rels, corpus):
    rng = random.Random(29)
    ctxs = (l3, gam, long_rels, *corpus[:5])
    kinds = set()
    for ctx in ctxs:
        syl = ctx.syllables()
        seqs = [s for k in range(1, 5) for s in itertools.product(syl, repeat=k)]
        seqs += [tuple(rng.choice(syl) for _ in range(rng.randint(1, 9)))
                 for _ in range(20000 // len(ctxs))]
        for seq in seqs:
            got = outcome(ctx.make_string, seq)
            assert got == outcome(partial(reference_make_string, ctx), seq), seq
            kinds.add("ok" if isinstance(got, Str) else got[0].split()[0])
    assert kinds == {"ok", "composition", "backtrack", "relation", "inverse"}


def test_continuations_match_per_index_reference(l3, gam, l6, long_rels, corpus):
    """The gap-state table with the relation test gives what the brute rule
    (composition, no backtrack, no relation window, over every syllable)
    gives, in the same order."""
    extended = 0
    for ctx in (l3, gam, l6, long_rels, *corpus):
        for x in ctx.enumerate_strings(6):
            if x.letters:
                got = ctx.continuations(x.letters)
                assert got == reference_continuations(ctx, x.letters), x
                extended += bool(got)
    assert extended > 1000


def test_leaving_table_lists_each_syllable_under_its_gap_state(l3, gam, l6, corpus):
    for ctx in (l3, gam, l6, *corpus):
        for (v, i), syls in ctx.leaving.items():
            assert 1 <= len(syls) <= 2
            assert syls == [b for b in ctx.syllables()
                            if ctx.letter_src(b) == v and ctx.sig(b) == -i]
        assert sum(map(len, ctx.leaving.values())) == len(ctx.syllables())


def test_syllable_lists_belong_to_the_caller():
    # callers may reorder what they get (the benchmark's random walks shuffle
    # both lists), so each call returns a new list
    ctx = Context(gamma())
    seq = ctx.syllables()[:1]
    expect = (ctx.syllables(), ctx.continuations(seq))
    assert expect[0][:4] == [L("a1"), L("a1'"), L("a2"), L("a2'")]
    ctx.syllables().reverse()
    ctx.continuations(seq).clear()
    assert (ctx.syllables(), ctx.continuations(seq)) == expect


# --- concatenation ----------------------------------------------------------

def test_concat_ab(l3):
    a = l3.parse_literal("b1 a1'")
    b = l3.parse_literal("a2' b2")
    ab = concat(l3, a, b)
    assert len(ab) == 4
    assert ab == l3.make_string(lits("b1 a1' a2' b2"))


def test_concat_right_identity(l3):
    x = l3.parse_literal("b1 a1'")
    assert concat(l3, x, l3.zero(x.dst, x.eps)) == x


def test_concat_zero_sign_mismatch(l3):
    x = l3.parse_literal("b1 a1'")
    with pytest.raises(StringError):
        concat(l3, l3.zero("v2", x.sig), x)
    assert concat(l3, l3.zero("v2", -x.sig), x) == x


def test_concat_associative_where_defined(l3):
    xs = l3.enumerate_strings(3)
    for x, y, z in itertools.islice(itertools.product(xs, xs, xs), 0, 40000):
        try:
            xy = concat(l3, x, y)
        except StringError:
            continue
        try:
            yz = concat(l3, y, z)
        except StringError:
            continue
        try:
            lhs = concat(l3, xy, z)
        except StringError:
            lhs = None
        try:
            rhs = concat(l3, x, yz)
        except StringError:
            rhs = None
        assert lhs == rhs


# --- inversion --------------------------------------------------------------

def test_inverse_involution_on_corpus(l3, gam):
    for ctx in (l3, gam):
        for x in ctx.enumerate_strings(4):
            assert x.inverse().inverse() == x
            if not x.is_zero():
                assert ctx.try_string(x.inverse().letters) is not None


# --- factor / image substrings ----------------------------------------------

def brute_factor_substrings(ctx, x, image=False):
    """Independent oracle for the four defining clauses, using only
    concatenation and prefix/suffix equality on syllable sequences."""
    if x.is_zero():
        return {(x.key(), 0, 0)}  # a zero-length string is its only substring
    n = len(x.letters)
    out = set()

    def contents(i, j):
        if i == j:
            # any zero string that concatenates correctly at this gap
            cands = []
            for v in ctx.presentation.vertices:
                for s in (1, -1):
                    z = ctx.zero(v, s)
                    if i < n:
                        nxt = x.letters[i]
                        if not (z.dst == ctx.letter_src(nxt) and ctx.sig(nxt) == -z.eps):
                            continue
                    if i > 0:
                        prev = x.letters[i - 1]
                        if not (ctx.letter_dst(prev) == z.src and z.sig == -ctx.eps(prev)):
                            continue
                    cands.append(z)
            return cands
        return [ctx.make_string(x.letters[i:j])]

    for i in range(n + 1):
        for j in range(i, n + 1):
            before = x.letters[i - 1] if i > 0 else None
            after = x.letters[j] if j < n else None
            if image:
                ok = (before is None or not before.inv) and (after is None or after.inv)
            else:
                ok = (before is None or before.inv) and (after is None or not after.inv)
            if ok:
                for u in contents(i, j):
                    out.add((u.key(), i, j))
    return out


def brute_has_witness(ctx, x):
    """A content that is a factor substring of x and an image substring of x
    or of x^{-1}, the identity pair (x as both, by equality) excepted."""
    whole = (x.key(), 0, len(x))
    factors = brute_factor_substrings(ctx, x)
    for host in (x, x.inverse()):
        images = brute_factor_substrings(ctx, host, image=True)
        for f in factors:
            for i in images:
                if f[0] == i[0] and not (host is x and f == i == whole):
                    return True
    return False


def test_factor_substrings_of_a(l3):
    a = l3.parse_literal("b1 a1'")
    z = l3.zero("v2", 1).key()
    assert brute_factor_substrings(l3, a) == {(a.key(), 0, 2), (z, 0, 0), (z, 2, 2)}


def test_image_substring_clause_right(l3):
    ab = l3.parse_literal("b1 a1' a2' b2")
    # A2 b2 occurs as a factor substring via the right-end clause
    wanted = l3.parse_literal("a2' b2")
    assert (wanted.key(), 2, 4) in brute_factor_substrings(l3, ab)


def inverse_key(k):
    if k[0] == 0:
        return (0, k[1], -k[2])
    return (1, tuple((sym, not inv) for sym, inv in reversed(k[1])))


def test_substring_inversion_duality(l3, gam):
    for ctx in (l3, gam):
        for x in ctx.enumerate_strings(6):
            if x.is_zero():
                continue
            for image in (False, True):
                keys = {k for k, _, _ in brute_factor_substrings(ctx, x, image)}
                inv = {k for k, _, _ in brute_factor_substrings(ctx, x.inverse(), image)}
                assert keys == {inverse_key(k) for k in inv}


def test_direct_verdict_matches_brute_substrings(l3, gam, corpus):
    for ctx in (l3, gam, *corpus[:5]):
        for x in ctx.enumerate_strings(6):
            assert string_brick_direct(ctx, x).verdict == (not brute_has_witness(ctx, x)), \
                Context.format_literal(x)


# --- bands --------------------------------------------------------------------

def test_band_recognition(l3):
    b, reasons = l3.is_band(l3.parse_literal("a2' b2"))
    assert b is not None and reasons == []
    b, reasons = l3.is_band(l3.parse_literal("b1 a1'"))
    assert b is None and "direct" in reasons[0]
    b, reasons = l3.is_band(l3.parse_literal("a1' b1 a1' b1"))
    assert b is None and any("primitive" in r for r in reasons)


def test_band_cube_consistency(l3, gam, corpus):
    # if the square is a string the cube is too (the local-violation bound)
    for ctx in (l3, gam, *corpus[:5]):
        for b in ctx.enumerate_bands(6):
            letters = b.string.letters
            assert ctx.try_string(letters * 3) is not None


def test_accepted_bands_are_valid_periodic_words(l3, gam, corpus):
    """Every string of <= 8 syllables that is_band accepts, and the
    100-syllable tilde-A band, is a valid periodic word, so the automaton
    route builds a band's word without validating it again: a relation
    window is all one direction, and at the join a direct letter meets an
    inverse one."""
    bands = 0
    for ctx in (l3, gam, *corpus):
        for x in ctx.enumerate_strings(8):
            band, _ = ctx.is_band(x)
            if band is not None:
                q = band.string.letters
                ctx.validate_inf_str(Word(q, (), q))
                bands += 1
    assert bands > 50
    n = 50
    ctx = Context(parse_presentation(tilde_a_text(n)))
    band, reasons = ctx.is_band(ctx.parse_literal(" ".join(
        [f"b{i}'" for i in range(n, 0, -1)] + [f"a{i}" for i in range(1, n + 1)])))
    assert reasons == []
    q = band.string.letters
    ctx.validate_inf_str(Word(q, (), q))


def test_enumerate_counts(l3):
    assert len(l3.enumerate_strings(0)) == 6
    assert len(l3.enumerate_strings(1)) == 14


def test_negative_max_len_rejected(l3):
    for n in (-1, -5):
        with pytest.raises(StringError, match="max_len"):
            l3.enumerate_strings(n)
        with pytest.raises(StringError, match="max_len"):
            l3.enumerate_bands(n)


def test_enumerate_strings_independent_count(l3, gam):
    # slow oracle: grow by full revalidation instead of incremental windows
    for ctx in (l3, gam):
        expected = {0: 2 * len(ctx.presentation.vertices)}
        level = [(s,) for s in ctx.syllables() if ctx.try_string((s,)) is not None]
        for n in range(1, 5):
            expected[n] = len(level)
            nxt = []
            for seq in level:
                for s in ctx.syllables():
                    if ctx.try_string(seq + (s,)) is not None:
                        nxt.append(seq + (s,))
            level = nxt
        got = ctx.enumerate_strings(4)
        by_len = {}
        for x in got:
            by_len[len(x)] = by_len.get(len(x), 0) + 1
        assert by_len == {k: v for k, v in expected.items() if v}


def test_enumerate_strings_matches_validated_growth(l3, gam, corpus):
    """The enumeration builds each string without validating it again; it
    gives the same strings, field for field and in the same order, as
    growing every string by every syllable through make_string."""
    for ctx in (l3, gam, *corpus[:5]):
        expect = [ctx.zero(v, i) for v in ctx.presentation.vertices for i in (1, -1)]
        level = [()]
        for _ in range(7):
            level = [x.letters for seq in level for s in ctx.syllables()
                     if (x := ctx.try_string(seq + (s,))) is not None]
            expect += map(ctx.make_string, level)
        expect.sort(key=Str.key)
        assert ctx.enumerate_strings(7) == expect  # Str equality compares every field


def test_enumerate_bands_lambda3(l3):
    bands = [Context.format_literal(b.string) for b in l3.enumerate_bands(2)]
    assert bands == ["a1' b1", "a2' b2"]


def test_band_canonical_includes_rotations(l3):
    raw = [x for x in l3.enumerate_strings(2)
           if not x.is_zero() and x.src == x.dst and l3.is_band(x)[0] is not None]
    assert {Context.format_literal(x) for x in raw} == {"a1' b1", "a2' b2", "b1' a1", "b2' a2"}


def test_cap_exceeded(l3):
    with pytest.raises(CapExceeded):
        l3.enumerate_strings(8, cap=10)


def reference_enumerate_strings(ctx, max_len, cap=200000):
    """Every string grown syllable by syllable over the brute continuation
    rule, with the cap counting zero-length strings too; sorted at every
    length, 0 included."""
    if max_len < 0:
        raise StringError(f"max_len must be >= 0, got {max_len}")
    out = [ctx.zero(v, i) for v in ctx.presentation.vertices for i in (1, -1)]
    if max_len == 0:
        return sorted(out, key=Str.key)
    stack = [(l,) for l in ctx.syllables()]
    while stack:
        seq = stack.pop()
        out.append(ctx.make_string(seq))
        if len(out) > cap:
            raise CapExceeded(f"more than {cap} strings")
        if len(seq) < max_len:
            stack.extend(seq + (b,) for b in reference_continuations(ctx, seq))
    out.sort(key=Str.key)
    return out


def reference_is_band(ctx, x):
    return (x.letters and x.src == x.dst
            and len(primitive_root(x.letters)) == len(x.letters)
            and x.letters[0].inv and not x.letters[-1].inv
            and ctx.try_string(x.letters + x.letters) is not None)


def reference_enumerate_bands(ctx, max_len):
    """The canonical form of every band among all strings."""
    seen = {}
    for x in reference_enumerate_strings(ctx, max_len):
        if reference_is_band(ctx, x):
            canon = ctx.band_canonical(Band(x))
            seen[canon.key()] = Band(canon)
    return [seen[k] for k in sorted(seen)]


def enumeration_outcome(enumerate_, *args):
    try:
        return enumerate_(*args)
    except (CapExceeded, StringError) as err:
        return type(err), str(err)


def test_enumerate_strings_cap_matches_reference(l3, gam, l6, corpus):
    """CapExceeded, with its message, exactly where the brute growth raises
    it; the benchmark's corpus is selected on this cap."""
    raised = 0
    for ctx in (l3, gam, l6, *corpus[:8]):
        zeros = 2 * len(ctx.presentation.vertices)
        for n in range(-1, 6):
            total = len(reference_enumerate_strings(ctx, max(n, 0)))
            for cap in {0, 1, zeros - 1, zeros, zeros + 1, total - 1, total, total + 1}:
                got = enumeration_outcome(ctx.enumerate_strings, n, cap)
                assert got == enumeration_outcome(
                    partial(reference_enumerate_strings, ctx), n, cap), (n, cap)
                raised += isinstance(got, tuple) and got[0] is CapExceeded
    assert raised > 100


def test_enumerate_bands_match_filter_over_strings(l3, gam, l6, corpus):
    found = 0
    for ctx in (l3, gam, l6, *corpus):
        for n in range(9):
            got = ctx.enumerate_bands(n)
            assert got == reference_enumerate_bands(ctx, n), n
            found += len(got)
    assert found > 100


def test_band_cap_counts_the_strings_walked(l3, gam, l6):
    # only strings that start with an inverse syllable are walked
    for ctx in (l3, gam, l6):
        for n in range(1, 7):
            walked = sum(x.letters[0].inv for x in ctx.enumerate_strings(n) if x.letters)
            assert ctx.enumerate_bands(n, cap=walked) == ctx.enumerate_bands(n)
            with pytest.raises(CapExceeded, match=f"^more than {walked - 1} strings$"):
                ctx.enumerate_bands(n, cap=walked - 1)


def test_zero_length_count_any_presentation(gam, corpus):
    for ctx in (gam, *corpus[:4]):
        assert len(ctx.enumerate_strings(0)) == 2 * len(ctx.presentation.vertices)
