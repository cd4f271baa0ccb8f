"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget."""
import random
import time

from conftest import direct_band_witness_3q

from stringbricks.algebra import parse_presentation, validate_string_algebra
from stringbricks.bricks import (band_brick_automaton, band_brick_direct,
                                 string_brick_automaton, string_brick_direct)
from stringbricks.construct import (build_mia, parity_mia, string_to_word,
                                    zero_label)
from stringbricks.endo import end_dim_band, end_dim_string
from stringbricks.mia import (equivalent, is_brick_word, is_weak_brick_word,
                              shift_basepoint, transport, transport_back)
from stringbricks.presets import gamma, lambda3, lambda_n_text
from stringbricks.strings import Context
from stringbricks.sturmian import (RIGHT_INFINITE, DirectiveSequence, bridge,
                                   characteristic_prefix,
                                   sturmian_window_check)
from stringbricks.words import Letter, Window, complexity_profile


def L(tok):
    return Letter(tok[:-1], True) if tok.endswith("'") else Letter(tok, False)


def lits(text):
    return tuple(L(t) for t in text.split())


def report(n, ok, detail):
    print(f"\n[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_fig3_reconstruction():
    t0 = time.perf_counter()
    ctx = Context(gamma())
    m = build_mia(ctx)
    ok = (len(m.states) == 28 and len(m.initial) == 12
          and "a3.b" in m.states and "c1'.b'" in m.states
          and m.step("a3", L("b")) == "a3.b"
          and m.step("a3.b", L("c1")) is None
          and m.step("b", L("c1")) == "c1"
          and m.step("b", L("c3'")) == "c3'")
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0,
           f"28 states, 12 initial, spot transitions exact; {elapsed:.3f}s < 1s")


def test_criterion_2_oracle_triangle_strings(l3, gam, corpus):
    t0 = time.perf_counter()
    contexts = [l3, gam, *corpus]
    assert len(corpus) >= 20
    checked, disagreements = 0, 0
    for ctx in contexts:
        for x in ctx.enumerate_strings(8):
            d = string_brick_direct(ctx, x).verdict
            a = string_brick_automaton(ctx, x).verdict
            e = end_dim_string(ctx, x) == 1
            checked += 1
            if not (d == a == e):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    report(2, disagreements == 0 and elapsed < 60.0,
           f"{checked} strings over {len(contexts)} algebras, "
           f"{disagreements} disagreements; {elapsed:.1f}s < 60s")


def test_criterion_3_oracle_triangle_bands(l3, gam, corpus):
    t0 = time.perf_counter()
    checked, disagreements, l2_true = 0, 0, 0
    for ctx in (l3, gam, *corpus):
        for b in ctx.enumerate_bands(8):
            for l in (1, 2):
                for lam in (1, 2):
                    d = band_brick_direct(ctx, b, l, lam).verdict
                    a = band_brick_automaton(ctx, b, l).verdict
                    e = end_dim_band(ctx, b, l, lam) == 1
                    checked += 1
                    if not (d == a == e):
                        disagreements += 1
                    if l == 2 and d:
                        l2_true += 1
    elapsed = time.perf_counter() - t0
    report(3, disagreements == 0 and l2_true == 0 and elapsed < 120.0,
           f"{checked} (band,l,lambda) cases, {disagreements} disagreements, "
           f"l=2 never brick; {elapsed:.1f}s < 120s")


def test_criterion_4_witness_bound_soundness(l3, gam, corpus):
    t0 = time.perf_counter()
    bands, mismatches = 0, 0
    for ctx in (l3, gam, *corpus):
        for b in ctx.enumerate_bands(8):
            bands += 1
            w1 = band_brick_direct(ctx, b, 1, 1).witness
            w3 = direct_band_witness_3q(ctx, b.string.letters)
            if w1 != w3:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    report(4, mismatches == 0 and elapsed < 60.0,
           f"{bands} bands, 3|b| scan agrees with |b| scan; {elapsed:.1f}s < 60s")


def test_criterion_5_named_cases(l3):
    a = l3.parse_literal("b1 a1'")
    ab = l3.parse_literal("b1 a1' a2' b2")
    band_b, _ = l3.is_band(l3.parse_literal("a2' b2"))
    band_r, _ = l3.is_band(l3.parse_literal("a1' b1 a1' a2' b2 a2' b2 b1"))
    checks = []
    checks.append(string_brick_direct(l3, a).verdict
                  and string_brick_automaton(l3, a).verdict
                  and end_dim_string(l3, a) == 1)
    rep = string_brick_direct(l3, ab)
    checks.append(not rep.verdict and rep.witness is not None
                  and rep.witness.content.startswith("1(v2,")
                  and not string_brick_automaton(l3, ab).verdict
                  and end_dim_string(l3, ab) == 2)
    checks.append(all(band_brick_direct(l3, band_b, 1, lam).verdict for lam in (1, 2))
                  and band_brick_automaton(l3, band_b, 1).verdict
                  and end_dim_band(l3, band_b, 1, 1) == 1)
    checks.append(not band_brick_direct(l3, band_r, 1, 1).verdict
                  and not band_brick_automaton(l3, band_r, 1).verdict
                  and end_dim_band(l3, band_r, 1, 1) > 1)
    report(5, all(checks),
           "M(a) brick; M(ab) not (zero-length witness at v2); "
           "B(b,1,.) brick; rotated aabb band not brick - all three methods")


def test_criterion_6_sturmian_bridge():
    t0 = time.perf_counter()
    d = DirectiveSequence.parse("1,(1)")
    fib500 = characteristic_prefix(d, 500)
    ok_check = sturmian_window_check(fib500) is None
    res = bridge(fib500, RIGHT_INFINITE)
    ok_bridge = res.report.witness is None and res.report.verdict

    fib501 = characteristic_prefix(d, 501)
    dropped = Window(fib501.letters[1:], True, "fibonacci[1:]",
                     left_closed=True, right_closed=False)
    res2 = bridge(dropped, RIGHT_INFINITE)
    ok_dropped = res2.report.witness is not None and not res2.report.verdict

    prof = complexity_profile(characteristic_prefix(d, 2000), 50)
    ok_complexity = prof == [k + 1 for k in range(1, 51)]
    elapsed = time.perf_counter() - t0
    report(6, ok_check and ok_bridge and ok_dropped and ok_complexity
           and elapsed < 30.0,
           f"fib500 clean, dropped prefix refuted, complexity k+1 up to 50; "
           f"{elapsed:.1f}s < 30s")


def test_criterion_7_transport_and_shift_invariance(l3, gam):
    rng = random.Random(7)
    ok_roundtrip = True
    ok_relabel = True
    shift_checks = 0
    ok_shifts = True
    for ctx in (l3, gam):
        m = build_mia(ctx)
        phi, md = parity_mia(ctx)
        words = []
        for x in ctx.enumerate_strings(6):
            w = string_to_word(ctx, x)
            wd = transport(phi, w)
            if transport_back(m, phi, wd) != w:
                ok_roundtrip = False
            b1 = is_brick_word(m, w)
            b2 = is_brick_word(md, wd)
            wk1 = is_weak_brick_word(m, w)
            wk2 = is_weak_brick_word(md, wd)
            if b1.verdict != b2.verdict or wk1.verdict != wk2.verdict:
                ok_relabel = False
            if len(x) >= 1:
                words.append((md, wd, b2.verdict, wk2.verdict))
        for md_, wd_, bv, wv in rng.sample(words, min(20, len(words))):
            n = len(wd_.left.core) + len(wd_.right.core)
            for _ in range(3):
                g = rng.randint(0, n)
                shifted = shift_basepoint(md_, wd_, g - len(wd_.left.core))
                if not equivalent(md_, shifted, wd_):
                    ok_shifts = False
                if is_brick_word(md_, shifted).verdict != bv:
                    ok_shifts = False
                if is_weak_brick_word(md_, shifted).verdict != wv:
                    ok_shifts = False
                shift_checks += 1
    report(7, ok_roundtrip and ok_relabel and ok_shifts and shift_checks >= 100,
           f"transport roundtrip identity, relabel-invariant verdicts, "
           f"{shift_checks} basepoint shifts invariant")


def test_criterion_8_recovery_roundtrip(l3, gam, corpus):
    from stringbricks.recover import (presentations_isomorphic,
                                      recover_presentation)
    t0 = time.perf_counter()
    ok = True
    count = 0
    for ctx in (l3, gam, *corpus):
        _, md = parity_mia(ctx)
        rec = recover_presentation(md)
        iso = presentations_isomorphic(ctx.presentation, rec.presentation)
        if iso is None:
            ok = False
            continue
        by_source = {v1: name for name, (v1, _) in rec.arrow_provenance.items()}
        canon = {a: by_source[zero_label(s, -ctx.sig(Letter(a, False)))]
                 for a, s, _ in ctx.presentation.arrows}
        mapped = {tuple(canon[x] for x in r) for r in ctx.presentation.relations}
        if mapped != set(rec.presentation.relations):
            ok = False
        count += 1
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 30.0,
           f"{count} algebras recovered isomorphically with equal relation "
           f"ideals; {elapsed:.1f}s < 30s")


def test_criterion_9_validation_fixtures():
    rep_l3 = validate_string_algebra(lambda3())
    rep_g = validate_string_algebra(gamma())
    ok = rep_l3.is_string_algebra and rep_l3.is_gentle
    ok &= rep_g.is_string_algebra and not rep_g.is_gentle

    # extra parallel arrow: three arrows into v1
    extra = parse_presentation(lambda_n_text(3) + "arrow c1 v2 v1\n")
    rep = validate_string_algebra(extra)
    ok &= (not rep.is_string_algebra) and "I" in rep.codes()

    # two allowed successors of one arrow
    two = parse_presentation("""\
vertex u
vertex v
vertex w
arrow a u v
arrow b v w
arrow c v w
""")
    rep = validate_string_algebra(two)
    ok &= (not rep.is_string_algebra) and "II" in rep.codes()

    # relation-free loop
    loop = parse_presentation("vertex v\narrow a v v\n")
    rep = validate_string_algebra(loop)
    ok &= (not rep.is_string_algebra) and "III" in rep.codes()
    report(9, ok, "Lambda3 gentle, Gamma not gentle, mutants rejected with I/II/III")
