import random
from collections import Counter

import pytest

from conftest import path_quiver_text, random_presentation
from stringbricks.algebra import (SignError, _normalize_relations, parse_presentation,
                                  validate_string_algebra)
from stringbricks.construct import parity_mia, zero_label
from stringbricks.mia import MiaError, parse_mia
from stringbricks.presets import lambda_n
from stringbricks.recover import (ZERO, presentations_isomorphic,
                                  recover_presentation)
from stringbricks.strings import CapExceeded, Context
from stringbricks.words import Letter


def test_recover_lambda3(l3):
    _, md = parity_mia(l3)
    rec = recover_presentation(md)
    p = rec.presentation
    assert len(p.vertices) == 3
    assert len(p.arrows) == 4
    assert sorted(len(r) for r in p.relations) == [2, 2]


def test_recover_gamma(gam):
    _, md = parity_mia(gam)
    rec = recover_presentation(md)
    p = rec.presentation
    assert len(p.vertices) == 6
    assert len(p.arrows) == 7
    assert sorted(len(r) for r in p.relations) == [2, 2, 3]


def test_vertex_count_is_half_initials(l3, gam, corpus):
    for ctx in (l3, gam, *corpus):
        _, md = parity_mia(ctx)
        rec = recover_presentation(md)
        assert len(rec.presentation.vertices) == len(md.initial) // 2


def test_recovered_out_degree_bound(l3, gam, corpus):
    for ctx in (l3, gam, *corpus):
        _, md = parity_mia(ctx)
        rec = recover_presentation(md)
        for v in rec.presentation.vertices:
            outs = [a for a, s, _ in rec.presentation.arrows if s == v]
            assert len(outs) <= 2


def test_roundtrip_isomorphism(l3, gam, corpus):
    for ctx in (l3, gam, *corpus):
        _, md = parity_mia(ctx)
        rec = recover_presentation(md)
        iso = presentations_isomorphic(ctx.presentation, rec.presentation)
        assert iso is not None
        vmap, amap = iso
        # the witness maps arrows compatibly with endpoints
        amap2 = {a: (s, t) for a, s, t in rec.presentation.arrows}
        for a, s, t in ctx.presentation.arrows:
            s2, t2 = amap2[amap[a]]
            assert (vmap[s], vmap[t]) == (s2, t2)


def test_ideal_equality_via_canonical_arrow_map(l3, gam, corpus):
    """Independent of the isomorphism search: map each original arrow to the
    recovered arrow through its provenance initial state and compare the
    relation sets directly."""
    for ctx in (l3, gam, *corpus):
        _, md = parity_mia(ctx)
        rec = recover_presentation(md)
        by_source = {v1: name for name, (v1, _) in rec.arrow_provenance.items()}
        canon = {}
        for a, s, _ in ctx.presentation.arrows:
            v1 = zero_label(s, -ctx.sig(Letter(a, False)))
            canon[a] = by_source[v1]
        mapped = {tuple(canon[a] for a in r) for r in ctx.presentation.relations}
        assert mapped == set(rec.presentation.relations)


def reference_relations(m, rec):
    """The relations by the earlier walk: misaligned composable pairs, and
    aligned chains stepped arrow by arrow from where each arrow lands, with
    the 0-run carried alongside and a cap of |states| + 2 arrows."""
    arrow_of = {v1: name for name, (v1, _) in rec.arrow_provenance.items()}
    provenance = rec.arrow_provenance
    relations = []
    for v, name in arrow_of.items():
        nxt = arrow_of.get(m.inv[provenance[name][1]])
        if nxt is not None:
            relations.append((name, nxt))
    cap = len(m.states) + 2
    for v in m.initial:
        if v not in arrow_of:
            continue
        chain = [arrow_of[v]]
        cur = provenance[arrow_of[v]][1]
        run = m.step(v, ZERO)
        k = 1
        while k < cap:
            nxt_arrow = arrow_of.get(cur)
            if nxt_arrow is None:
                break
            chain.append(nxt_arrow)
            k += 1
            run = m.step(run, ZERO)
            if run is None:
                if m.run(provenance[chain[1]][0], (ZERO,) * (k - 1)) is not None:
                    relations.append(tuple(chain))
                break
            cur = provenance[nxt_arrow][1]
    return set(_normalize_relations(relations))


def seeded_string_algebras(seed, attempts):
    """The random presentations among `attempts` draws that validate as
    string algebras with solvable signs."""
    rng = random.Random(seed)
    out = []
    for _ in range(attempts):
        p = random_presentation(rng)
        if validate_string_algebra(p).is_string_algebra:
            try:
                out.append(Context(p))
            except SignError:
                pass
    return out


def test_relations_match_reference_walk(gam, corpus):
    """Each aligned chain follows its 0-run alone and needs no minimality
    test; the earlier walk, which stepped the chain and the run side by side
    under a cap and tested minimality, finds the same relations on Lambda_N,
    Gamma, the corpus, path quivers with and without relations of length 2
    to 4, seeded random string algebras, and a MIA whose 0-run cycles."""
    n = 40
    rels = "".join(f"relation {' '.join(f'a{j}' for j in range(i, i + k))}\n"
                   for i, k in ((0, 2), (5, 3), (12, 4), (20, 2), (21, 3), (30, 3)))
    paths = [Context(parse_presentation(path_quiver_text(n) + extra)) for extra in ("", rels)]
    randoms = seeded_string_algebras(7, 3000)
    assert len(randoms) > 1000
    ctxs = [Context(lambda_n(k)) for k in range(2, 9)] + [gam, *corpus, *paths, *randoms]
    mias = [parity_mia(ctx)[1] for ctx in ctxs]
    mias.append(parse_mia("state u initial inv=u' e=u\nstate u' initial inv=u e=u'\n"
                          "state s e=u\ntrans u 0 s\ntrans s 0 u\n"))
    lengths = Counter()
    for m in mias:
        rec = recover_presentation(m)
        assert set(rec.presentation.relations) == reference_relations(m, rec)
        lengths.update(len(r) for r in rec.presentation.relations)
    assert set(lengths) == {2, 3, 4} and lengths[3] > 200


def test_recover_requires_binary(gam):
    from stringbricks.construct import build_mia
    with pytest.raises(MiaError):
        recover_presentation(build_mia(gam))


def test_recover_rejects_invalid_mia():
    text = """\
state u initial inv=u e=u
trans u 0 u
"""
    with pytest.raises(MiaError):
        recover_presentation(parse_mia(text))


def test_isomorphic_renamed(l3):
    text = """\
vertex w1
vertex w2
vertex w3
arrow p1 w2 w1
arrow q1 w2 w1
arrow p2 w3 w2
arrow q2 w3 w2
relation q2 p1
relation p2 q1
"""
    p2 = parse_presentation(text)
    assert presentations_isomorphic(l3.presentation, p2) is not None


def test_not_isomorphic_sizes(l3, gam):
    assert presentations_isomorphic(l3.presentation, gam.presentation) is None


def test_not_isomorphic_relations(l3):
    # same quiver, different relation set
    text = """\
vertex v1
vertex v2
vertex v3
arrow a1 v2 v1
arrow b1 v2 v1
arrow a2 v3 v2
arrow b2 v3 v2
relation b2 a1
relation b2 b1
"""
    p2 = parse_presentation(text)
    assert presentations_isomorphic(l3.presentation, p2) is None


def test_isomorphism_cap():
    lines = [f"vertex v{i}" for i in range(15)]
    p = parse_presentation("\n".join(lines))
    with pytest.raises(CapExceeded):
        presentations_isomorphic(p, p, cap=12)
