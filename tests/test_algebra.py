import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import path_quiver_text, random_presentation
from stringbricks.algebra import (Presentation, PresentationError, SignError,
                                  SignMaps, ValidationReport, _admissibility_bound,
                                  _normalize_relations, _sign_constraints,
                                  _violated, format_presentation,
                                  parse_presentation, solve_sign_maps,
                                  validate_string_algebra,
                                  verify_sign_conditions)
from stringbricks.presets import gamma, lambda3, lambda_n, lambda_n_text
from stringbricks.words import Letter


def test_parse_lambda3():
    p = lambda3()
    assert len(p.vertices) == 3
    assert len(p.arrows) == 4
    assert len(p.relations) == 2
    assert ("b2", "a1") in p.relations and ("a2", "b1") in p.relations


def test_parse_degenerate():
    p = parse_presentation("vertex v\n")
    assert p.vertices == ("v",)
    assert p.arrows == ()


def test_parse_comments_and_errors():
    p = parse_presentation("# comment\nvertex v1  # trailing\n")
    assert p.vertices == ("v1",)
    with pytest.raises(PresentationError) as err:
        parse_presentation("vertex v1\nvertex v1\n")
    assert err.value.line == 2
    with pytest.raises(PresentationError):
        parse_presentation("vertex v1\narrow a v1 nowhere\n")


def test_parse_noncomposable_relation():
    # a1 b2 is not composable in string order over Lambda_3
    text = lambda_n_text(3) + "relation a1 b2\n"
    with pytest.raises(PresentationError) as err:
        parse_presentation(text)
    assert "not composable" in str(err.value)


def test_relation_normalization_drops_nonminimal():
    text = """\
vertex u
vertex v
vertex w
vertex z
arrow a u v
arrow b v w
arrow c w z
relation a b
relation a b c
"""
    p = parse_presentation(text)
    assert p.relations == (("a", "b"),)


def test_roundtrip_format_parse():
    for p in (lambda3(), gamma()):
        assert parse_presentation(format_presentation(p)) == p


def test_validate_lambda3_gentle():
    rep = validate_string_algebra(lambda3())
    assert rep.is_string_algebra and rep.is_gentle
    assert rep.admissibility_bound == 2


def test_validate_gamma_not_gentle():
    rep = validate_string_algebra(gamma())
    assert rep.is_string_algebra
    assert not rep.is_gentle  # the length-3 relation breaks gentleness


def test_validate_order_independent():
    base = lambda_n_text(3).strip().splitlines()
    p1 = parse_presentation("\n".join(base))
    arrows = [l for l in base if l.startswith("arrow")]
    rest = [l for l in base if l.startswith("vertex")]
    rels = [l for l in base if l.startswith("relation")]
    shuffled = rest + list(reversed(arrows)) + list(reversed(rels))
    p2 = parse_presentation("\n".join(shuffled))
    assert validate_string_algebra(p1) == validate_string_algebra(p2)


def test_condition_III_loop():
    p = parse_presentation("vertex v\narrow a v v\n")
    rep = validate_string_algebra(p)
    assert not rep.is_string_algebra
    assert "III" in rep.codes()
    assert rep.admissibility_bound is None


def test_condition_I_three_outgoing():
    text = """\
vertex v
vertex w
arrow a v w
arrow b v w
arrow c v w
"""
    rep = validate_string_algebra(parse_presentation(text))
    assert "I" in rep.codes()


def test_condition_II_two_allowed_continuations():
    text = """\
vertex u
vertex v
vertex w
arrow a u v
arrow b v w
arrow c v w
"""
    rep = validate_string_algebra(parse_presentation(text))
    assert "II" in rep.codes()


def test_admissibility_bound_long_path():
    # longer than the default recursion limit, so the search must not recurse
    rep = validate_string_algebra(parse_presentation(path_quiver_text(1200)))
    assert rep.is_string_algebra and rep.admissibility_bound == 1200


def test_admissibility_bound_relation_free_cycle():
    text = path_quiver_text(3) + "arrow back v3 v0\n"
    rep = validate_string_algebra(parse_presentation(text))
    assert rep.admissibility_bound is None and "III" in rep.codes()
    # one relation on the cycle bounds it again: the longest is back a0 a1 a2
    rep = validate_string_algebra(parse_presentation(text + "relation a2 back\n"))
    assert rep.admissibility_bound == 4


def test_admissibility_bound_gamma():
    rep = validate_string_algebra(gamma())
    # longest relation-free path: a3 b (length 2) etc.; cross-check by search
    assert rep.admissibility_bound == 2


def test_gamma_declared_signs_accepted():
    p = gamma()
    maps = solve_sign_maps(p)
    assert maps.table == p.declared_signs
    assert verify_sign_conditions(p, maps) == []


def test_lambda3_solved_signs_satisfy_constraints():
    p = lambda3()
    maps = solve_sign_maps(p)
    t = maps.table
    assert t["a1"][0] == -t["b1"][0]
    assert t["a1"][1] == -t["b1"][1]
    assert t["a2"][0] == -t["b2"][0]
    assert t["a2"][1] == -t["b2"][1]
    assert t["a2"][1] == -t["a1"][0]
    assert t["b2"][1] == -t["b1"][0]
    assert verify_sign_conditions(p, maps) == []


def test_solved_signs_deterministic():
    assert solve_sign_maps(lambda3()).table == solve_sign_maps(lambda3()).table


def test_declared_signs_violating_a_rejected():
    text = lambda_n_text(3) + "".join(
        f"sign {a} +1 +1\n" for a in ("a1", "b1", "a2", "b2"))
    p = parse_presentation(text)
    with pytest.raises(SignError) as err:
        solve_sign_maps(p)
    assert "(a)" in str(err.value)


def test_sign_extension_rules():
    maps = solve_sign_maps(lambda3())
    a1, A1 = Letter("a1", False), Letter("a1", True)
    assert maps.sig(A1) == maps.eps(a1)
    assert maps.eps(A1) == maps.sig(a1)


def test_corpus_signs_always_verify(corpus):
    for ctx in corpus:
        assert verify_sign_conditions(ctx.presentation, ctx.signs) == []


def test_gentle_unique_successors(corpus):
    # gentle condition IIa on every gentle corpus member: at most one allowed
    # and one forbidden successor per arrow
    for ctx in corpus:
        rep = validate_string_algebra(ctx.presentation)
        if not rep.is_gentle:
            continue
        amap = ctx.amap
        rels = ctx.rels
        for a in amap:
            allowed = [b for b in amap if amap[a][1] == amap[b][0] and (a, b) not in rels]
            forbidden = [b for b in amap if (a, b) in rels]
            assert len(allowed) <= 1 and len(forbidden) <= 1


def validate_by_scan(p):
    """Conditions I, II, III, IIa and IIb, each read by scanning every arrow
    (the reference for the indexed validation)."""
    violations = []
    amap = p.arrow_map()
    rels = set(p.relations)
    for r in p.relations:
        if len(r) < 2:
            violations.append(("REL", f"relation {' '.join(r)} shorter than 2"))
    for v in p.vertices:
        outs = [a for a, s, _ in p.arrows if s == v]
        ins = [a for a, _, t in p.arrows if t == v]
        if len(outs) > 2:
            violations.append(("I", f"vertex {v} has {len(outs)} outgoing arrows"))
        if len(ins) > 2:
            violations.append(("I", f"vertex {v} has {len(ins)} incoming arrows"))
    for a in amap:
        nxt = [b for b in amap if amap[a][1] == amap[b][0] and (a, b) not in rels]
        prv = [b for b in amap if amap[b][1] == amap[a][0] and (b, a) not in rels]
        if len(nxt) > 1:
            violations.append(("II", f"arrow {a} has allowed continuations {sorted(nxt)}"))
        if len(prv) > 1:
            violations.append(("II", f"arrow {a} has allowed predecessors {sorted(prv)}"))
    bound = _admissibility_bound(p)
    if bound is None:
        violations.append(("III", "relation-free paths are unbounded"))
    gentle_violations = []
    if any(len(r) != 2 for r in p.relations):
        gentle_violations.append(("REL", "gentle requires all relations of length 2"))
    for a in amap:
        forb_next = [b for b in amap if (a, b) in rels]
        forb_prev = [b for b in amap if (b, a) in rels]
        if len(forb_next) > 1:
            gentle_violations.append(("IIa", f"arrow {a} has forbidden continuations {sorted(forb_next)}"))
        if len(forb_prev) > 1:
            gentle_violations.append(("IIb", f"arrow {a} has forbidden predecessors {sorted(forb_prev)}"))
    is_string = not violations
    return ValidationReport(is_string, is_string and not gentle_violations, bound,
                            tuple(violations + (gentle_violations if is_string else [])))


def sign_constraints_by_scan(p):
    """The (a)/(b) pairs over all arrow pairs, then the (c) pairs over all
    ordered pairs (the reference for the grouped constraint list)."""
    amap = p.arrow_map()
    rels = set(p.relations)
    cons = []
    names = sorted(amap)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if amap[a][0] == amap[b][0]:
                cons.append(((0, a), (0, b), f"(a) s({a})=s({b})",
                             f"(a): arrows {a},{b} share a source but sigma agrees"))
            if amap[a][1] == amap[b][1]:
                cons.append(((1, a), (1, b), f"(b) t({a})=t({b})",
                             f"(b): arrows {a},{b} share a target but eps agrees"))
    for a in names:
        for b in names:
            if amap[a][1] == amap[b][0] and (a, b) not in rels:
                cons.append(((1, a), (0, b), f"(c) {a}{b} not in rho",
                             f"(c): eps({a}) != -sigma({b}) though {a}{b} is not a relation"))
    return cons


def test_indexed_validation_and_constraints_match_scans(corpus):
    rng = random.Random(14)
    presentations = [lambda3(), gamma(), *(ctx.presentation for ctx in corpus),
                     *(random_presentation(rng) for _ in range(400))]
    codes = set()
    for p in presentations:
        rep = validate_string_algebra(p)
        assert rep == validate_by_scan(p)
        assert _sign_constraints(p) == sign_constraints_by_scan(p)
        codes |= rep.codes()
    assert {"I", "II", "III", "IIa", "IIb", "REL"} <= codes


def reference_solve_sign_maps(p):
    """solve_sign_maps by union-find with parity, anchoring the smallest
    unknown of each component to +1 (the reference for the BFS 2-colouring;
    its conflict message need not be a cycle)."""
    cons = _sign_constraints(p)
    if p.declared_signs is not None:
        bad = _violated(cons, p.declared_signs)
        if bad:
            raise SignError("declared signs violate " + "; ".join(bad))
        return SignMaps(dict(p.declared_signs))

    parent = {}
    parity = {}  # sign relative to root, +1/-1
    why = {}

    def find(x):
        if parent.setdefault(x, x) == x:
            parity.setdefault(x, 1)
            return x, 1
        root, par = find(parent[x])
        parent[x] = root
        parity[x] *= par
        return root, parity[x]

    def trail(x):
        out = []
        while x in why:
            x, label = why[x]
            out.append(label)
        return out

    for x, y, label, _ in cons:
        rx, px = find(x)
        ry, py = find(y)
        if rx == ry:
            if px * py != -1:
                cycle = [label] + trail(x) + trail(y)
                raise SignError("infeasible sign system; conflicting constraints: "
                                + "; ".join(cycle))
            continue
        parent[ry] = rx
        parity[ry] = -px * py
        why[ry] = (rx, label)

    unknowns = sorted({(k, a) for k in (0, 1) for a, _, _ in p.arrows})
    values = {}
    anchored = {}
    for u in unknowns:
        root, par = find(u)
        if root not in anchored:
            anchored[root] = par
        values[u] = par * anchored[root]

    table = {a: (values[(0, a)], values[(1, a)]) for a, _, _ in p.arrows}
    bad = _violated(cons, table)
    if bad:
        raise SignError("solver produced invalid signs: " + "; ".join(bad))
    return SignMaps(table)


# two loops at one vertex and the relation a0 a0: the sign system has two
# odd 3-cycles, through (a) and through (b)
TWO_LOOPS_TEXT = "vertex v\narrow a0 v v\narrow a1 v v\nrelation a0 a0\n"


def sign_presentations(corpus):
    """Lambda_2..Lambda_8, Gamma with and without its declared signs, the
    corpus, 2000 seeded random presentations (more than half infeasible),
    the 20000-arrow path quiver and the two loops."""
    rng = random.Random(30)
    return [*(lambda_n(k) for k in range(2, 9)), gamma(), replace(gamma(), declared_signs=None),
            *(ctx.presentation for ctx in corpus),
            *(random_presentation(rng) for _ in range(2000)),
            parse_presentation(path_quiver_text(20000)), parse_presentation(TWO_LOOPS_TEXT)]


def sign_outcome(solve, p):
    try:
        return solve(p).table
    except SignError:
        return None


def test_sign_maps_match_union_find_reference(corpus):
    infeasible = 0
    for p in sign_presentations(corpus):
        want = sign_outcome(reference_solve_sign_maps, p)
        assert sign_outcome(solve_sign_maps, p) == want, p
        infeasible += want is None
    assert infeasible > 1000


def test_sign_conflicts_name_an_odd_cycle(corpus):
    """Every infeasible system's message lists distinct constraints that
    form one cycle of odd length: each unknown on it has degree 2, and a
    walk along the constraints from one of them uses them all."""
    prefix = "infeasible sign system; conflicting constraints: "
    cycles = 0
    for p in sign_presentations(corpus):
        try:
            solve_sign_maps(p)
            continue
        except SignError as err:
            message = str(err)
        assert message.startswith(prefix), message
        labels = message[len(prefix):].split("; ")
        ends = {label: (x, y) for x, y, label, _ in _sign_constraints(p)}
        assert len(set(labels)) == len(labels) and len(labels) % 2 == 1, message
        degree = Counter(u for label in labels for u in ends[label])
        assert set(degree.values()) == {2}, message
        u, left = ends[labels[0]][0], set(labels)
        while left:
            label = next((label for label in left if u in ends[label]), None)
            assert label is not None, message
            left.remove(label)
            x, y = ends[label]
            u = y if u == x else x
        cycles += 1
    assert cycles > 1000
    # the BFS from sigma(a0) colours sigma(a1) and eps(a1) from it, so the
    # cycle through (a), not the one through (b), is named
    with pytest.raises(SignError) as err:
        solve_sign_maps(parse_presentation(TWO_LOOPS_TEXT))
    assert set(str(err.value)[len(prefix):].split("; ")) == {
        "(c) a1a1 not in rho", "(a) s(a0)=s(a1)", "(c) a1a0 not in rho"}


def normalize_by_pairs(relations):
    """Drop duplicates and every relation containing a kept one, comparing
    each relation with every kept one (the reference for the subpath
    lookup)."""
    uniq = sorted(set(relations), key=lambda r: (len(r), r))
    kept = []
    for r in uniq:
        redundant = False
        for s in kept:
            if len(s) <= len(r):
                if any(r[i:i + len(s)] == s for i in range(len(r) - len(s) + 1)):
                    redundant = True
                    break
        if not redundant:
            kept.append(r)
    return tuple(sorted(kept))


def parse_by_rebuild(text):
    """The parser that rebuilds the arrow map at every relation line and
    normalizes by pairs (the reference for the one-pass parser)."""
    vertices, arrows, relations, signs = [], [], [], {}
    vset, aset = set(), set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "vertex":
            if len(args) != 1:
                raise PresentationError("vertex takes one identifier", lineno)
            if args[0] in vset:
                raise PresentationError(f"duplicate vertex {args[0]}", lineno)
            vset.add(args[0])
            vertices.append(args[0])
        elif kind == "arrow":
            if len(args) != 3:
                raise PresentationError("arrow takes <id> <src> <dst>", lineno)
            name, s, t = args
            if name in aset:
                raise PresentationError(f"duplicate arrow {name}", lineno)
            if s not in vset or t not in vset:
                raise PresentationError(f"unknown vertex in arrow {name}", lineno)
            aset.add(name)
            arrows.append((name, s, t))
        elif kind == "relation":
            if len(args) < 2:
                raise PresentationError("relation needs at least two arrows", lineno)
            for a in args:
                if a not in aset:
                    raise PresentationError(f"unknown arrow {a} in relation", lineno)
            amap = {a: (s, t) for a, s, t in arrows}
            for x, y in zip(args, args[1:]):
                if amap[x][1] != amap[y][0]:
                    raise PresentationError(
                        f"relation not composable in string order: "
                        f"t({x})={amap[x][1]} != s({y})={amap[y][0]}", lineno)
            relations.append(tuple(args))
        elif kind == "sign":
            if len(args) != 3:
                raise PresentationError("sign takes <arrow> <sigma> <eps>", lineno)
            name = args[0]
            if name not in aset:
                raise PresentationError(f"unknown arrow {name} in sign", lineno)
            try:
                sv, ev = int(args[1]), int(args[2])
            except ValueError:
                raise PresentationError("sign values must be +1 or -1", lineno)
            if sv not in (1, -1) or ev not in (1, -1):
                raise PresentationError("sign values must be +1 or -1", lineno)
            signs[name] = (sv, ev)
        else:
            raise PresentationError(f"unknown directive {kind!r}", lineno)
    if signs and set(signs) != aset:
        missing = sorted(aset - set(signs))
        raise PresentationError(f"signs are all-or-none; missing {missing}")
    return Presentation(tuple(vertices), tuple(arrows), normalize_by_pairs(relations),
                        dict(signs) if signs else None)


def random_presentation_text(rng):
    """A presentation with random relations (composable or not), signs for
    all arrows or none, and about half the time one slip: a line duplicated
    or moved, a token replaced, dropped or added."""
    verts = [f"v{i}" for i in range(rng.randint(1, 3))]
    arrows = [(f"a{i}", rng.choice(verts), rng.choice(verts)) for i in range(rng.randint(1, 5))]
    lines = [f"vertex {v}" for v in verts] + [f"arrow {a} {s} {t}" for a, s, t in arrows]
    for _ in range(rng.randint(0, 6)):
        path = [rng.choice(arrows)]
        for _ in range(rng.randint(1, 3)):
            nxt = [x for x in arrows if x[1] == path[-1][2]]
            path.append(rng.choice(nxt if nxt and rng.random() < 0.9 else arrows))
        lines.append("relation " + " ".join(a for a, _, _ in path))
    if rng.random() < 0.3:
        lines += [f"sign {a} {rng.choice(['+1', '-1'])} {rng.choice(['+1', '-1'])}"
                  for a, _, _ in arrows]
    if rng.random() < 0.5:
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        slip = rng.choice(["dup", "move", "replace", "drop", "add", "directive"])
        if slip == "dup":
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif slip == "move":
            lines.insert(rng.randrange(len(lines) + 1), lines.pop(i))
        else:
            j = rng.randrange(len(toks))
            junk = rng.choice(["v0", "v9", "a0", "a9", "+1", "2", "x", "#"])
            if slip == "replace":
                toks[j] = junk
            elif slip == "drop":
                del toks[j]
            elif slip == "add":
                toks.insert(j + 1, junk)
            else:
                toks[0] = rng.choice(["loop", "vertex", "arrow", "relation", "sign"])
            lines[i] = " ".join(toks)
    return "\n".join(lines)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except PresentationError as err:
        return ("error", str(err), err.line)


def test_one_pass_parser_matches_rebuilding_parser(corpus):
    rng = random.Random(15)
    texts = [format_presentation(p) for p in (lambda3(), gamma())]
    texts += [format_presentation(ctx.presentation) for ctx in corpus]
    texts += [random_presentation_text(rng) for _ in range(3000)]
    outcomes = [parse_outcome(parse_presentation, t) for t in texts]
    assert outcomes == [parse_outcome(parse_by_rebuild, t) for t in texts]
    parsed = [o for o in outcomes if isinstance(o, Presentation)]
    assert sum(len(p.relations) > 0 for p in parsed) > 100
    assert {o[1].split(" ")[2] for o in outcomes if not isinstance(o, Presentation)
            and o[2] is not None} >= {"vertex", "duplicate", "arrow", "relation", "unknown",
                                      "sign"}


def test_subpath_normalization_matches_pairwise():
    rng = random.Random(15)
    for _ in range(5000):
        rels = [tuple(rng.choice("abc") for _ in range(rng.randint(0, 4)))
                for _ in range(rng.randint(0, 6))]
        assert _normalize_relations(rels) == normalize_by_pairs(rels)


LAMBDA2 = "vertex v1\nvertex v2\narrow a v1 v2\narrow b v2 v1\n"


@pytest.mark.parametrize("tail, line, message", [
    ("vertex\n", 5, "vertex takes one identifier"),
    ("vertex x y\n", 5, "vertex takes one identifier"),
    ("vertex v2\n", 5, "duplicate vertex v2"),
    ("arrow c v1\n", 5, "arrow takes <id> <src> <dst>"),
    ("arrow a v1 v1\n", 5, "duplicate arrow a"),
    ("arrow c v1 v9\n", 5, "unknown vertex in arrow c"),
    ("relation a\n", 5, "relation needs at least two arrows"),
    ("relation a z\n", 5, "unknown arrow z in relation"),
    ("relation a a\n", 5,
     "relation not composable in string order: t(a)=v2 != s(a)=v1"),
    ("sign a +1\n", 5, "sign takes <arrow> <sigma> <eps>"),
    ("sign z +1 -1\n", 5, "unknown arrow z in sign"),
    ("sign a + -1\n", 5, "sign values must be +1 or -1"),
    ("sign a +1 2\n", 5, "sign values must be +1 or -1"),
    ("# a comment\n\nloop a\n", 7, "unknown directive 'loop'"),
    ("sign a +1 -1\n", None, "signs are all-or-none; missing ['b']"),
])
def test_parse_error_messages_and_lines(tail, line, message):
    with pytest.raises(PresentationError) as err:
        parse_presentation(LAMBDA2 + tail)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")
