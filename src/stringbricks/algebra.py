"""String-algebra presentations: parsing, validation, sign maps.

A presentation is a finite quiver with a set of monomial relations, written in
string order (the target of each arrow is the source of the next).  The sign
maps assign each arrow a pair (sigma, eps) in {+1,-1}^2 subject to the three
local compatibility conditions; they are either declared in the input file or
solved for deterministically.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .words import Letter


class PresentationError(ValueError):
    """Raised on malformed presentation input; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class SignError(ValueError):
    pass


@dataclass(frozen=True)
class Presentation:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, source, target)
    relations: tuple[tuple[str, ...], ...]
    declared_signs: Optional[Mapping[str, tuple[int, int]]] = None

    def arrow_map(self) -> dict[str, tuple[str, str]]:
        return {a: (s, t) for a, s, t in self.arrows}


@dataclass(frozen=True)
class SignMaps:
    """Per-arrow (sigma, eps) with the standard extension to inverse syllables
    and zero-length strings."""

    table: Mapping[str, tuple[int, int]]

    def sig(self, letter: Letter) -> int:
        s, e = self.table[letter.sym]
        return e if letter.inv else s

    def eps(self, letter: Letter) -> int:
        s, e = self.table[letter.sym]
        return s if letter.inv else e


@dataclass(frozen=True)
class ValidationReport:
    is_string_algebra: bool
    is_gentle: bool
    admissibility_bound: Optional[int]
    violations: tuple[tuple[str, str], ...]  # (condition code, locus)

    def codes(self) -> set[str]:
        return {c for c, _ in self.violations}


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    Directives: ``vertex <id>``, ``arrow <id> <src> <dst>``,
    ``relation <arrow> <arrow> ...`` (string order),
    ``sign <arrow> <+1|-1> <+1|-1>`` (sigma then eps; all arrows or none).
    ``#`` starts a comment.
    """
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relations: list[tuple[str, ...]] = []
    signs: dict[str, tuple[int, int]] = {}
    vset: set[str] = set()
    amap: dict[str, tuple[str, str]] = {}  # arrow -> (source, target)

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
            if name in amap:
                raise PresentationError(f"duplicate arrow {name}", lineno)
            if s not in vset or t not in vset:
                raise PresentationError(f"unknown vertex in arrow {name}", lineno)
            amap[name] = (s, t)
            arrows.append((name, s, t))
        elif kind == "relation":
            if len(args) < 2:
                raise PresentationError("relation needs at least two arrows", lineno)
            for a in args:
                if a not in amap:
                    raise PresentationError(f"unknown arrow {a} in relation", lineno)
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
            if name not in amap:
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

    if signs and signs.keys() != amap.keys():
        missing = sorted(amap.keys() - signs.keys())
        raise PresentationError(f"signs are all-or-none; missing {missing}")

    return Presentation(
        vertices=tuple(vertices),
        arrows=tuple(arrows),
        relations=_normalize_relations(relations),
        declared_signs=dict(signs) if signs else None,
    )


def _normalize_relations(relations: Sequence[tuple[str, ...]]) -> tuple[tuple[str, ...], ...]:
    """Deduplicate and drop any relation containing another as a contiguous
    subpath (the generated ideal is unchanged).  Shortest first, each
    relation's subpaths of every kept length are looked up in the kept set,
    so the work is linear in the relations for a bounded relation length."""
    kept: set[tuple[str, ...]] = set()
    lengths: set[int] = set()
    for r in sorted(set(relations), key=len):
        if not any(r[i:i + L] in kept for L in lengths for i in range(len(r) - L + 1)):
            kept.add(r)
            lengths.add(len(r))
    return tuple(sorted(kept))


def format_presentation(p: Presentation) -> str:
    """Emit the presentation file format; parse(format(p)) == p."""
    out = []
    for v in p.vertices:
        out.append(f"vertex {v}")
    for a, s, t in p.arrows:
        out.append(f"arrow {a} {s} {t}")
    for r in p.relations:
        out.append("relation " + " ".join(r))
    if p.declared_signs:
        for a, _, _ in p.arrows:
            sv, ev = p.declared_signs[a]
            out.append(f"sign {a} {sv:+d} {ev:+d}")
    return "\n".join(out) + "\n"


def validate_string_algebra(p: Presentation) -> ValidationReport:
    """Check conditions I (vertex degree caps), II (unique continuations),
    III (bounded relation-free paths) and the gentle refinements IIa/IIb.

    Arrows are grouped by source and by target, and length-2 relations by
    first and by second arrow, once; each check then reads its own groups, so
    validation is linear in arrows plus relations.
    """
    violations: list[tuple[str, str]] = []
    amap = p.arrow_map()
    rels = set(p.relations)

    for r in p.relations:
        if len(r) < 2:
            violations.append(("REL", f"relation {' '.join(r)} shorter than 2"))

    out_of, into = _arrows_by_vertex(p)
    for v in p.vertices:
        if len(out_of.get(v, ())) > 2:
            violations.append(("I", f"vertex {v} has {len(out_of[v])} outgoing arrows"))
        if len(into.get(v, ())) > 2:
            violations.append(("I", f"vertex {v} has {len(into[v])} incoming arrows"))

    for a, (s, t) in amap.items():
        nxt = [b for b in out_of.get(t, ()) if (a, b) not in rels]
        prv = [b for b in into.get(s, ()) if (b, a) not in rels]
        if len(nxt) > 1:
            violations.append(("II", f"arrow {a} has allowed continuations {sorted(nxt)}"))
        if len(prv) > 1:
            violations.append(("II", f"arrow {a} has allowed predecessors {sorted(prv)}"))

    bound = _admissibility_bound(p)
    if bound is None:
        violations.append(("III", "relation-free paths are unbounded"))

    gentle_violations: list[tuple[str, str]] = []
    if any(len(r) != 2 for r in p.relations):
        gentle_violations.append(("REL", "gentle requires all relations of length 2"))
    forb_next: dict[str, list[str]] = {}
    forb_prev: dict[str, list[str]] = {}
    for a, b in (r for r in rels if len(r) == 2):
        forb_next.setdefault(a, []).append(b)
        forb_prev.setdefault(b, []).append(a)
    for a in amap:
        if len(forb_next.get(a, ())) > 1:
            gentle_violations.append(("IIa", f"arrow {a} has forbidden continuations {sorted(forb_next[a])}"))
        if len(forb_prev.get(a, ())) > 1:
            gentle_violations.append(("IIb", f"arrow {a} has forbidden predecessors {sorted(forb_prev[a])}"))

    is_string = not violations
    is_gentle = is_string and not gentle_violations
    return ValidationReport(
        is_string_algebra=is_string,
        is_gentle=is_gentle,
        admissibility_bound=bound,
        violations=tuple(violations + (gentle_violations if is_string else [])),
    )


def _admissibility_bound(p: Presentation) -> Optional[int]:
    """Length of the longest relation-free path, or None when unbounded.

    Nodes are sliding windows of the last (max relation length - 1) arrows of
    a relation-free path; a cycle among reachable nodes means unbounded paths.
    One iterative pass, so a long quiver cannot exhaust the call stack: the
    reachable windows are ordered by Kahn's algorithm (a window left
    unordered lies on or behind a cycle), then longest paths are taken in
    reverse order.
    """
    amap = p.arrow_map()
    rels = set(p.relations)
    maxrel = max((len(r) for r in p.relations), default=2)
    w = max(maxrel - 1, 1)
    out_of, _ = _arrows_by_vertex(p)

    def extensions(window: tuple[str, ...]) -> list[tuple[str, ...]]:
        out = []
        for b in out_of.get(amap[window[-1]][1], ()):
            seq = window + (b,)
            if not any(seq[i:] in rels for i in range(len(seq))):
                out.append(seq[-w:])
        return out

    starts = [(a,) for a in amap if (a,) not in rels]
    succ: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    todo = list(starts)
    while todo:
        node = todo.pop()
        if node not in succ:
            succ[node] = extensions(node)
            todo.extend(succ[node])
    indegree = Counter(nxt for outs in succ.values() for nxt in outs)
    order = [node for node in succ if not indegree[node]]
    for node in order:  # grows while it is read
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                order.append(nxt)
    if len(order) < len(succ):
        return None
    # longest path from each window, counting arrows after it
    longest: dict[tuple[str, ...], int] = {}
    for node in reversed(order):
        longest[node] = max((1 + longest[nxt] for nxt in succ[node]), default=0)
    return max((1 + longest[s] for s in starts), default=0)


def _arrows_by_vertex(p: Presentation) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """The arrows out of and into each vertex, in name order."""
    out_of: dict[str, list[str]] = {}
    into: dict[str, list[str]] = {}
    for a, s, t in sorted(p.arrows):
        out_of.setdefault(s, []).append(a)
        into.setdefault(t, []).append(a)
    return out_of, into


def _sign_constraints(p: Presentation) -> list[tuple[tuple[int, str], tuple[int, str], str, str]]:
    """Anti-equality constraints x = -y between sign unknowns, each with its
    label for the solver and its message when a sign choice violates it.

    Unknown keys are (0, arrow) for sigma and (1, arrow) for eps, so sigma
    unknowns sort before eps unknowns for the anchoring rule.  The (a)/(b)
    pairs come in order of their arrow names, (a) before (b) on one pair, and
    then the (c) pairs; each pair is read from the arrows that share a vertex,
    so the list is built in time linear in arrows plus constraints.
    """
    amap = p.arrow_map()
    rels = set(p.relations)
    out_of, into = _arrows_by_vertex(p)
    names = sorted(amap)
    cons = []
    for a in names:
        s, t = amap[a]
        siblings = {b for b in out_of[s] if b > a}
        cosiblings = {b for b in into[t] if b > a}
        for b in sorted(siblings | cosiblings):
            if b in siblings:
                cons.append(((0, a), (0, b), f"(a) s({a})=s({b})",
                             f"(a): arrows {a},{b} share a source but sigma agrees"))
            if b in cosiblings:
                cons.append(((1, a), (1, b), f"(b) t({a})=t({b})",
                             f"(b): arrows {a},{b} share a target but eps agrees"))
    for a in names:
        for b in out_of.get(amap[a][1], ()):
            if (a, b) not in rels:
                cons.append(((1, a), (0, b), f"(c) {a}{b} not in rho",
                             f"(c): eps({a}) != -sigma({b}) though {a}{b} is not a relation"))
    return cons


def solve_sign_maps(p: Presentation) -> SignMaps:
    """Return sign maps satisfying conditions (a)-(c).

    Declared signs are verified and returned verbatim.  Otherwise the parity
    constraint system over the 2|Q1| unknowns is solved by union-find with
    parity, anchoring the smallest unknown of each component to +1; output is
    deterministic.  Raises SignError on declared violations or an infeasible
    system (reporting a conflicting constraint cycle).
    """
    cons = _sign_constraints(p)
    if p.declared_signs is not None:
        bad = _violated(cons, p.declared_signs)
        if bad:
            raise SignError("declared signs violate " + "; ".join(bad))
        return SignMaps(dict(p.declared_signs))

    parent: dict[tuple[int, str], tuple[int, str]] = {}
    parity: dict[tuple[int, str], int] = {}  # sign relative to root, +1/-1
    why: dict[tuple[int, str], tuple] = {}

    def find(x):
        if parent.setdefault(x, x) == x:
            parity.setdefault(x, 1)
            return x, 1
        root, par = find(parent[x])
        parent[x] = root
        parity[x] *= par
        return root, parity[x]

    def trail(x) -> list[str]:
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
    values: dict[tuple[int, str], int] = {}
    anchored: dict[tuple[int, str], int] = {}
    for u in unknowns:
        root, par = find(u)
        if root not in anchored:
            # u is the smallest unknown of its component: anchor it to +1
            anchored[root] = par
        values[u] = par * anchored[root]

    table = {a: (values[(0, a)], values[(1, a)]) for a, _, _ in p.arrows}
    bad = _violated(cons, table)
    if bad:
        raise SignError("solver produced invalid signs: " + "; ".join(bad))
    return SignMaps(table)


def verify_sign_conditions(p: Presentation, maps: SignMaps) -> list[str]:
    """Conditions (a)-(c) on a sign choice: the messages of the violated
    constraints, in constraint order."""
    return _violated(_sign_constraints(p), maps.table)


def _violated(cons, table: Mapping[str, tuple[int, int]]) -> list[str]:
    return [message for (i, a), (j, b), _, message in cons
            if table[a][i] != -table[b][j]]
