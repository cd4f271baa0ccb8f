"""Rebuild a quiver-with-relations presentation from a binary MIA and decide
presentation isomorphism.

Vertices are the involution classes of initial states and each initial state
with a defined 0-transition contributes one arrow.  A composable arrow pair
is *misaligned* when the second arrow starts at the involution partner of
where the first one lands; misaligned pairs are exactly the length-2
relations (the sign condition forces alignment for every allowed
composition).  Longer relations appear as aligned arrow chains whose 0-run
dies at the last step; a chain that contains a shorter one is dropped when
the relations are normalized.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Presentation, _normalize_relations
from .mia import Mia, MiaError, validate_mia
from .strings import CapExceeded
from .words import Letter

ZERO = Letter("0", False)


@dataclass(frozen=True)
class RecoveredPresentation:
    presentation: Presentation
    vertex_of_state: dict[str, str]   # initial state -> recovered vertex
    arrow_provenance: dict[str, tuple[str, str]]  # arrow -> (v1, e(t(v1,0)))


def recover_presentation(m: Mia) -> RecoveredPresentation:
    """Apply the quiver-recovery prescription to a binary MIA."""
    bad = validate_mia(m)
    if bad:
        raise MiaError(f"input is not a valid MIA: {bad[0][1]}")
    if not m.is_binary():
        raise MiaError("recovery needs a binary MIA (alphabet {0}, 1 = 0')")

    classes: dict[str, str] = {}
    vertices = []
    for v in m.initial:
        if v in classes:
            continue
        name = f"u{len(vertices) + 1}"
        vertices.append(name)
        classes[v] = name
        classes[m.inv[v]] = name

    arrow_of: dict[str, str] = {}      # initial state -> arrow name
    provenance: dict[str, tuple[str, str]] = {}
    arrows = []
    for v in m.initial:
        y = m.step(v, ZERO)
        if y is None:
            continue
        name = f"a{len(arrows) + 1}"
        target = m.e[y]
        arrows.append((name, classes[v], classes[target]))
        arrow_of[v] = name
        provenance[name] = (v, target)

    relations: list[tuple[str, ...]] = []

    # misaligned composable pairs = length-2 relations
    for v, name in arrow_of.items():
        _, landed = provenance[name]
        partner = m.inv[landed]
        nxt = arrow_of.get(partner)
        if nxt is not None:
            relations.append((name, nxt))

    # aligned chains whose 0-run dies: axiom 3 (validated above) makes each
    # arrow of an aligned chain leave e of the 0-run read so far, so the
    # chain follows the run, which dies or repeats a state.  No minimality
    # test is needed.  Let a chain of k arrows have its run die at the k-th.
    # Axiom 3 (t(e(x), 0) is defined when t(x, 0) is, with the same e) lets
    # the run from chain[1]'s start read k - 2 zeros through the same e's;
    # if it cannot read k - 1, the walk from there records chain[1:], which
    # the chain contains, so `_normalize_relations` drops the chain.
    # A walk whose run enters t(u, 0), u the arrow just appended, stops: the
    # rest is u's own walk, so what it would record contains what u's walk
    # records (or hands on, later on the same run), and would be dropped.
    for v, name in arrow_of.items():
        chain, run, seen = [name], m.step(v, ZERO), set()
        while run not in seen and (u := m.e[run]) in arrow_of:
            seen.add(run)
            chain.append(arrow_of[u])
            run = m.step(run, ZERO)
            if run is None:
                relations.append(tuple(chain))
            if run in (None, m.step(u, ZERO)):
                break

    pres = Presentation(
        vertices=tuple(vertices),
        arrows=tuple(arrows),
        relations=_normalize_relations(relations),
        declared_signs=None,
    )
    return RecoveredPresentation(pres, dict(classes), provenance)


def presentations_isomorphic(p1: Presentation, p2: Presentation,
                             cap: int = 12) -> Optional[tuple[dict[str, str], dict[str, str]]]:
    """Backtracking search for a quiver isomorphism matching the relation
    sets; returns (vertex map, arrow map) or None.  Intended for desk-scale
    presentations (<= cap vertices)."""
    if max(len(p1.vertices), len(p2.vertices)) > cap:
        raise CapExceeded(f"presentations larger than {cap} vertices")
    if len(p1.vertices) != len(p2.vertices) or len(p1.arrows) != len(p2.arrows):
        return None
    if sorted(len(r) for r in p1.relations) != sorted(len(r) for r in p2.relations):
        return None

    def degree_profile(p: Presentation):
        out = {v: [0, 0] for v in p.vertices}
        for _, s, t in p.arrows:
            out[s][0] += 1
            out[t][1] += 1
        return out

    deg1, deg2 = degree_profile(p1), degree_profile(p2)
    if sorted(map(tuple, deg1.values())) != sorted(map(tuple, deg2.values())):
        return None

    arrows1 = sorted(p1.arrows)
    arrows2 = sorted(p2.arrows)
    rels2 = set(p2.relations)

    def bind(vmap: dict[str, str], a: str, b: str) -> Optional[dict[str, str]]:
        """vmap with vertex a bound to b, or None on conflict."""
        if a in vmap:
            return vmap if vmap[a] == b else None
        return None if b in vmap.values() else {**vmap, a: b}

    def place(i: int, vmap: dict[str, str],
              amap: dict[str, str]) -> Optional[tuple[dict[str, str], dict[str, str]]]:
        """The first extension of the maps to every arrow from arrows1[i] on
        that matches the relations, as (vertex map, arrow map), or None;
        each level binds copies, so a dead end needs no undoing."""
        if i == len(arrows1):
            mapped = {tuple(amap[a] for a in r) for r in p1.relations}
            return (vmap, amap) if mapped == rels2 else None
        name, s, t = arrows1[i]
        used = set(amap.values())
        for name2, s2, t2 in arrows2:
            if name2 in used or deg1[s] != deg2[s2] or deg1[t] != deg2[t2]:
                continue
            vs = bind(vmap, s, s2)
            vt = None if vs is None else bind(vs, t, t2)
            found = None if vt is None else place(i + 1, vt, {**amap, name: name2})
            if found is not None:
                return found
        return None

    found = place(0, {}, {})
    if found is None:
        return None
    vmap, amap = found
    # isolated vertices (no incident arrows) pair up by leftovers
    used = set(vmap.values())
    rest1 = sorted(v for v in p1.vertices if v not in vmap)
    rest2 = sorted(v for v in p2.vertices if v not in used)
    return {**vmap, **dict(zip(rest1, rest2))}, amap
