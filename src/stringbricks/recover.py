"""Rebuild a quiver-with-relations presentation from a binary MIA and decide
presentation isomorphism.

Vertices are the involution classes of initial states and each initial state
with a defined 0-transition contributes one arrow.  A composable arrow pair
is *misaligned* when the second arrow starts at the involution partner of
where the first one lands; misaligned pairs are exactly the length-2
relations (the sign condition forces alignment for every allowed
composition).  Longer relations appear as aligned arrow chains whose 0-run
dies at the last step while both length-(k-1) sub-runs survive.
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

    # aligned chains with minimal undefined runs
    for v in m.initial:
        if v not in arrow_of:
            continue
        chain = [arrow_of[v]]
        cur = provenance[arrow_of[v]][1]
        run = m.step(v, ZERO)
        k = 1
        cap = len(m.states) + 2
        while k < cap:
            nxt_arrow = arrow_of.get(cur)
            if nxt_arrow is None:
                break
            chain.append(nxt_arrow)
            k += 1
            run = None if run is None else m.step(run, ZERO)
            if run is None:
                # minimality: the suffix run of length k-1 must survive
                suffix_start = provenance[chain[1]][0] if len(chain) > 1 else None
                if m.run(suffix_start, (ZERO,) * (k - 1)) is not None:
                    relations.append(tuple(chain))
                break
            cur = provenance[nxt_arrow][1]

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

    vmap: dict[str, str] = {}
    amap: dict[str, str] = {}
    used_v: set[str] = set()
    used_a: set[str] = set()

    def try_vertex(a: str, b: str) -> Optional[bool]:
        """Bind vertex a -> b; returns None on conflict, else whether the
        binding is new."""
        if a in vmap:
            return False if vmap[a] == b else None
        if b in used_v:
            return None
        return True

    def place(i: int) -> bool:
        if i == len(arrows1):
            mapped = {tuple(amap[a] for a in r) for r in p1.relations}
            return mapped == rels2
        name, s, t = arrows1[i]
        for name2, s2, t2 in arrows2:
            if name2 in used_a:
                continue
            if tuple(deg1[s]) != tuple(deg2[s2]) or tuple(deg1[t]) != tuple(deg2[t2]):
                continue
            new_s = try_vertex(s, s2)
            if new_s is None:
                continue
            if new_s:
                vmap[s] = s2
                used_v.add(s2)
            new_t = try_vertex(t, t2)
            if new_t is None:
                if new_s:
                    del vmap[s]
                    used_v.discard(s2)
                continue
            if new_t:
                vmap[t] = t2
                used_v.add(t2)
            amap[name] = name2
            used_a.add(name2)
            if place(i + 1):
                return True
            del amap[name]
            used_a.discard(name2)
            if new_t:
                del vmap[t]
                used_v.discard(t2)
            if new_s:
                del vmap[s]
                used_v.discard(s2)
        return False

    if place(0):
        # isolated vertices (no incident arrows) pair up by leftovers
        rest1 = [v for v in p1.vertices if v not in vmap]
        rest2 = [v for v in p2.vertices if v not in used_v]
        for a, b in zip(sorted(rest1), sorted(rest2)):
            vmap[a] = b
        return dict(vmap), dict(amap)
    return None
