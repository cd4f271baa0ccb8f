"""Ground-truth oracle: explicit string/band modules over a prime field and
exact endomorphism-space dimensions.

A representation is its per-vertex dimensions plus, per arrow, the sparse
entries {(row, col): nonzero residue mod p} of its matrix (default p =
32003).  String and band modules act by partial permutations and one Jordan
block, so an arrow holds a handful of entries; the dense matrices are the
view `Representation.mats`, the only place numpy is imported.  end_dim
ranks phi_{t(a)} M_a = M_a phi_{s(a)} exactly over F_p.  Almost every row
has one or two terms (a column forced to zero, or one column a multiple of
another), and those go to a weighted union-find; the few longer rows, from
the superdiagonal of J_l(lambda) at l >= 2, are then rewritten in its root
coordinates and reduced by sparse Gaussian elimination.  tests/test_endo.py
keeps the dense eliminator as an independent reference.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass

from .strings import Band, CapExceeded, Context, Str

DEFAULT_PRIME = 32003
SECOND_PRIME = 65521


@dataclass
class Representation:
    dims: dict[str, int]
    arrows: tuple[tuple[str, str, str], ...]  # (arrow, source, target)
    entries: dict[str, dict[tuple[int, int], int]]  # arrow -> {(row, col): m}
    prime: int

    def total_dim(self) -> int:
        return sum(self.dims.values())

    @functools.cached_property
    def mats(self):
        """arrow -> its dense (dim_target x dim_source) int64 matrix."""
        import numpy as np

        mats = {}
        for a, s, t in self.arrows:
            mats[a] = np.zeros((self.dims[t], self.dims[s]), dtype=np.int64)
            for rc, m in self.entries[a].items():
                mats[a][rc] = m
        return mats


def _walk_module(ctx: Context, x: Str, l: int, lam, prime: int) -> Representation:
    """The module of a walk along x: an l-dimensional block per position,
    each syllable acting by the identity from the block it leaves to the one
    it enters, direct syllables forward, inverse ones backward.  With `lam`
    None the walk is open (len(x) + 1 positions); otherwise its last syllable
    returns to the first position and acts by the Jordan block J_l(lam)."""
    p = ctx.presentation
    positions = [x.src, *map(ctx.letter_dst, x.letters)]
    if lam is not None:
        positions.pop()
    dims = dict.fromkeys(p.vertices, 0)
    index = []  # index[i] = first row of position i's block inside its vertex
    for v in positions:
        index.append(dims[v])
        dims[v] += l
    if lam is not None:
        index.append(index[0])  # the closed walk ends on its first block
    entries = {a: {} for a, _, _ in p.arrows}
    for lt, j, k in zip(x.letters, index, index[1:]):
        if lt.inv:
            j, k = k, j  # an inverse syllable acts from the later block back
        for d in range(l):
            entries[lt.sym][k + d, j + d] = 1
    if lam is not None:  # the last syllable's block J_l(lam), over its identity
        entries[lt.sym].update({(k + d, j + d): lam for d in range(l)})
        entries[lt.sym].update({(k + d, j + d + 1): 1 for d in range(l - 1)})
    return Representation(dims, p.arrows, entries, prime)


def string_module(ctx: Context, x: Str, prime: int = DEFAULT_PRIME) -> Representation:
    """M(x): one basis vector per string position, the open walk at l = 1."""
    return _walk_module(ctx, x, 1, None, prime)


def band_module(ctx: Context, b: Band, l: int, lam: int,
                prime: int = DEFAULT_PRIME) -> Representation:
    """B(b, l, lambda): the closed walk along b with l-dimensional blocks,
    whose last (direct) syllable acts by the Jordan block J_l(lambda)."""
    if lam % prime == 0:
        raise ValueError("lambda must be nonzero")
    if l < 1:
        raise ValueError("l must be >= 1")
    return _walk_module(ctx, b.string, l, lam % prime, prime)


def _check_cap(total: int, cap: int) -> None:
    if total > cap:
        raise CapExceeded(f"total dimension {total} exceeds cap {cap}")


def _rank_sparse(rows, p: int) -> int:
    """Rank over F_p of sparse rows {column: coeff}, in two phases.

    Phase 1 takes the rows of one or two nonzero terms into a weighted
    union-find (Tarjan 1975): each column links to its parent with
    x_col = w * x_parent, and a root may be flagged as forced to zero.  A
    one-term row flags its root.  A two-term row unites two roots under the
    multiplier it implies; on two columns of one root it flags the root if
    the cycle's weight disagrees, and it is redundant on a consistent cycle
    or two flagged roots.  Each union and each new flag is one pivot.

    Phase 2 rewrites every other row in root coordinates, dropping flagged
    roots and summing repeated ones, and reduces it, shortest first, against
    the normalised pivot rows keyed by leading column until it vanishes or
    becomes a new pivot."""
    link: dict[int, tuple[int, int]] = {}  # column -> (parent, w): x_col = w * x_parent
    size: dict[int, int] = {}  # root -> columns in its tree, once above one
    zero: set[int] = set()  # roots forced to zero (a merged root's flag is stale)
    rank, rest = 0, []

    def find(c):
        """(root, w) with x_c = w * x_root; the path is pointed at the root."""
        path = []
        while (up := link.get(c)) is not None:
            path.append(c)
            c = up[0]
        w = 1
        for d in reversed(path):
            w = w * link[d][1] % p
            link[d] = (c, w)
        return c, w

    for row in rows:
        n = len(row) if all(row.values()) else 0  # a zero coefficient goes to phase 2
        if n == 1:
            (r,) = row
            if r in link:
                r = find(r)[0]
            if r not in zero:
                zero.add(r)
                rank += 1
        elif n == 2:
            (x, a), (y, b) = row.items()
            rx, wx = find(x) if x in link else (x, 1)
            ry, wy = find(y) if y in link else (y, 1)
            a, b = a * wx, b * wy  # the row in root coordinates: a*x_rx + b*x_ry
            if rx == ry:
                if (a + b) % p and rx not in zero:  # a cycle whose weights disagree
                    zero.add(rx)
                    rank += 1
            elif rx not in zero or ry not in zero:
                if size.get(rx, 1) > size.get(ry, 1):
                    rx, ry, a, b = ry, rx, b, a
                link[rx] = (ry, -b * pow(a, -1, p) % p)
                size[ry] = size.get(rx, 1) + size.get(ry, 1)
                if rx in zero:
                    zero.add(ry)
                rank += 1
        else:
            rest.append(row)
    pivots: dict[int, dict[int, int]] = {}
    reduced = []
    for row in rest:
        acc: dict[int, int] = {}
        for c, v in row.items():
            r, w = find(c) if c in link else (c, 1)
            if r not in zero:
                acc[r] = (acc.get(r, 0) + v * w) % p
        reduced.append({c: v for c, v in acc.items() if v})
    for row in sorted(reduced, key=len):
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            row = {k: v for k in row.keys() | piv.keys()
                   if (v := (row.get(k, 0) - f * piv.get(k, 0)) % p)}
    return rank + len(pivots)


def end_dim(ctx: Context, rep: Representation, cap: int = 400) -> int:
    """Dimension of End(M) = nullity of the commutation system over F_p.

    Unknown phi_v[i,k] is column offs[v] + i*dim_v + k; a nonzero M_a[k,j]
    enters equations (i,j) and (k,i) of arrow a for every i.  At the default
    cap the slowest solves measured (Xeon, CPython 3.11, median of 7) take
    ~0.35 s (399-dim string, 400-dim bands at l <= 4), ~0.55 s for one
    l = 200 Jordan block."""
    _check_cap(rep.total_dim(), cap)
    p = rep.prime
    offs, n_unknowns = {}, 0
    for v in ctx.presentation.vertices:
        offs[v], n_unknowns = n_unknowns, n_unknowns + rep.dims[v] ** 2
    eqs: dict[tuple, dict[int, int]] = defaultdict(dict)  # (a, i, j) -> row
    for a, s, t in ctx.presentation.arrows:
        dt, ds = rep.dims[t], rep.dims[s]
        for (k, j), m in rep.entries[a].items():
            for i in range(dt):
                e, c = eqs[a, i, j], offs[t] + i * dt + k
                e[c] = (e.get(c, 0) + m) % p
            for i in range(ds):
                e, c = eqs[a, k, i], offs[s] + j * ds + i
                e[c] = (e.get(c, 0) - m) % p
    return n_unknowns - _rank_sparse(eqs.values(), p)


def end_dim_string(ctx: Context, x: Str, prime: int = DEFAULT_PRIME, cap: int = 400) -> int:
    _check_cap(len(x) + 1, cap)
    return end_dim(ctx, string_module(ctx, x, prime), cap)


def end_dim_band(ctx: Context, b: Band, l: int, lam: int,
                 prime: int = DEFAULT_PRIME, cap: int = 400) -> int:
    _check_cap(len(b.string) * l, cap)
    return end_dim(ctx, band_module(ctx, b, l, lam, prime), cap)
